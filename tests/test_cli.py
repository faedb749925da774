import csv
import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import timechange_sv
from timechange_sv import cli
from timechange_sv.cli import main
from timechange_sv.diagnostics import SummaryTable


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def tiny_data(path):
    path.write_text("time,value\n0,0.1\n1,0.3\n2,-0.2\n3,0.0\n")
    return str(path)


OU_CONFIG = {
    "model": "ou-sv-leverage",
    "simulate": {"delta": 0.01, "n_steps": 2000, "thin_stride": 100, "seed": 3, "x0": 0.1},
    "sampler": {"m": 2, "n_iter": 150, "n_burn": 30, "chains": 2, "seed": 5},
}


class TestRoundTrip:
    def test_simulate_fit_diagnose(self, tmp_path):
        cfg = write_config(tmp_path / "config.json", OU_CONFIG)
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(sim)]) == 0
        for name in ("obs.csv", "truth.csv", "truth_params.json"):
            assert (sim / name).is_file()
        with open(sim / "obs.csv") as fh:
            assert len(fh.readlines()) == 1 + 21

        fits = [tmp_path / "fit_a", tmp_path / "fit_b"]
        for out in fits:
            argv = ["fit", "--config", cfg, "--data", str(sim / "obs.csv"), "--out", str(out)]
            assert main(argv) == 0
        for chain in (0, 1):
            for stem in ("trace", "summary"):
                assert (fits[0] / f"{stem}_chain{chain}.csv").is_file()
            assert (fits[0] / f"acceptance_chain{chain}.json").is_file()
            same_seed = [(out / f"trace_chain{chain}.csv").read_bytes() for out in fits]
            assert same_seed[0] == same_seed[1]
        with open(fits[0] / "summary_chain0.csv", newline="") as fh:
            assert tuple(next(csv.reader(fh))) == ("parameter", *SummaryTable.columns)
        with open(fits[0] / "trace_chain0.csv") as fh:
            assert len(fh.readlines()) == 1 + 120

        diag = tmp_path / "diag"
        argv = ["diagnose", "--trace", str(fits[0] / "trace_chain0.csv"),
                "--max-lag", "20", "--out", str(diag)]
        assert main(argv) == 0
        for name in ("acf.csv", "iact.csv", "kde.csv"):
            assert (diag / name).is_file()


class TestExitCodes:
    def test_missing_data_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json", OU_CONFIG)
        argv = ["fit", "--config", cfg, "--data", str(tmp_path / "absent.csv"),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert "data file not found" in capsys.readouterr().err

    def test_unparseable_csv_row(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json", OU_CONFIG)
        data = tmp_path / "obs.csv"
        data.write_text("time,value\n0,0.1\n1,abc\n2,0.3\n")
        argv = ["fit", "--config", cfg, "--data", str(data), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{data}:3:" in err and "unparseable" in err

    def test_exploding_simulation(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json", {
            "model": "const-vol-scalar",
            "params": {"theta": 1e308},
            "simulate": {"delta": 10, "n_steps": 50},
        })
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")])
        assert code == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1

    def test_unknown_fixed_parameter(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json", {
            "model": "const-vol-scalar",
            "fixed": ["sigmaa"],
            "sampler": {"m": 2, "n_iter": 10, "n_burn": 2},
        })
        argv = ["fit", "--config", cfg, "--data", tiny_data(tmp_path / "obs.csv"),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert "sigmaa" in capsys.readouterr().err

    def test_fixed_inside_sampler_rejected(self, tmp_path, capsys):
        # recorded config: it used to fit with exit 0 and sample sigma anyway
        cfg = write_config(tmp_path / "config.json", {
            "model": "const-vol-scalar",
            "sampler": {"m": 2, "n_iter": 10, "n_burn": 2, "fixed": ["sigma"]},
        })
        argv = ["fit", "--config", cfg, "--data", tiny_data(tmp_path / "obs.csv"),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert "top level" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_simulate_key_rejected_before_any_step(self, tmp_path, capsys, monkeypatch):
        # recorded typo of n_steps: it used to run the default 500 000 steps
        def no_steps(*args, **kwargs):
            raise AssertionError("the simulator ran")

        monkeypatch.setattr(cli, "euler_simulate", no_steps)
        cfg = write_config(tmp_path / "config.json", {
            "model": "const-vol-scalar",
            "simulate": {"n_step": 20, "delta": 0.01, "thin_stride": 5},
        })
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 1
        assert "n_step" in capsys.readouterr().err

    def test_unknown_data_schema_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json", {
            "model": "const-vol-scalar",
            "data_schema": {"spacin": 0.02},
            "sampler": {"m": 2, "n_iter": 10, "n_burn": 2},
        })
        argv = ["fit", "--config", cfg, "--data", tiny_data(tmp_path / "obs.csv"),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert "spacin" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        5,
        {"model": "const-vol-scalar", "prior": {"sigma": 5}},
        {"model": "const-vol-scalar", "prior": {"sigma": [1, 2, 3]}},
        {"model": "const-vol-scalar", "prior": [[1, 2]]},
        {"model": "const-vol-scalar", "fixed": "sigma"},
        {"model": "const-vol-scalar", "params": {"sigma": "abc"}},
        {"model": "const-vol-scalar", "params": {"sigma": None}},
        {"model": "const-vol-scalar", "params": {"sigma": True}},
        {"model": "const-vol-scalar", "simulate": {"delta": None}},
        {"model": "const-vol-scalar", "simulate": {"n_steps": 20.7}},
        {"model": "const-vol-scalar", "sampler": {"m": 2.5, "n_iter": 10, "n_burn": 2}},
        {"model": "const-vol-scalar", "sampler": {"m": 2, "n_iter": 10.5}},
        {"model": "const-vol-scalar",
         "sampler": {"m": 2, "n_iter": 10, "n_burn": 2, "rw_scales": {"theta": "x"}}},
        {"model": "const-vol-scalar",
         "sampler": {"m": 2, "n_iter": 10, "n_burn": 2, "target_accept": "x"}},
        {"model": "const-vol-scalar",
         "sampler": {"m": 2, "n_iter": 10, "n_burn": 2, "ratio_power": None}},
        {"model": "const-vol-scalar",
         "sampler": {"m": 2, "n_iter": 10, "n_burn": 2, "adapt": "no"}},
    ])
    def test_malformed_config(self, tmp_path, capsys, doc):
        if isinstance(doc, dict):
            doc = {"sampler": {"m": 2, "n_iter": 10, "n_burn": 2}, **doc}
        cfg = write_config(tmp_path / "config.json", doc)
        argv = ["fit", "--config", cfg, "--data", tiny_data(tmp_path / "obs.csv"),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats takes most of the CLI's start-up; only prior recovery needs it
    src = str(Path(timechange_sv.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import timechange_sv.cli; "
            "print('scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.strip() == "False"
