import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import timechange_sv
from timechange_sv import cli
from timechange_sv.cli import main
from timechange_sv.diagnostics import SummaryTable
from timechange_sv.errors import NumericsError, ValidationError


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
            "simulate": {"delta": 10, "n_steps": 50, "thin_stride": 5},
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

    def test_simulate_parameter_outside_support_rejected(self, tmp_path, capsys, monkeypatch):
        # recorded config: it used to simulate with |rho| > 1 and exit 0
        def no_steps(*args, **kwargs):
            raise AssertionError("the simulator ran")

        monkeypatch.setattr(cli, "euler_simulate", no_steps)
        cfg = write_config(tmp_path / "config.json", {
            "model": "ou-sv-leverage",
            "params": {"rho": 1.5, "sigma": -0.4},
            "simulate": {"n_steps": 20, "delta": 0.01, "thin_stride": 5},
        })
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "outside its support" in err
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("x0", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_start_rejected(self, tmp_path, capsys, x0):
        # recorded config: x0 NaN used to exit 2, blaming the first Euler step
        cfg = write_config(tmp_path / "config.json", {
            "model": "tbill-logsv",
            "simulate": {"n_steps": 20, "delta": 0.01, "thin_stride": 5, "x0": x0},
        })
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "x0" in err

    def test_one_observation_rejected_before_any_step(self, tmp_path, capsys, monkeypatch):
        # recorded config: it wrote 1 observation, which fit then refused
        def no_steps(*args, **kwargs):
            raise AssertionError("the simulator ran")

        monkeypatch.setattr(cli, "euler_simulate", no_steps)
        cfg = write_config(tmp_path / "config.json", {
            "model": "const-vol-scalar",
            "simulate": {"n_steps": 3, "delta": 0.01, "thin_stride": 5},
        })
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "n_steps=3" in err and "thin_stride=5" in err
        assert not (tmp_path / "sim").exists()

    def test_two_observations_accepted(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json", {
            "model": "const-vol-scalar",
            "simulate": {"n_steps": 5, "delta": 0.01, "thin_stride": 5},
        })
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 0
        assert "wrote 2 observations" in capsys.readouterr().out

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
         "sampler": {"m": 2, "n_iter": 10, "n_burn": 2, "target_accept": None}},
        {"model": "const-vol-scalar",
         "sampler": {"m": 2, "n_iter": 10, "n_burn": 2, "block_len": 1}},
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
    # scipy.stats takes most of the CLI's start-up; only prior recovery needs
    # it, and only a fit with several chains on several CPUs needs the pool
    src = str(Path(timechange_sv.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import timechange_sv.cli; "
            "print([m in sys.modules for m in sys.argv[2:]])")
    lazy = ["scipy.stats", "multiprocessing", "concurrent.futures"]
    out = subprocess.run([sys.executable, "-c", code, src, *lazy], capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == str([False] * len(lazy))


def set_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def parallel_fit_setup(tmp_path, chains):
    """Config and simulated data of a small fit with ``chains`` chains."""
    doc = {**OU_CONFIG, "sampler": {**OU_CONFIG["sampler"], "n_iter": 40, "n_burn": 10,
                                    "chains": chains}}
    cfg = write_config(tmp_path / "config.json", doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 0
    return cfg, str(tmp_path / "sim" / "obs.csv")


class TestParallelFit:
    @pytest.mark.parametrize("chains,cpus", [(2, 2), (3, 2), (3, 3)])
    def test_same_bytes_as_one_cpu(self, tmp_path, monkeypatch, chains, cpus):
        cfg, obs = parallel_fit_setup(tmp_path, chains)
        files = {}
        for n_cpu in (cpus, 1):
            set_cpus(monkeypatch, n_cpu)
            out = tmp_path / f"fit_{n_cpu}"
            assert main(["fit", "--config", cfg, "--data", obs, "--out", str(out)]) == 0
            files[n_cpu] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(files[1]) == 3 * chains
        assert files[cpus] == files[1]

    def test_without_fork_chains_run_in_this_process(self, tmp_path, monkeypatch):
        import multiprocessing

        def no_fork(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        cfg, obs = parallel_fit_setup(tmp_path, 2)
        run_chain, calls = cli.run_chain, []
        monkeypatch.setattr(cli, "run_chain", lambda *a: calls.append(a) or run_chain(*a))
        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        set_cpus(monkeypatch, 2)
        assert main(["fit", "--config", cfg, "--data", obs, "--out", str(tmp_path / "fit")]) == 0
        assert len(calls) == 2

    def test_usable_cpus_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert cli._usable_cpus() == 3

    @pytest.mark.parametrize("chains,failures,code,first", [
        (2, {1: NumericsError}, 2, 1),
        (2, {1: ValidationError}, 1, 1),
        (3, {0: NumericsError}, 2, 0),
        # chain 2 runs in this process and fails too; chain 1 comes first
        (3, {1: ValidationError, 2: NumericsError}, 1, 1),
    ])
    def test_failing_chain(self, tmp_path, monkeypatch, capsys, chains, failures, code, first):
        cfg, obs = parallel_fit_setup(tmp_path, chains)
        capsys.readouterr()
        run_chain = cli.run_chain

        def failing_run_chain(config, *args):
            chain = config.seed - OU_CONFIG["sampler"]["seed"]
            if chain in failures:
                raise failures[chain](f"chain {chain} failed in process {os.getpid()}")
            return run_chain(config, *args)

        monkeypatch.setattr(cli, "run_chain", failing_run_chain)
        set_cpus(monkeypatch, 2)
        out = tmp_path / "fit"
        assert main(["fit", "--config", cfg, "--data", obs, "--out", str(out)]) == code
        err = capsys.readouterr().err
        label = "error" if code == 1 else "numerical failure"
        assert err.startswith(f"{label}: chain {first} failed in process ")
        assert err.count("\n") == 1 and "Traceback" not in err
        pid = int(err.split()[-1])
        assert (pid == os.getpid()) == (first % 2 == 0)
        # as in a serial run, the chains before the failure have their files
        assert sorted(p.name for p in out.iterdir()) == sorted(
            f"{stem}_chain{c}.{ext}" for c in range(first)
            for stem, ext in (("trace", "csv"), ("summary", "csv"), ("acceptance", "json"))
        )
