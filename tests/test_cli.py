import csv
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import timechange_sv
from timechange_sv import cli
from timechange_sv.cli import main
from timechange_sv.diagnostics import SUMMARY_COLUMNS, acf, iact
from timechange_sv.errors import NumericsError, ValidationError
from timechange_sv.mcmc import PriorSpec, SamplerConfig
from timechange_sv.models import get_model

from _support import set_cpus


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
            assert tuple(next(csv.reader(fh))) == ("parameter", *SUMMARY_COLUMNS)
        with open(fits[0] / "trace_chain0.csv") as fh:
            assert len(fh.readlines()) == 1 + 120

        diag = tmp_path / "diag"
        argv = ["diagnose", "--trace", str(fits[0] / "trace_chain0.csv"),
                "--max-lag", "20", "--out", str(diag)]
        assert main(argv) == 0
        for name in ("acf.csv", "iact.csv", "kde.csv"):
            assert (diag / name).is_file()


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["diagnose", "--trace", "trace.csv", "--max-lag", "abc", "--out", "diag"],
        ["fit", "--config", "config.json", "--out", "out"],
    ], ids=["bad-max-lag", "fit-without-data"])
    def test_usage_error_exits_1(self, capsys, argv):
        # exit 2, argparse's own, is a numerical failure's
        assert main(argv) == 1
        assert "usage: timechange-sv" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out

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

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_simulate_out_at_a_file(self, tmp_path, capsys, under):
        # a file, or a path below one, as the output directory: one error
        # line naming the file, not a FileExistsError or NotADirectoryError
        cfg = write_config(tmp_path / "config.json", OU_CONFIG)
        blocker = tmp_path / "taken"
        blocker.write_text("keep")
        out = blocker / "sim" if under else blocker
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {blocker}: Not a directory\n"
        assert blocker.read_text() == "keep"

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_fit_out_at_a_file_rejected_before_the_chains(self, tmp_path, capsys,
                                                          monkeypatch, under):
        cfg = write_config(tmp_path / "config.json", {
            "model": "const-vol-scalar", "sampler": {"m": 2, "n_iter": 10, "n_burn": 2},
        })
        blocker = tmp_path / "taken"
        blocker.write_text("keep")
        ran = []
        monkeypatch.setattr(cli, "run_chain", lambda *args: ran.append(args))
        argv = ["fit", "--config", cfg, "--data", tiny_data(tmp_path / "obs.csv"),
                "--out", str(blocker / "fit" if under else blocker)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {blocker}: Not a directory\n"
        assert not ran and blocker.read_text() == "keep"

    def test_diagnose_trace_that_is_a_directory(self, tmp_path, capsys):
        argv = ["diagnose", "--trace", str(tmp_path), "--out", str(tmp_path / "diag")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path}: ") and err.count("\n") == 1
        assert not (tmp_path / "diag").exists()

    @pytest.mark.parametrize("n_steps", [10**17, 10**20], ids=["memory", "numpy-limit"])
    def test_simulate_grid_too_long_to_allocate(self, tmp_path, capsys, n_steps):
        # sizes no 64-bit address space holds, so the allocation fails at once
        cfg = write_config(tmp_path / "config.json", {
            "model": "const-vol-scalar", "simulate": {"n_steps": n_steps},
        })
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n_steps" in err and err.count("\n") == 1
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("sampler,message", [
        ({"m": 10**15, "n_iter": 10}, "a state of m=10"),
        ({"m": 10**30, "n_iter": 10}, "a state of m=10"),
        ({"m": 2, "n_iter": 10**20}, "a trace of n_iter=10"),
    ], ids=["state-memory", "state-numpy-limit", "trace-int64"])
    def test_fit_too_large_to_allocate(self, tmp_path, capsys, sampler, message):
        # sizes no 64-bit address space holds, so the allocation fails at
        # once; they ended in a MemoryError, a ValueError and an OverflowError
        cfg = write_config(tmp_path / "config.json",
                           {"model": "const-vol-scalar", "sampler": sampler})
        argv = ["fit", "--config", cfg, "--data", tiny_data(tmp_path / "obs.csv"),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: cannot allocate ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "out").exists()

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

    def test_overflowing_observations(self, tmp_path, capsys):
        # a log-rate of 800 simulates finite, but its rate exp(800) overflows;
        # pytest's error::RuntimeWarning filter fails the test on a warning
        cfg = write_config(tmp_path / "config.json", {
            "model": "tbill-logsv",
            "simulate": {"delta": 0.001, "n_steps": 200, "thin_stride": 10, "x0": 800},
        })
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1
        assert not (tmp_path / "sim").exists()

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

    def test_negative_simulate_seed_rejected(self, tmp_path, capsys):
        # recorded config: it ended in numpy's "expected non-negative integer"
        cfg = write_config(tmp_path / "config.json", {
            "model": "const-vol-scalar",
            "simulate": {"n_steps": 20, "delta": 0.01, "thin_stride": 5, "seed": -3},
        })
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "-3" in err
        assert not (tmp_path / "sim").exists()

    def test_two_observations_accepted(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json", {
            "model": "const-vol-scalar",
            "simulate": {"n_steps": 5, "delta": 0.01, "thin_stride": 5},
        })
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 0
        assert "wrote 2 observations" in capsys.readouterr().out

    @pytest.mark.parametrize("sampler", [
        {"m": 2, "n_iter": 10, "n_burn": 9},
        {"m": 2, "n_iter": 10, "n_burn": 2, "thin": 8},
    ], ids=["burn", "thin"])
    def test_fit_keeping_fewer_than_two_draws_rejected(self, tmp_path, capsys, sampler):
        # the kept draws are counted before any chain runs or any file is written
        cfg = write_config(tmp_path / "config.json",
                           {"model": "const-vol-scalar", "sampler": sampler})
        argv = ["fit", "--config", cfg, "--data", tiny_data(tmp_path / "obs.csv"),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "two draws" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc,message", [
        ({"model": "const-vol-scalar", "fixed": ["sigma"],
          "sampler": {"rw_scales": {"sigma": 0.1}}}, "rw_scales names no free parameter"),
        ({"model": "const-vol-scalar", "fixed": ["sigmaa"]}, "unknown fixed parameters"),
        ({"model": "const-vol-scalar", "params": {"sigma": 3.0}, "prior": {"sigma": [0.5, 2.0]}},
         "initial parameters violate the prior support"),
        # a trace of no parameter would be one its own diagnose rejects
        ({"model": "const-vol-scalar", "fixed": ["theta", "sigma"]},
         "every parameter of const-vol-scalar is fixed"),
        # the midpoint start named the free parameters itself and blamed the
        # prior: "the prior of ['sigma'] is improper"
        ({"model": "const-vol-scalar", "fixed": ["sigmaa"], "init": "prior-midpoint",
          "prior": {"theta": [-1, 1]}},
         "unknown fixed parameters for const-vol-scalar: ['sigmaa']"),
    ], ids=["rw-scales", "fixed", "start", "all-fixed", "fixed-midpoint"])
    def test_chain_config_error_leaves_no_output(self, tmp_path, capsys, doc, message):
        # these are raised by the chain, or for the midpoint start just
        # before it; the output directory is made only once the first chain
        # has its trace
        doc = {**doc, "sampler": {"m": 2, "n_iter": 10, "n_burn": 2, **doc.get("sampler", {})}}
        argv = ["fit", "--config", write_config(tmp_path / "config.json", doc),
                "--data", tiny_data(tmp_path / "obs.csv"), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("column,message", [
        # acf passes and iact fails: too short for an integrated autocorrelation
        ([0.1 * (i % 7) for i in range(50)], "trace.csv: parameter theta: integrated"),
        # acf fails on the second column, after the first one's rows: a
        # kernel that never accepted leaves such a column
        ([0.5] * 200, "trace.csv: parameter sigma: series has zero variance"),
        # the header is line 1, so draw i is on line i + 2
        ([math.nan if i == 60 else 0.1 * (i % 7) for i in range(150)],
         "trace.csv:62: non-finite"),
        # finite draws whose mean and variance overflow: the tables were
        # written full of nan, after RuntimeWarnings
        ([(-1.0) ** i * 1e308 for i in range(200)],
         "trace.csv: parameter sigma: autocorrelations are not finite"),
    ], ids=["short", "constant", "nan-draw", "overflow"])
    def test_diagnose_failure_leaves_no_output(self, tmp_path, capsys, column, message):
        trace = tmp_path / "trace.csv"
        trace.write_text("iter,theta,sigma,loglik\n" + "".join(
            f"{i},{0.01 * (i % 13)},{v},-1.0\n" for i, v in enumerate(column)))
        argv = ["diagnose", "--trace", str(trace), "--max-lag", "5",
                "--out", str(tmp_path / "diag")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "diag").exists()

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

    @pytest.mark.parametrize("rows,line", [
        ("0,0.1\n1,nan\n2,0.3\n", 3),
        ("0,0.1\n1,0.3\ninf,0.2\n", 4),
        # a NaN time would pass the ordering check: every comparison is false
        ("0,0.1\nnan,0.3\n2,0.2\n", 3),
        ("0,0.1\n", None),
    ], ids=["nan-value", "inf-time", "nan-time", "one-row"])
    def test_unusable_data_rejected(self, tmp_path, capsys, rows, line):
        data = tmp_path / "obs.csv"
        data.write_text("time,value\n" + rows)
        cfg = write_config(tmp_path / "config.json", {
            "model": "const-vol-scalar", "sampler": {"m": 2, "n_iter": 10, "n_burn": 2},
        })
        argv = ["fit", "--config", cfg, "--data", str(data), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        where = f"{data}: need at least two" if line is None else f"{data}:{line}: non-finite"
        assert where in err
        assert not (tmp_path / "out").exists()

    def test_overflowing_spacing_rejected(self, tmp_path, capsys):
        # value-only times are spacing * k; one that overflows is named with
        # its line, not left for the time grid to report without it
        data = tmp_path / "obs.csv"
        data.write_text("value\n0.1\n0.3\n0.2\n")
        cfg = write_config(tmp_path / "config.json", {
            "model": "const-vol-scalar", "data_schema": {"spacing": 1e308},
            "sampler": {"m": 2, "n_iter": 10, "n_burn": 2},
        })
        argv = ["fit", "--config", cfg, "--data", str(data), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{data}:4: time inf is not finite" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text,message", [
        ("", ": empty file"),
        ("iter,theta,loglik\n", ": trace has no draws"),
        ("iter,theta\n0,0.5\n", ": malformed trace header"),
        ("iter,theta,loglik\n0,0.5\n", ":2: expected 3 fields"),
        ("iter,theta,loglik\n0,0.5,-1.0\n1,x,-1.0\n", ":3: unparseable"),
        # read as two parameters called a
        ("iter,a,a,loglik\n0,0.5,0.6,-1.0\n", ":1: repeated parameter names ['a']"),
        # read as iter 1
        ("iter,theta,loglik\n0,0.5,-1.0\n1.7,0.4,-1.0\n", ":3: iter 1.7 is not a whole number"),
        # read as one parameter called ''
        ("iter,,loglik\n0,0.5,-1.0\n", ":1: empty parameter name"),
        # read as iters 5 and 1, and as iter -3
        ("iter,theta,loglik\n5,0.5,-1.0\n1,0.4,-1.0\n",
         ":3: iter 1 is not greater than the previous 5"),
        ("iter,theta,loglik\n-3,0.5,-1.0\n", ":2: iter -3 is negative"),
        # read as iter -2**63, with a RuntimeWarning from the cast to int64
        ("iter,theta,loglik\n1e300,0.5,-1.0\n", ":2: iter 1.0000000000000001e+300 is too large"),
        ("iter,theta,loglik\n9223372036854775808,0.5,-1.0\n",
         ":2: iter 9.2233720368547758e+18 is too large"),
    ], ids=["empty", "no-draws", "header", "width", "unparseable", "repeated-name",
            "fractional-iter", "empty-name", "decreasing-iter", "negative-iter",
            "huge-iter", "iter-2**63"])
    def test_malformed_trace_rejected(self, tmp_path, capsys, text, message):
        trace = tmp_path / "trace.csv"
        trace.write_text(text)
        argv = ["diagnose", "--trace", str(trace), "--out", str(tmp_path / "diag")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{trace}{message}" in err
        assert not (tmp_path / "diag").exists()

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
        # keys of earlier versions: an old config fails and names them
        {"model": "const-vol-scalar", "sampler": {"m": 2, "n_iter": 10, "n_burn": 2, "adapt": True}},
        {"model": "const-vol-scalar",
         "sampler": {"m": 2, "n_iter": 10, "n_burn": 2, "target_accept": 0.3}},
        {"model": "const-vol-scalar",
         "sampler": {"m": 2, "n_iter": 10, "n_burn": 2, "block_len": 1}},
        {"model": "const-vol-scalar", "sampler": {"m": 2, "n_iter": 10, "n_burn": 2, "seed": -1}},
        {"model": "const-vol-scalar",
         "sampler": {"m": 2, "n_iter": 10, "n_burn": 2, "rw_scales": {"sigma": float("nan")}}},
        {"model": "const-vol-scalar",
         "sampler": {"m": 2, "n_iter": 10, "n_burn": 2, "rw_scales": {"sigma": float("inf")}}},
        {"model": "const-vol-scalar",
         "sampler": {"m": 2, "n_iter": 10, "n_burn": 2, "rw_scales": {"sigma": 0}}},
        {"model": "const-vol-scalar",
         "sampler": {"m": 2, "n_iter": 10, "n_burn": 2, "rw_scales": {"sigma": -0.1}}},
        {"model": "const-vol-scalar",
         "sampler": {"m": 2, "n_iter": 10, "n_burn": 2, "rw_scales": {"sigam": 0.1}}},
        {"model": "const-vol-scalar", "fixed": ["sigma"],
         "sampler": {"m": 2, "n_iter": 10, "n_burn": 2, "rw_scales": {"sigma": 0.1}}},
        {"model": "const-vol-scalar",
         "sampler": {"m": 2, "n_iter": 10, "n_burn": 2, "validate_every": -1}},
        # integers too large for a float
        {"model": "const-vol-scalar", "params": {"sigma": 10**400}},
        {"model": "const-vol-scalar",
         "sampler": {"m": 2, "n_iter": 10, "n_burn": 2, "rw_scales": {"sigma": 10**400}}},
        # the spacing of value-only data, checked whatever the data file holds
        {"model": "const-vol-scalar", "data_schema": {"spacing": "x"}},
        {"model": "const-vol-scalar", "data_schema": {"spacing": [1]}},
        {"model": "const-vol-scalar", "data_schema": {"spacing": True}},
        {"model": "const-vol-scalar", "data_schema": {"spacing": -1}},
        {"model": "const-vol-scalar", "data_schema": {"spacing": 0}},
        # the one error of the config file that did not name it
        {"model": "const-vol-scalar", "init": "midpoint"},
        # the loaded config remembers its file, which is no config key
        {"model": "const-vol-scalar", "source": "other.json"},
        {"model": "const-vol-scalar", "path": "other.json"},
        # an unknown model name, the last load-time error without the file
        {"model": "const-vol-scalr"},
    ])
    def test_malformed_config(self, tmp_path, capsys, doc):
        # a document without its own sampler section fails as the file
        # loads, one with it when fit reads the section: both name the file
        if isinstance(doc, dict):
            doc = {"sampler": {"m": 2, "n_iter": 10, "n_burn": 2}, **doc}
        cfg = write_config(tmp_path / "config.json", doc)
        argv = ["fit", "--config", cfg, "--data", tiny_data(tmp_path / "obs.csv"),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ") and err.count("\n") == 1
        if isinstance(doc, dict) and "init" in doc:
            assert "init must be 'config' or 'prior-midpoint', got 'midpoint'" in err
        sampler = doc.get("sampler", {}) if isinstance(doc, dict) else {}
        unknown = set(sampler) - {f.name for f in fields(SamplerConfig)}
        assert all(repr(key) in err for key in unknown), err


    @pytest.mark.parametrize("command,doc,message", [
        ("fit", {"sampler": {"m": 2.5}}, "m must be an integer, got 2.5"),
        ("fit", {"sampler": {"n_burn": 20}}, "need 0 <= n_burn < n_iter"),
        ("fit", {"prior": {"kappa": [3, 1]}}, "prior bounds for kappa must be"),
        ("fit", {"fixed": ["kapa"]}, "unknown fixed parameters for tbill-logsv: ['kapa']"),
        # raised inside the chain
        ("fit", {"sampler": {"rw_scales": {"kapa": 0.1}}},
         "rw_scales names no free parameter of tbill-logsv: ['kapa']"),
        ("simulate", {"simulate": {"n_step": 20}}, "unknown keys in 'simulate': ['n_step']"),
        ("simulate", {"params": {"sigma": -1}}, "sigma = -1.0 not in (0.0, inf)"),
    ], ids=["m", "n-burn", "prior", "fixed", "rw-scales", "simulate-key", "simulate-param"])
    def test_config_error_after_loading_names_the_file(self, tmp_path, capsys, command, doc,
                                                       message):
        # checks that the commands make after RunConfig.load: each printed
        # a bare "error: <message>"
        doc = {"model": "tbill-logsv", **doc,
               "sampler": {"m": 2, "n_iter": 10, "n_burn": 2, **doc.get("sampler", {})},
               "simulate": {"n_steps": 20, "thin_stride": 5, **doc.get("simulate", {})}}
        cfg = write_config(tmp_path / "config.json", doc)
        data = tmp_path / "obs.csv"
        data.write_text("time,value\n0,0.05\n0.02,0.06\n0.04,0.055\n")
        argv = [command, "--config", cfg, "--out", str(tmp_path / "out")]
        if command == "fit":
            argv += ["--data", str(data)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ") and err.count("\n") == 1
        assert err.count(cfg) == 1 and message in err, err
        assert not (tmp_path / "out").exists()


def test_blank_lines_are_skipped(tmp_path):
    # data and trace files go through one reader, which skips blank lines
    trace = tmp_path / "trace.csv"
    trace.write_text("iter,theta,loglik\n0,0.5,-1.0\n\n1,0.25,-2.0\n\n")
    names, iters, draws, logliks = cli.read_trace_csv(trace)
    assert names == ("theta",) and iters.tolist() == [0, 1]
    assert draws.tolist() == [[0.5], [0.25]] and logliks.tolist() == [-1.0, -2.0]
    data = tmp_path / "obs.csv"
    data.write_text("time,value\n0,0.1\n\n1,0.3\n")
    assert cli.ingest_csv(data).values.tolist() == [0.1, 0.3]


def test_data_file_with_a_byte_order_mark(tmp_path):
    # as Excel writes a UTF-8 CSV
    data = tmp_path / "obs.csv"
    data.write_text("time,value\n0,0.1\n1,0.3\n", encoding="utf-8-sig")
    assert cli.ingest_csv(data).values.tolist() == [0.1, 0.3]


def test_trace_file_with_a_byte_order_mark(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text("iter,theta,loglik\n0,0.5,-1.0\n", encoding="utf-8-sig")
    names, iters, draws, logliks = cli.read_trace_csv(trace)
    assert names == ("theta",) and iters.tolist() == [0] and draws.tolist() == [[0.5]]


def test_prior_midpoint_init_starts_at_the_midpoint(tmp_path):
    # "init": "prior-midpoint" writes the trace of a fit whose params are the
    # midpoint of the prior box, which is not the model's default start
    box = {"theta": [-1.0, 1.5], "sigma": [0.2, 1.3]}
    mid = PriorSpec.from_model(get_model("const-vol-scalar"), box).midpoint(box)
    data = tiny_data(tmp_path / "obs.csv")
    traces = {}
    # a fixed parameter stays at its params value, and its prior box may be
    # improper: only the free ones start at their midpoints
    fixed = {"fixed": ["sigma"], "prior": {"theta": box["theta"]}}
    starts = {
        "init": {"init": "prior-midpoint"},
        "params": {"params": mid},
        "default": {},
        "fixed-0.7": {**fixed, "init": "prior-midpoint", "params": {"sigma": 0.7}},
        "fixed-1.9": {**fixed, "init": "prior-midpoint", "params": {"sigma": 1.9}},
        "fixed-params": {**fixed, "params": {"theta": mid["theta"], "sigma": 1.9}},
    }
    for label, start in starts.items():
        doc = {"model": "const-vol-scalar", "prior": box,
               "sampler": {"m": 2, "n_iter": 20, "n_burn": 4, "seed": 3}, **start}
        cfg = write_config(tmp_path / f"{label}.json", doc)
        out = tmp_path / label
        assert main(["fit", "--config", cfg, "--data", data, "--out", str(out)]) == 0
        traces[label] = (out / "trace.csv").read_bytes()
    assert traces["init"] == traces["params"] != traces["default"]
    assert traces["fixed-1.9"] == traces["fixed-params"] != traces["fixed-0.7"]


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats takes most of the CLI's start-up; only prior recovery needs
    # it, and only run_jobs on several CPUs needs the pool
    src = str(Path(timechange_sv.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import timechange_sv.cli; "
            "print([m in sys.modules for m in sys.argv[2:]])")
    lazy = ["scipy.stats", "multiprocessing", "concurrent.futures"]
    out = subprocess.run([sys.executable, "-c", code, src, *lazy], capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == str([False] * len(lazy))


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
        # a chain's ValidationError is a check of the config, which it names
        label = f"error: {cfg}" if code == 1 else "numerical failure"
        assert err.startswith(f"{label}: chain {first} failed in process ")
        assert err.count("\n") == 1 and "Traceback" not in err
        pid = int(err.split()[-1])
        assert (pid == os.getpid()) == (first % 2 == 0)
        assert out.exists() == (first > 0)  # a failing chain 0 leaves no directory
        if first:
            # as in a serial run, the chains before the failure have their files
            assert sorted(p.name for p in out.iterdir()) == sorted(
                f"{stem}_chain{c}.{ext}" for c in range(first)
                for stem, ext in (("trace", "csv"), ("summary", "csv"), ("acceptance", "json"))
            )


def test_csv_bytes_are_csv_writers(tmp_path, monkeypatch):
    # every CSV file simulate, fit and diagnose write, truth.csv's 5001 rows
    # in two blocks of one % each, has the bytes csv.writer gives the same
    # fields formatted one at a time
    written = []
    write_csv = cli._write_csv

    def recording(path, header, fmt, rows):
        rows = list(rows)
        write_csv(path, header, fmt, rows)
        written.append((Path(path), header, fmt, rows))

    monkeypatch.setattr(cli, "_write_csv", recording)
    doc = {**OU_CONFIG, "simulate": {**OU_CONFIG["simulate"], "n_steps": 5000},
           "sampler": {**OU_CONFIG["sampler"], "chains": 1}}
    cfg = write_config(tmp_path / "config.json", doc)
    sim, fit = tmp_path / "sim", tmp_path / "fit"
    assert main(["simulate", "--config", cfg, "--out", str(sim)]) == 0
    assert main(["fit", "--config", cfg, "--data", str(sim / "obs.csv"), "--out", str(fit)]) == 0
    assert main(["diagnose", "--trace", str(fit / "trace.csv"), "--max-lag", "20",
                 "--out", str(tmp_path / "diag")]) == 0
    assert {p.stem: len(rows) for p, _, _, rows in written} == {
        "obs": 51, "truth": 5001, "trace": 120, "summary": 7, "acf": 7 * 21, "iact": 7,
        "kde": 7 * 256}
    for path, header, fmt, rows in written:
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(header)
            out.writerows([f % v for f, v in zip(fmt.split(","), row)] for row in rows)
        assert path.read_bytes() == expected.read_bytes(), path.name


def test_diagnose_takes_one_fft_per_column(tmp_path, monkeypatch):
    # acf.csv and iact.csv both come from one autocorrelation FFT of each
    # column, and hold acf(column, max_lag) and iact(column)
    draws = np.cumsum(np.random.default_rng(4).normal(size=(150, 3)), axis=0)
    trace = tmp_path / "trace.csv"
    trace.write_text("iter,a,b,c,loglik\n" + "".join(
        f"{i},{a!r},{b!r},{c!r},-1.0\n" for i, (a, b, c) in enumerate(draws.tolist())))
    calls = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda *args: calls.append(args) or rfft(*args))
    diag = tmp_path / "diag"
    assert main(["diagnose", "--trace", str(trace), "--max-lag", "30", "--out", str(diag)]) == 0
    assert len(calls) == 3
    with open(diag / "acf.csv", newline="") as fh:
        assert list(csv.reader(fh))[1:] == [
            [name, str(lag), "%.12g" % r] for name, column in zip("abc", draws.T)
            for lag, r in enumerate(acf(column, 30))]
    with open(diag / "iact.csv", newline="") as fh:
        assert list(csv.reader(fh))[1:] == [
            [name, "%.12g" % iact(column)] for name, column in zip("abc", draws.T)]
