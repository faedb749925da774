"""Tests of the benchmark's own accounting.

    python3 -m pytest bench/test_bench.py -q
"""

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import Ops, check_draws  # noqa: E402
from tracing import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_excludes_nested_children():
    clock = FakeClock()
    mod = SimpleNamespace()

    def leaf(cost):
        clock.now += cost

    def middle():
        clock.now += 1.0
        mod.leaf(2.0)
        mod.leaf(3.0)

    def outer():
        clock.now += 10.0
        mod.middle()
        clock.now += 4.0

    mod.leaf, mod.middle, mod.outer = leaf, middle, outer
    tracer = Tracer(clock=clock)
    for attr in ("leaf", "middle", "outer"):
        assert tracer.wrap(mod, attr, attr)
    mod.outer()
    mod.outer()

    assert tracer.calls("leaf") == 4 and tracer.calls("middle") == 2
    assert tracer.total("outer") == 2 * 20.0
    assert tracer.self_time("outer") == 2 * 14.0
    assert tracer.total("middle") == 2 * 6.0
    assert tracer.self_time("middle") == 2 * 1.0
    assert tracer.self_time("leaf") == tracer.total("leaf") == 2 * 5.0
    tracer.restore()
    assert mod.outer is outer and mod.leaf is leaf


def test_counting_work_is_charged_to_no_span():
    clock = FakeClock()
    mod = SimpleNamespace()

    def leaf():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        mod.leaf()

    def count(tracer, args, kwargs):
        clock.now += 100.0  # expensive bookkeeping after the call
        tracer.counts["leaves"] += 1

    mod.leaf, mod.outer = leaf, outer
    tracer = Tracer(clock=clock)
    tracer.wrap(mod, "leaf", "leaf", after=count)
    tracer.wrap(mod, "outer", "outer")
    mod.outer()
    assert tracer.counts["leaves"] == 1
    assert tracer.self_time("leaf") == 2.0
    assert tracer.self_time("outer") == 1.0
    assert tracer.total("outer") == 103.0


def test_span_name_can_depend_on_arguments_and_survives_exceptions():
    clock = FakeClock()
    mod = SimpleNamespace()

    def kernel(kind):
        clock.now += 1.0
        if kind == "bad":
            raise RuntimeError("boom")

    mod.kernel = kernel
    tracer = Tracer(clock=clock)
    tracer.wrap(mod, "kernel", lambda args, kwargs: f"k.{args[0]}")
    mod.kernel("a")
    try:
        mod.kernel("bad")
    except RuntimeError:
        pass
    assert tracer.calls("k.a") == 1 and tracer.calls("k.bad") == 1
    assert tracer.total("k.bad") == 1.0
    assert not tracer._open


def test_missing_attribute_is_reported_not_wrapped():
    tracer = Tracer()
    assert not tracer.wrap(SimpleNamespace(), "renamed_away", "x")
    assert tracer.calls("x") == 0


BOUNDS = {"a": (0.0, 1.0), "b": (-2.0, 2.0)}


def good_chain():
    draws = np.column_stack((np.linspace(0.1, 0.9, 10), np.linspace(-1.0, 1.0, 10)))
    return draws, np.zeros(10), {"z": 0.9, "a": 0.3, "b": 0.4}


def test_clean_chain_passes():
    draws, logliks, acc = good_chain()
    assert check_draws(("a", "b"), draws, logliks, acc, BOUNDS, 10) == []


def test_nan_draw_fails():
    draws, logliks, acc = good_chain()
    draws[3, 1] = math.nan
    problems = check_draws(("a", "b"), draws, logliks, acc, BOUNDS, 10)
    assert any("non-finite draw" in p for p in problems)
    ops = Ops()
    assert not ops.record("chain", problems)
    assert (ops.attempted, ops.failed) == (1, 1)


def test_draw_outside_prior_box_fails():
    draws, logliks, acc = good_chain()
    draws[5, 0] = 1.5
    problems = check_draws(("a", "b"), draws, logliks, acc, BOUNDS, 10)
    assert problems == ["draw of a outside the prior box (0.0, 1.0)"]


def test_nonfinite_loglik_zero_acceptance_and_short_trace_fail():
    draws, logliks, acc = good_chain()
    logliks[0] = math.inf
    acc["b"] = 0.0
    problems = check_draws(("a", "b"), draws, logliks, acc, BOUNDS, 10)
    assert any("log-likelihood" in p for p in problems)
    assert any("zero acceptance for b" in p for p in problems)
    assert check_draws(("a", "b"), draws[:9], logliks[:9], acc, BOUNDS, 10)


def test_program_fault_gives_an_incorrect_result_with_null_metrics(monkeypatch):
    import run

    def reference_chain_fails(pkg, workload, seed, seconds, trace_on, work, ops, record):
        ops.record("reference chain", ["non-finite draw"])
        raise run.BenchError("the reference chain failed")

    monkeypatch.setattr(run, "run_sampler", reference_chain_fails)
    spec = {"end_to_end": [{"name": "sweep_ms", "unit": "ms"}], "per_layer": []}
    res = run.run_workload(None, spec, "ousv-n100-m4", 1, 1.0, False)
    assert res["correct"] is False
    assert (res["attempted"], res["failed"]) == (1, 1)
    assert res["metrics"] == {"sweep_ms": {"value": None, "unit": "ms"}}
    assert res["record"]["fault"] == "the reference chain failed"



def test_every_listed_layer_metric_is_a_number_when_layers_did_not_run():
    import json

    import run
    from workloads import TBILL_BOX

    record = {}
    accept = {k: 0.5 for k in ("z", "gamma", *TBILL_BOX)}
    ess = {k: 10.0 for k in TBILL_BOX}
    out = run.layer_metrics(Tracer(), {"mcmc.z_paths"}, accept, ess, 0.0, 0.1, record)
    listed = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in listed} == set(out)
    assert all(isinstance(v, float) and math.isfinite(v) for v in out.values())
    assert out["cli.cmd_fit.self_s"] == 0.0
    assert record["layers_missing"] == ["mcmc.z_paths"]
    assert "cli.cmd_fit" in record["layers_not_run"]
