#!/usr/bin/env python3
"""Benchmark of timechange_sv: cost per sweep and ESS per second on two
sampler workloads, and the simulate -> fit -> diagnose CLI pipeline.

    python3 bench/run.py --workload tbill-n500-m16 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 1

With --trace 0 the last line of standard output is one JSON object holding
every end-to-end metric of BENCHMARK.json; with --trace 1 it holds every
per-layer metric, from spans the benchmark wraps around the package's
module attributes (see tracing.py). The line before it records the
environment, the seed and sha256 digests of the draws. Each workload
checks the program's outputs and counts ops attempted and failed; one op is
one chain, one simulation, one diagnosis, one set-up or one CLI command.
NOTES.md explains the metrics and records the ESS noise floor.
"""

import os

# pinned before numpy loads; child processes inherit them
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer, install_layers  # noqa: E402
from workloads import CLI, REFERENCE_SEED, SAMPLERS, WORKLOADS, cli_config, simulate_data  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# one in-process diagnosis takes 10-50 ms and its time swings by 2x from one
# call to the next, so one sample averages the diagnoses of this many seconds
DIAGNOSE_SAMPLE_S = 0.5
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def load_package():
    init = SRC / "timechange_sv" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"package source not found: {init}")
    sys.path.insert(0, str(SRC))
    import timechange_sv
    from timechange_sv import cli, diagnostics, mcmc, models, paths  # noqa: F401

    if Path(timechange_sv.__file__).resolve() != init.resolve():
        raise BenchError(f"imported {timechange_sv.__file__}, not {init}")
    return timechange_sv


def summarize(samples: dict, record: dict) -> dict:
    """The reported value of each timing: the mean of its samples, which
    all time the same work; for setup_s the median of the probes. The host's
    speed flips between levels about 1.5x apart, and the median of a few
    samples jumps between them where the mean moves with the share of slow
    samples. The record keeps every timing's sample count, mean, median,
    minimum and maximum."""
    samples = {k: [x for x in v if x is not None] for k, v in samples.items()}
    empty = [k for k, v in samples.items() if not v]
    if empty:
        raise BenchError(f"no measurement of {empty}")
    record["samples"] = {
        k: {"n": len(v), "mean": statistics.fmean(v), "median": statistics.median(v),
            "min": min(v), "max": max(v)}
        for k, v in samples.items()
    }
    return {k: statistics.median(v) if k == "setup_s" else statistics.fmean(v)
            for k, v in samples.items()}


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def min_ess(pkg, draws_per_chain, names) -> tuple[float, dict]:
    """ESS per parameter summed over chains (draws / IACT each), and its minimum."""
    ess = {
        name: sum(d.shape[0] / pkg.diagnostics.iact(d[:, j]) for d in draws_per_chain)
        for j, name in enumerate(names)
    }
    return min(ess.values()), ess


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def time_setups(workload, data_file, ops) -> list[float]:
    """Wall times from process start to "ready" of the set-up probe."""
    cmd = [sys.executable, str(HERE / "setup_child.py"), str(SRC), workload]
    if data_file is not None:
        cmd.append(str(data_file))
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, env=child_env()) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            try:
                _rest, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                _rest, err = proc.communicate()
        ok = line.strip() == "ready" and proc.returncode == 0
        if ops.record("setup", [] if ok else [f"set-up probe failed: {err.strip()[-500:]}"]):
            out.append(elapsed)
    return out


# ---------------------------------------------------------------------------
# Sampler workloads


def sampler_chain(pkg, spec, model, prior, data, seed, n_iter, n_burn, timer, ops, label):
    """Runs and checks one chain; returns (trace, wall_s, sweeps_s) or None."""
    cfg = pkg.mcmc.SamplerConfig(
        m=spec["m"], n_iter=n_iter, n_burn=n_burn, seed=seed, validate_every=n_iter,
    )
    init_before = timer.total("mcmc.init_state")
    t0 = time.perf_counter()
    try:
        trace = pkg.mcmc.run_chain(cfg, data, model, prior)
    except Exception as exc:  # a chain that raises is a failed op
        ops.record(label, [f"{type(exc).__name__}: {exc}"])
        return None
    wall = time.perf_counter() - t0
    init = timer.total("mcmc.init_state") - init_before
    problems = checks.check_draws(trace.param_names, trace.draws, trace.logliks,
                                  trace.acceptance, prior.bounds, n_iter - n_burn)
    if not ops.record(label, problems):
        return None
    return trace, wall, wall - init


def diagnose_sample(pkg, trace, ops):
    """What the diagnose command computes, on one chain's draws, repeated
    for at least DIAGNOSE_SAMPLE_S; returns the mean wall time of one
    diagnosis, or None when one failed."""
    max_lag, points = CLI["max_lag"], CLI["kde_points"]
    problems, n = [], 0
    t0 = time.perf_counter()
    try:
        while not problems and (n == 0 or time.perf_counter() - t0 < DIAGNOSE_SAMPLE_S):
            for col in trace.draws.T:
                rho = pkg.diagnostics.acf(col, max_lag)
                tau = pkg.diagnostics.iact(col)
                kde = pkg.diagnostics.kde_export(col, points)
                if not (np.all(np.isfinite(rho)) and tau > 0.0
                        and kde.shape == (points, 2) and np.all(np.isfinite(kde))):
                    problems.append("non-finite or malformed diagnostics")
            n += 1
    except Exception as exc:  # a diagnosis that raises is a failed op
        problems.append(f"{type(exc).__name__}: {exc}")
    elapsed = (time.perf_counter() - t0) / n if n else None
    return elapsed if ops.record("diagnose", problems) else None


def make_data(pkg, spec, seed, ops):
    """Seeded observations, and the wall time of simulating them."""
    t0 = time.perf_counter()
    try:
        times, values = simulate_data(pkg, spec, seed)
    except Exception as exc:  # includes data the workload rejects
        ops.record("simulate", [f"{type(exc).__name__}: {exc}"])
        raise BenchError(f"cannot make inputs at seed {seed}: {exc}") from exc
    elapsed = time.perf_counter() - t0
    ops.record("simulate", [])
    return SimpleNamespace(times=times, values=values), elapsed


def run_sampler(pkg, workload, seed, seconds, trace_on, work, ops, record):
    spec = SAMPLERS[workload]
    model = pkg.models.get_model(spec["model"])
    prior = pkg.mcmc.PriorSpec.from_model(model, spec["box"])
    if trace_on:
        return trace_sampler(pkg, spec, model, prior, seed, seconds, ops, record)

    ref_data, _ = make_data(pkg, spec, REFERENCE_SEED, ops)
    data, t_sim = make_data(pkg, spec, seed, ops)
    data_file = work / "data.npz"
    np.savez(data_file, times=data.times, values=data.values)
    samples = {"simulate_s": [t_sim], "sweep_ms": [], "fit_s": [], "diagnose_s": [],
               "setup_s": time_setups(workload, data_file, ops)}

    timer = Tracer()
    timer.wrap(pkg.mcmc, "init_state", "mcmc.init_state")

    def reference_chain():
        out = sampler_chain(pkg, spec, model, prior, ref_data, REFERENCE_SEED,
                            spec["ref_iter"], spec["ref_burn"], timer, ops, "reference chain")
        if out is None:
            raise BenchError("the reference chain failed")
        return out

    try:
        # the reference chain runs first and last, so that ess_per_s, its
        # mean wall time, sees the host at both ends of the run
        t_start = time.perf_counter()
        ref = reference_chain()
        k = 0
        while k == 0 or time.perf_counter() - t_start < seconds - ref[1]:
            # data set k and chain k both come from seed + k: the cost of a
            # sweep depends on the data, and the means average over them
            if k > 0:
                data, t_sim = make_data(pkg, spec, seed + k, ops)
                samples["simulate_s"].append(t_sim)
            out = sampler_chain(pkg, spec, model, prior, data, seed + k, spec["n_iter"],
                                spec["n_burn"], timer, ops, "chain")
            if out is not None:
                if k == 0:
                    record["digest_at_seed"] = digest(out[0].draws, out[0].logliks)
                samples["fit_s"].append(out[1])
                samples["sweep_ms"].append(1e3 * out[2] / spec["n_iter"])
            # diagnoses are spread between the chains, so that their mean
            # sees the same stretches of host speed as the chains'
            samples["diagnose_s"].append(diagnose_sample(pkg, ref[0], ops))
            k += 1
        last = reference_chain()
    finally:
        timer.restore()
    record["digest_reference"] = digest(ref[0].draws, ref[0].logliks)
    if digest(last[0].draws, last[0].logliks) != record["digest_reference"]:
        ops.record("reference chain", ["a repeat gave different draws"])
    values = summarize(samples, record)
    ess, record["reference_ess"] = min_ess(pkg, [ref[0].draws], ref[0].param_names)
    record["reference_chain_s"] = [ref[1], last[1]]
    values["ess_per_s"] = ess / statistics.fmean(record["reference_chain_s"])
    return values


def trace_sampler(pkg, spec, model, prior, seed, seconds, ops, record):
    """Alternates an untraced and a traced chain at the seed, same draws."""
    tracer = Tracer()
    missing = install_layers(tracer, pkg)
    try:
        data, _ = make_data(pkg, spec, seed, ops)
    finally:
        tracer.restore()
    n_iter, n_burn = spec["ref_iter"], spec["ref_burn"]
    plain, traced, first = [], [], None
    t_start = time.perf_counter()
    while first is None or time.perf_counter() - t_start < seconds:
        timer = Tracer()
        timer.wrap(pkg.mcmc, "init_state", "mcmc.init_state")
        try:
            base = sampler_chain(pkg, spec, model, prior, data, seed, n_iter, n_burn,
                                 timer, ops, "chain")
        finally:
            timer.restore()
        install_layers(tracer, pkg)
        try:
            out = sampler_chain(pkg, spec, model, prior, data, seed, n_iter, n_burn,
                                tracer, ops, "traced chain")
        finally:
            tracer.restore()
        if base is None or out is None:
            raise BenchError("a chain at the seed failed")
        same = digest(base[0].draws, base[0].logliks) == digest(out[0].draws, out[0].logliks)
        ops.record("tracing left the draws unchanged",
                   [] if same else ["traced and untraced draws differ"])
        plain.append(base[2] / n_iter)
        traced.append(out[2] / n_iter)
        first = first or out[0]
    install_layers(tracer, pkg)
    try:
        diagnose_sample(pkg, first, ops)
    finally:
        tracer.restore()
    record["digest_at_seed"] = digest(first.draws, first.logliks)
    _ess, ess = min_ess(pkg, [first.draws], first.param_names)
    return layer_metrics(tracer, missing, first.acceptance, ess, 0.0,
                         statistics.median(traced) / statistics.median(plain) - 1.0, record)


# ---------------------------------------------------------------------------
# CLI workload


def cli_command(argv, work, stats_file=None):
    """Runs one CLI command as a user would; returns (wall_s, problems)."""
    if stats_file is None:
        cmd = [sys.executable, "-m", "timechange_sv.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(SRC), str(stats_file), *argv]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=work, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, [f"timed out after {CHILD_TIMEOUT_S} s"]
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        return wall, [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    return wall, []


PIPELINE = ("simulate", "fit", "diagnose")


def cli_pipeline(pkg, seed, run_dir, ops, traced=False, only=PIPELINE):
    """simulate -> fit -> diagnose at ``seed`` (or the commands in ``only``,
    on the outputs an earlier call left in ``run_dir``); returns their wall
    times and the fit directory, or None when a command failed. Traced
    commands leave their spans in ``spans-<command>.json``."""
    run_dir.mkdir(parents=True, exist_ok=True)
    cfg_file = run_dir / "config.json"
    cfg_file.write_text(json.dumps(cli_config(seed)))
    sim, fit, diag = run_dir / "sim", run_dir / "fit", run_dir / "diag"
    box = CLI["box"]
    n_rows = CLI["n_iter"] - CLI["n_burn"]
    steps = [
        ("simulate", ["simulate", "--config", str(cfg_file), "--out", str(sim)],
         lambda: checks.check_simulate(sim, CLI["n_steps"], CLI["thin_stride"])),
        ("fit", ["fit", "--config", str(cfg_file), "--data", str(sim / "obs.csv"),
                 "--out", str(fit)],
         lambda: checks.check_fit(fit, pkg.cli.read_trace_csv, CLI["chains"], n_rows, box)),
        ("diagnose", ["diagnose", "--trace", str(fit / "trace_chain0.csv"),
                      "--max-lag", str(CLI["max_lag"]), "--out", str(diag)],
         lambda: checks.check_diagnose(diag, len(box), CLI["max_lag"], CLI["kde_points"])),
    ]
    walls = {}
    for step, argv, check in steps:
        if step not in only:
            continue
        stats_file = run_dir / f"spans-{step}.json" if traced else None
        wall, problems = cli_command(argv, run_dir, stats_file)
        if not problems:
            try:
                problems = check()
            except (OSError, ValueError) as exc:  # missing or unparseable output
                problems = [f"{type(exc).__name__}: {exc}"]
        if not ops.record(step, problems):
            return None
        walls[step] = wall
    return walls, fit


def fit_draws(pkg, fit_dir):
    """(names, per-chain draws, sha256 of the trace files) of a fit."""
    names, draws, h = None, [], hashlib.sha256()
    for c in range(CLI["chains"]):
        path = fit_dir / f"trace_chain{c}.csv"
        h.update(path.read_bytes())
        names, _iters, d, _ll = pkg.cli.read_trace_csv(path)
        draws.append(d)
    return names, draws, h.hexdigest()


def run_cli(pkg, seed, seconds, trace_on, work, ops, record):
    sweeps = CLI["chains"] * CLI["n_iter"]
    if trace_on:
        return trace_cli(pkg, seed, work, ops, record)
    samples = {"setup_s": time_setups("cli-tbill", None, ops)}
    sims, ref_fits, ref_diags, ref_digest = [], [], [], None
    t_start = time.perf_counter()
    ref_dir = work / "reference"
    if cli_pipeline(pkg, REFERENCE_SEED, ref_dir, ops, only=("simulate",)) is None:
        raise BenchError("the reference simulation failed")
    # the whole pipeline at the seed, checked; its fit and diagnosis are
    # timed in the record only (a seeded fit's cost moves by 20 % with its data)
    out = cli_pipeline(pkg, seed, work / "seeded-0", ops)
    if out is not None:
        sims.append(out[0]["simulate"])
        record["seeded_fit_s"] = out[0]["fit"]
        record["seeded_diagnose_s"] = out[0]["diagnose"]
        record["digest_at_seed"] = fit_draws(pkg, out[1])[2]
    k = 1
    while k == 1 or time.perf_counter() - t_start < seconds:
        # the reference fit and its diagnosis are the same work every time:
        # their repeats time fit and diagnose, and must give identical draws
        out = cli_pipeline(pkg, REFERENCE_SEED, ref_dir, ops, only=("fit", "diagnose"))
        if out is not None:
            got = fit_draws(pkg, out[1])
            ref_digest = ref_digest or got[2]
            if got[2] == ref_digest:
                names, draws, _h = got
                ref_fits.append(out[0]["fit"])
                ref_diags.append(out[0]["diagnose"])
            else:
                ops.record("reference fit", ["a repeat gave different draws"])
        out = cli_pipeline(pkg, seed + k, work / f"seeded-{k}", ops, only=("simulate",))
        if out is not None:
            sims.append(out[0]["simulate"])
        k += 1
    if not ref_fits:
        raise BenchError("no reference fit succeeded")
    samples["simulate_s"] = sims
    samples["diagnose_s"] = ref_diags
    samples["fit_s"] = ref_fits
    samples["sweep_ms"] = [1e3 * wall / sweeps for wall in ref_fits]
    values = summarize(samples, record)
    ess, record["reference_ess"] = min_ess(pkg, draws, names)
    record["digest_reference"] = ref_digest
    values["ess_per_s"] = ess / values["fit_s"]
    return values


def trace_cli(pkg, seed, work, ops, record):
    """One untraced and one traced pipeline at the seed."""
    plain = cli_pipeline(pkg, seed, work / "plain", ops)
    traced = cli_pipeline(pkg, seed, work / "traced", ops, traced=True)
    if plain is None or traced is None:
        raise BenchError("a pipeline at the seed failed")
    tracer, missing, imports = Tracer(), set(), []
    for step in PIPELINE:
        dump = json.loads((work / "traced" / f"spans-{step}.json").read_text())
        tracer.merge(dump["stats"], dump["counts"])
        missing.update(dump["missing"])
        imports.append(dump["import_s"])
    names, draws, record["digest_at_seed"] = fit_draws(pkg, traced[1])
    if record["digest_at_seed"] != fit_draws(pkg, plain[1])[2]:
        ops.record("tracing left the draws unchanged", ["traced and untraced traces differ"])
    _ess, ess = min_ess(pkg, draws, names)
    rates = [json.loads((traced[1] / f"acceptance_chain{c}.json").read_text())
             for c in range(CLI["chains"])]
    accept = {k: statistics.fmean(r[k] for r in rates) for k in rates[0]}
    overhead = traced[0]["fit"] / plain[0]["fit"] - 1.0
    return layer_metrics(tracer, missing, accept, ess, statistics.fmean(imports), overhead,
                         record)


# ---------------------------------------------------------------------------
# Per-layer metrics


def layer_metrics(tracer, missing, accept, ess, import_s, overhead, record) -> dict:
    """Per-layer values by metric name, each a number. A layer that did not
    run on the workload (the CLI commands on a sampler workload) made no
    calls and spent no time, so its values are 0; so are those of a layer
    whose attribute no longer exists. The record names both kinds."""
    sweeps = tracer.calls("mcmc.sweep")
    counts = tracer.counts
    out = {}

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    iq, rr = "likelihood.interval_quantities", "timechange.refine_rows"
    kernels = [f"mcmc.{k}" for k in ("z_paths", "gamma_anchored", "gamma_terminal",
                                     "timescale_param", "drift_param", "sweep")]
    out[f"{iq}.calls_per_sweep"] = ratio(tracer.calls(iq), sweeps)
    out[f"{iq}.self_ms_per_sweep"] = ratio(tracer.self_time(iq), sweeps, 1e3)
    out[f"{iq}.ns_per_knot"] = ratio(tracer.self_time(iq), counts[f"{iq}.knots"], 1e9)
    out[f"{rr}.calls_per_sweep"] = ratio(tracer.calls(rr), sweeps)
    out[f"{rr}.self_ms_per_sweep"] = ratio(tracer.self_time(rr), sweeps, 1e3)
    out[f"{rr}.ns_per_time"] = ratio(tracer.self_time(rr), counts[f"{rr}.times"], 1e9)
    out[f"{rr}.fresh_per_sweep"] = ratio(counts[f"{rr}.fresh"], sweeps)
    for name in kernels:
        out[f"{name}.self_ms_per_sweep"] = ratio(tracer.self_time(name), sweeps, 1e3)
    for kernel, rate in accept.items():
        out[f"mcmc.accept.{kernel}"] = rate
    for param, value in ess.items():
        out[f"mcmc.ess.{param}"] = value
    out["mcmc.init_state.ms"] = ratio(tracer.total("mcmc.init_state"),
                                      tracer.calls("mcmc.init_state"), 1e3)
    for kind in ("normals", "uniforms"):
        out[f"paths.rng.{kind}_per_sweep"] = ratio(counts[f"paths.rng.{kind}"], sweeps)
    out["models.euler_simulate.ns_per_step"] = ratio(
        tracer.total("models.euler_simulate"), counts["models.euler_simulate.steps"], 1e9)
    out["cli.cmd_simulate.write_s"] = ratio(tracer.self_time("cli.cmd_simulate"),
                                            tracer.calls("cli.cmd_simulate"))
    out["mcmc.run_chain.s_per_chain"] = ratio(tracer.total("mcmc.run_chain"),
                                              tracer.calls("mcmc.run_chain"))
    for cmd in ("cli.cmd_fit", "cli.cmd_diagnose"):
        out[f"{cmd}.self_s"] = ratio(tracer.self_time(cmd), tracer.calls(cmd))
    for fn in ("diagnostics.iact", "diagnostics.kde_export"):
        out[f"{fn}.ms"] = ratio(tracer.total(fn), tracer.calls(fn), 1e3)
    out["cli.import_s"] = import_s
    out["trace.overhead_share"] = overhead
    spans = [iq, rr, *kernels, "mcmc.init_state", "mcmc.run_chain", "models.euler_simulate",
             "cli.cmd_simulate", "cli.cmd_fit", "cli.cmd_diagnose",
             "diagnostics.iact", "diagnostics.kde_export"]
    record["layers_missing"] = sorted(missing)
    record["layers_not_run"] = [s for s in spans if s not in missing and not tracer.calls(s)]
    return out


# ---------------------------------------------------------------------------


def environment(seed) -> dict:
    import scipy

    commit = None
    if (ROOT / ".git").exists():  # a checkout without git history has no commit
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "commit": commit, "seed": seed, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_workload(pkg, spec_doc, workload, seed, seconds, trace_on) -> dict:
    """One workload's result. When the program fails so that a metric
    cannot be measured (a failed reference chain or pipeline, no successful
    sample) the result is still given: incorrect, with the ops counted so
    far and null metrics."""
    ops = checks.Ops()
    record = {"workload": workload, "trace": int(trace_on)}
    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        if workload == "cli-tbill":
            values = run_cli(pkg, seed, seconds, trace_on, work, ops, record)
        else:
            values = run_sampler(pkg, workload, seed, seconds, trace_on, work, ops, record)
    except BenchError as exc:
        values, fault = {}, str(exc)
    else:
        fault = None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wanted = spec_doc["per_layer" if trace_on else "end_to_end"]
    listed = {m["name"] for m in wanted}
    # the parameters of a model no gated workload runs (ousv-n100-m4's)
    record["unlisted_metrics"] = {k: v for k, v in values.items() if k not in listed}
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted}
    if not trace_on and fault is None and any(v["value"] is None for v in metrics.values()):
        fault = "an end-to-end metric has no measurement"
    record["fault"] = fault
    record["ops_failed_reasons"] = ops.reasons
    return {"record": record, "correct": fault is None and ops.failed == 0,
            "attempted": ops.attempted, "failed": ops.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec_doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        pkg = load_package()
        env = environment(args.seed)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = []
        for name in names:
            res = run_workload(pkg, spec_doc, name, args.seed, args.seconds, bool(args.trace))
            res["record"]["env"] = env
            results.append(res)
    except (BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for res in results:
        rec = res["record"]
        print(f"== {rec['workload']}  ops {res['attempted']}  ops_failed {res['failed']}")
        if rec["fault"]:
            print(f"   NO RESULT {rec['fault']}")
        for reason in rec["ops_failed_reasons"]:
            print(f"   FAILED {reason}")
        for name, m in res["metrics"].items():
            value = "null" if m["value"] is None else f"{m['value']:.6g}"
            print(f"   {name:<52} {value:>14} {m['unit']}")
        print(json.dumps({"record": rec}))
    if len(results) == 1:
        final = {k: results[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['record']['workload']}/{k}": v
                        for r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
