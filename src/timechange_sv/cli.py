"""Configuration, data ingestion, and the simulate/fit/diagnose commands.

All exchange formats are plain CSV plus one JSON config document; outputs
are deterministic functions of (config, seed, input files). Exit codes:
0 success, 1 validation error, 2 numerical failure.

``fit`` runs its chains in parallel, one process per usable CPU: the
command's own process and forked workers. Its files are written only once
every chain has finished, and are byte-identical to a serial run's.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path as FilePath
from typing import Optional

import numpy as np

from .diagnostics import SummaryTable, acf, iact, kde_export, summarize
from .errors import NumericsError, ValidationError
from .mcmc import PriorSpec, SamplerConfig, Trace, is_number, run_chain
from .models import ModelSpec, euler_simulate, get_model
from .paths import RandomStream, TimeGrid

WEEKLY_SPACING = 5.0 / 252.0  # years between successive weekly observations


@dataclass(frozen=True)
class Observations:
    """Sorted (time, value) records; times in years."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.size != v.size:
            raise ValidationError("times and values differ in length")
        if t.size < 2:
            raise ValidationError("need at least two observations")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValidationError("observations contain non-finite entries")
        if not np.all(np.diff(t) > 0):
            raise ValidationError("observation times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __len__(self):
        return self.times.size


def ingest_csv(
    path,
    spacing: Optional[float] = None,
    require_positive: bool = False,
) -> Observations:
    """Read observations from CSV.

    With header ``time,value`` both columns are read; with header ``value``
    a ``spacing`` must be configured and times become 0, spacing, 2*spacing,
    ... Malformed rows are reported with their line numbers.
    """
    path = FilePath(path)
    if not path.exists():
        raise ValidationError(f"data file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip().lower() for h in next(reader)]
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        if header == ["time", "value"]:
            has_time = True
        elif header == ["value"]:
            has_time = False
            if spacing is None:
                raise ValidationError(
                    f"{path}: value-only data needs a configured observation spacing"
                )
        else:
            raise ValidationError(
                f"{path}: expected header 'time,value' or 'value', got {','.join(header)}"
            )
        times, values = [], []
        prev_t = None
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise ValidationError(f"{path}:{lineno}: expected {len(header)} fields")
            try:
                if has_time:
                    t = float(row[0])
                    v = float(row[1])
                else:
                    t = spacing * len(values)
                    v = float(row[0])
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: unparseable row {row!r}") from None
            if prev_t is not None and t <= prev_t:
                raise ValidationError(
                    f"{path}:{lineno}: time {t} not greater than previous {prev_t}"
                )
            if require_positive and v <= 0.0:
                raise ValidationError(
                    f"{path}:{lineno}: value {v} must be positive for this model"
                )
            prev_t = t
            times.append(t)
            values.append(v)
    return Observations(np.asarray(times), np.asarray(values))


def _reject_unknown(section: str, doc: dict, allowed: tuple) -> None:
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ValidationError(f"unknown keys in '{section}': {unknown}")


@dataclass
class RunConfig:
    """One JSON document drives every command; unknown keys are rejected."""

    model: str
    params: dict = field(default_factory=dict)
    fixed: tuple = ()
    prior: dict = field(default_factory=dict)
    sampler: dict = field(default_factory=dict)
    simulate: dict = field(default_factory=dict)
    data_schema: dict = field(default_factory=dict)
    init: str = "config"

    _KEYS = ("model", "params", "fixed", "prior", "sampler", "simulate",
             "data_schema", "init")

    @classmethod
    def load(cls, path) -> "RunConfig":
        path = FilePath(path)
        if not path.exists():
            raise ValidationError(f"config file not found: {path}")
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}: invalid JSON ({exc})") from None
        if not isinstance(doc, dict):
            raise ValidationError(f"{path}: config must be a JSON object")
        unknown = set(doc) - set(cls._KEYS)
        if unknown:
            raise ValidationError(f"{path}: unknown config keys {sorted(unknown)}")
        if not isinstance(doc.get("model"), str):
            raise ValidationError(f"{path}: config needs a 'model' name")
        cfg = cls(**{k: doc[k] for k in doc})
        get_model(cfg.model)  # validates the name
        for key in ("params", "prior", "sampler", "simulate", "data_schema"):
            if not isinstance(getattr(cfg, key), dict):
                raise ValidationError(f"{path}: '{key}' must be a JSON object")
        for key in ("params", "simulate"):
            for name, value in getattr(cfg, key).items():
                whole = key == "simulate" and name in ("n_steps", "thin_stride", "seed")
                if not is_number(value) or (whole and not isinstance(value, int)):
                    kind = "an integer" if whole else "a number"
                    raise ValidationError(
                        f"{path}: '{key}' value for {name!r} must be {kind}, got {value!r}"
                    )
        fixed = cfg.fixed
        if not (isinstance(fixed, (list, tuple)) and all(isinstance(p, str) for p in fixed)):
            raise ValidationError(f"{path}: 'fixed' must be a list of parameter names")
        cfg.fixed = tuple(fixed)
        for name, bounds in cfg.prior.items():
            if not (isinstance(bounds, list) and len(bounds) == 2
                    and all(is_number(b) for b in bounds)):
                raise ValidationError(
                    f"{path}: prior for {name!r} must be [lo, hi], got {bounds!r}"
                )
        if cfg.init not in ("config", "prior-midpoint"):
            raise ValidationError("init must be 'config' or 'prior-midpoint'")
        return cfg

    def model_spec(self) -> ModelSpec:
        return get_model(self.model)

    def sampler_config(self) -> SamplerConfig:
        s = dict(self.sampler)
        if "m" not in s or "n_iter" not in s:
            raise ValidationError("sampler config needs at least 'm' and 'n_iter'")
        if "fixed" in s:
            raise ValidationError("'fixed' belongs at the top level of the config, not in 'sampler'")
        s["fixed"] = self.fixed
        try:
            s.setdefault("n_burn", s["n_iter"] // 5)
            return SamplerConfig(**s)
        except TypeError as exc:
            raise ValidationError(f"bad sampler config: {exc}") from None

    def prior_spec(self) -> PriorSpec:
        overrides = {k: tuple(v) for k, v in self.prior.items()}
        return PriorSpec.from_model(self.model_spec(), overrides or None)


def write_trace_csv(path, trace: Trace) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", *trace.param_names, "loglik"])
        for i in range(trace.n_rows):
            writer.writerow(
                [int(trace.iters[i])]
                + [f"{v:.12g}" for v in trace.draws[i]]
                + [f"{trace.logliks[i]:.12g}"]
            )


def read_trace_csv(path):
    """Trace file back as (param_names, iters, draws, logliks)."""
    path = FilePath(path)
    if not path.exists():
        raise ValidationError(f"trace file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "iter" or header[-1] != "loglik" or len(header) < 3:
            raise ValidationError(f"{path}: malformed trace header")
        names = tuple(header[1:-1])
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValidationError(f"{path}:{lineno}: expected {len(header)} fields")
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: unparseable row") from None
    if not rows:
        raise ValidationError(f"{path}: trace has no draws")
    arr = np.asarray(rows)
    return names, arr[:, 0].astype(int), arr[:, 1:-1], arr[:, -1]


def cmd_simulate(config: RunConfig, out_dir) -> dict:
    """Simulate a dataset; writes obs.csv, truth.csv and truth_params.json.

    truth.csv holds the full fine-grid skeleton (time, x, alpha) on the
    model's working coordinate; obs.csv holds the thinned observations on
    the raw observation scale.
    """
    sim = dict(config.simulate)
    _reject_unknown("simulate", sim, ("delta", "n_steps", "thin_stride", "seed", "x0"))
    model = config.model_spec()
    delta = float(sim.get("delta", 0.001))
    n_steps = int(sim.get("n_steps", 500_000))
    stride = int(sim.get("thin_stride", 1000))
    seed = int(sim.get("seed", 0))
    x0 = float(sim.get("x0", 0.0))
    if not (delta > 0 and 1 <= stride <= n_steps):  # fit needs two observations
        raise ValidationError(f"simulate needs delta > 0 and 1 <= thin_stride <= n_steps; "
                              f"got delta={delta}, n_steps={n_steps}, thin_stride={stride}")
    params = model.make_params(config.params)
    params.validate()
    alpha0 = params["alpha0"] if "alpha0" in params else 0.0

    grid = TimeGrid(delta * np.arange(n_steps + 1))
    x_path, a_path = euler_simulate(model, params, x0, alpha0, grid, RandomStream(seed))

    out = FilePath(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    obs_t = grid.times[::stride]
    obs_x = x_path.values[::stride]
    obs_v = model.obs_transform_inv(obs_x) if model.obs_transform_inv else obs_x
    obs_file = out / "obs.csv"
    with open(obs_file, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "value"])
        writer.writerows([f"{t:.12g}", f"{v:.12g}"] for t, v in zip(obs_t.tolist(), obs_v.tolist()))

    truth_file = out / "truth.csv"
    with open(truth_file, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "x", "alpha"])
        rows = zip(grid.times.tolist(), x_path.values.tolist(), a_path.values.tolist())
        writer.writerows([f"{t:.12g}", f"{xv:.12g}", f"{av:.12g}"] for t, xv, av in rows)

    params_file = out / "truth_params.json"
    with open(params_file, "w") as fh:
        json.dump(
            {"model": model.name, "params": params.as_dict(),
             "delta": delta, "n_steps": n_steps, "thin_stride": stride, "seed": seed},
            fh, indent=2, sort_keys=True,
        )
    return {"obs": obs_file, "truth": truth_file, "params": params_file,
            "n_obs": obs_t.size}


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_pool(n_workers: int):
    """A pool of ``n_workers`` forked processes, or None where the
    platform cannot fork.

    Fork, not spawn: a spawned worker re-imports numpy and this package,
    which on 2 CPUs took back most of the gain of a second process. The
    pool forks all its workers at the first submit, before it starts its
    own manager thread; the only other threads then are OpenBLAS's idle
    workers, which OpenBLAS shuts down before ``fork`` and restarts when
    next needed.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        return None
    return ProcessPoolExecutor(n_workers, mp_context=context)


def _fit_chain(config: RunConfig, data: Observations, chain: int) -> Trace:
    """Chain ``chain`` of the fit, from the picklable config alone (the
    model's functions cannot be pickled); its seed is ``seed + chain``."""
    model = config.model_spec()
    sampler = config.sampler_config()
    if sampler.chains > 1:
        sampler = SamplerConfig(**{**sampler.__dict__, "seed": sampler.seed + chain, "chains": 1})
    init = "prior-midpoint" if config.init == "prior-midpoint" else (config.params or None)
    return run_chain(sampler, data, model, config.prior_spec(), init)


def _run_chains(config: RunConfig, data: Observations, n_chains: int) -> list:
    """The trace of each chain, or the exception it raised, in chain order.

    With P = min(n_chains, usable CPUs) processes, this process runs the
    chains c with c % P == 0 and P - 1 forked workers run the rest. This
    process stops at its own first failure; its later chains are left None,
    behind a failure that comes first in chain order.
    """
    n_proc = min(n_chains, _usable_cpus())
    pool = _fork_pool(n_proc - 1) if n_proc > 1 else None
    if pool is None:
        n_proc = 1
    outcomes: list = [None] * n_chains
    with pool or nullcontext():
        futures = {c: pool.submit(_fit_chain, config, data, c)
                   for c in range(n_chains) if c % n_proc}
        for c in range(0, n_chains, n_proc):
            try:
                outcomes[c] = _fit_chain(config, data, c)
            except Exception as exc:
                outcomes[c] = exc
                break
        for c, future in futures.items():
            try:
                outcomes[c] = future.result()
            except Exception as exc:
                outcomes[c] = exc
    return outcomes


def cmd_fit(config: RunConfig, data_path, out_dir) -> dict:
    """Fit the configured model; writes trace/summary CSVs and an
    acceptance-rate JSON per chain.

    Chains run in parallel, one process per usable CPU (this one and forked
    workers). The files are written in chain order once every chain has
    finished, byte-identical to a serial run's. A failing chain raises its
    error after the files of the chains before it, as a serial run would;
    the lowest-numbered failure wins.
    """
    model = config.model_spec()
    _reject_unknown("data_schema", config.data_schema, ("spacing",))
    spacing = config.data_schema.get("spacing")
    data = ingest_csv(
        data_path,
        spacing=float(spacing) if spacing is not None else None,
        require_positive=model.obs_transform is not None,
    )
    n_chains = config.sampler_config().chains
    config.prior_spec()  # a bad sampler or prior section fails before any output

    out = FilePath(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    produced = {}
    for chain, trace in enumerate(_run_chains(config, data, n_chains)):
        if isinstance(trace, Exception):
            raise trace
        suffix = "" if n_chains == 1 else f"_chain{chain}"
        trace_file = out / f"trace{suffix}.csv"
        write_trace_csv(trace_file, trace)

        table = summarize(trace)
        summary_file = out / f"summary{suffix}.csv"
        with open(summary_file, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["parameter", *SummaryTable.columns])
            for row in table.as_rows():
                writer.writerow([row[0]] + [f"{v:.12g}" for v in row[1:]])

        accept_file = out / f"acceptance{suffix}.json"
        with open(accept_file, "w") as fh:
            json.dump(trace.acceptance, fh, indent=2, sort_keys=True)
        produced[f"trace{suffix}"] = trace_file
        produced[f"summary{suffix}"] = summary_file
        produced[f"acceptance{suffix}"] = accept_file
    return produced


def cmd_diagnose(trace_path, max_lag: int, out_dir) -> dict:
    """Per-parameter autocorrelations, mixing times and kernel densities."""
    names, _iters, draws, _loglik = read_trace_csv(trace_path)
    n = draws.shape[0]
    if max_lag < 1 or max_lag >= n:
        raise ValidationError(f"max_lag must be in [1, {n - 1}] for {n} draws")
    out = FilePath(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    acf_file = out / "acf.csv"
    with open(acf_file, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["parameter", "lag", "acf"])
        for j, name in enumerate(names):
            rho = acf(draws[:, j], max_lag)
            for lag, r in enumerate(rho):
                writer.writerow([name, lag, f"{r:.12g}"])

    iact_file = out / "iact.csv"
    with open(iact_file, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["parameter", "iact"])
        for j, name in enumerate(names):
            writer.writerow([name, f"{iact(draws[:, j]):.12g}"])

    kde_file = out / "kde.csv"
    with open(kde_file, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["parameter", "x", "density"])
        for j, name in enumerate(names):
            for x, d in kde_export(draws[:, j]):
                writer.writerow([name, f"{x:.12g}", f"{d:.12g}"])
    return {"acf": acf_file, "iact": iact_file, "kde": kde_file}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="timechange-sv",
        description="Bayesian stochastic-volatility estimation via time-change MCMC",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a dataset from a model")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)

    p_fit = sub.add_parser("fit", help="sample the posterior on a dataset")
    p_fit.add_argument("--config", required=True)
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--out", required=True)

    p_diag = sub.add_parser("diagnose", help="mixing diagnostics for a trace")
    p_diag.add_argument("--trace", required=True)
    p_diag.add_argument("--max-lag", type=int, default=200)
    p_diag.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            out = cmd_simulate(RunConfig.load(args.config), args.out)
            print(f"wrote {out['n_obs']} observations to {out['obs']}")
        elif args.command == "fit":
            out = cmd_fit(RunConfig.load(args.config), args.data, args.out)
            print("wrote " + ", ".join(str(v) for v in out.values()))
        else:
            out = cmd_diagnose(args.trace, args.max_lag, args.out)
            print("wrote " + ", ".join(str(v) for v in out.values()))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
