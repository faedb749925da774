"""Configuration, data ingestion, and the simulate/fit/diagnose commands.

All exchange formats are plain CSV plus one JSON config document; outputs
are deterministic functions of (config, seed, input files). Exit codes:
0 success, 1 validation or file-system error, 2 numerical failure.

``fit`` runs its chains in parallel, one process per usable CPU: the
command's own process and forked workers. Its files are written only once
every chain has finished, and are byte-identical to a serial run's.
"""

from __future__ import annotations

import argparse
import csv
import errno
import itertools
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path as FilePath
from typing import Optional

import numpy as np

from .diagnostics import SUMMARY_COLUMNS, _iact, acf, kde_export, summarize
from .errors import NumericsError, ValidationError, allocating, is_integer, is_number
from .mcmc import PriorSpec, SamplerConfig, Trace, run_chain, run_jobs
from .models import ModelSpec, euler_simulate, get_model
from .paths import Path, RandomStream, TimeGrid


def _read_csv(path: FilePath, what: str):
    """Yield the header of a CSV file of numbers, then ``(line, floats)`` per
    nonblank row. A missing or empty file raises ``ValidationError``, and so
    does a row of the wrong width or with an unparseable or non-finite field,
    as ``<file>:<line>:``."""
    if not path.exists():
        raise ValidationError(f"{what} file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{path}: empty file")
        yield header
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise ValidationError(f"{path}:{lineno}: expected {len(header)} fields")
            try:
                floats = [float(v) for v in row]
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: unparseable row {row!r}") from None
            if not all(map(math.isfinite, floats)):
                raise ValidationError(f"{path}:{lineno}: non-finite entry in {row!r}")
            yield lineno, floats


def ingest_csv(path, spacing: Optional[float] = None, require_positive: bool = False) -> Path:
    """Read observations from CSV as a ``Path`` of at least two points.

    With header ``time,value`` both columns are read; with header ``value``
    a ``spacing`` must be configured and times become 0, spacing, 2*spacing,
    ... Malformed rows, non-finite entries among them, are reported with
    their line numbers.
    """
    path = FilePath(path)
    rows = _read_csv(path, "data")
    header = [h.strip().lower() for h in next(rows)]
    if header not in (["time", "value"], ["value"]):
        raise ValidationError(
            f"{path}: expected header 'time,value' or 'value', got {','.join(header)}")
    if header == ["value"] and spacing is None:
        raise ValidationError(f"{path}: value-only data needs a configured observation spacing")
    times, values = [], []
    for lineno, row in rows:
        t, v = row if len(row) == 2 else (spacing * len(values), row[0])
        if not math.isfinite(t):
            raise ValidationError(f"{path}:{lineno}: time {t} is not finite")
        if times and t <= times[-1]:
            raise ValidationError(f"{path}:{lineno}: time {t} not greater than previous {times[-1]}")
        if require_positive and v <= 0.0:
            raise ValidationError(f"{path}:{lineno}: value {v} must be positive for this model")
        times.append(t)
        values.append(v)
    if len(times) < 2:
        raise ValidationError(f"{path}: need at least two observations")
    return Path.from_arrays(times, values)


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
    # the file the document was read from; not a config key
    source: str = field(default="config", init=False, repr=False, compare=False)

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
        unknown = set(doc) - {f.name for f in fields(cls) if f.init}
        if unknown:
            raise ValidationError(f"{path}: unknown config keys {sorted(unknown)}")
        if not isinstance(doc.get("model"), str):
            raise ValidationError(f"{path}: config needs a 'model' name")
        cfg = cls(**{k: doc[k] for k in doc})
        cfg.source = str(path)
        with cfg.blame():
            get_model(cfg.model)  # validates the name
        for key in ("params", "prior", "sampler", "simulate", "data_schema"):
            if not isinstance(getattr(cfg, key), dict):
                raise ValidationError(f"{path}: '{key}' must be a JSON object")
        for key in ("params", "simulate"):
            for name, value in getattr(cfg, key).items():
                whole = key == "simulate" and name in ("n_steps", "thin_stride", "seed")
                if not is_number(value) or (whole and not is_integer(value)):
                    kind = "an integer" if whole else "a finite number"
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
        _reject_unknown("data_schema", cfg.data_schema, ("spacing",))
        spacing = cfg.data_schema.get("spacing", 1.0)  # optional, but a number if given
        if not (is_number(spacing) and spacing > 0):
            raise ValidationError(
                f"{path}: 'data_schema' spacing must be a finite positive number, got {spacing!r}"
            )
        if cfg.init not in ("config", "prior-midpoint"):
            raise ValidationError(
                f"{path}: init must be 'config' or 'prior-midpoint', got {cfg.init!r}")
        return cfg

    @contextmanager
    def blame(self):
        """Re-raise a ``ValidationError`` of a check of the config made after
        loading with the config file in front, as ``load``'s own errors have it."""
        try:
            yield
        except ValidationError as exc:
            raise ValidationError(f"{self.source}: {exc}") from None

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


def _out_dir(path) -> FilePath:
    """``path`` as an output directory that the command makes once its work
    is done; a file at or above it is an error before the work."""
    out = FilePath(path)
    nearest = next((p for p in (out, *out.parents) if p.exists()), None)
    if nearest is not None and not nearest.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(nearest))
    return out


def _write_csv(path, header, fmt: str, rows) -> None:
    """``header``, then the line ``fmt % row`` for each tuple of ``rows``, one
    ``%`` per 4096 rows; every line ends in ``\r\n``. These are the bytes
    ``csv.writer`` writes when no field needs quoting."""
    line = fmt + "\r\n"
    rows = iter(rows)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        while block := list(itertools.islice(rows, 4096)):
            fh.write(line * len(block) % tuple(itertools.chain.from_iterable(block)))


def write_trace_csv(path, trace: Trace) -> None:
    rows = zip(trace.iters.tolist(), *trace.draws.T.tolist(), trace.logliks.tolist())
    _write_csv(path, ["iter", *trace.param_names, "loglik"],
               "%d" + ",%.12g" * (len(trace.param_names) + 1), rows)


def read_trace_csv(path):
    """Trace file back as (param_names, iters, draws, logliks): nonempty,
    distinct names and whole iters that increase from 0 or later and stay
    below 2**63, the int64 range they are returned in."""
    path = FilePath(path)
    rows = _read_csv(path, "trace")
    header = next(rows)
    if len(header) < 3 or header[0] != "iter" or header[-1] != "loglik":
        raise ValidationError(f"{path}: malformed trace header")
    if not all(p.strip() for p in header[1:-1]):
        raise ValidationError(f"{path}:1: empty parameter name")
    if repeated := sorted({p for p in header[1:-1] if header[1:-1].count(p) > 1}):
        raise ValidationError(f"{path}:1: repeated parameter names {repeated}")
    numbered = list(rows)  # (line, row) of each draw
    if not numbered:
        raise ValidationError(f"{path}: trace has no draws")
    last = -1.0
    for line, (it, *_) in numbered:
        if not (it.is_integer() and last < it < 2.0**63):
            what = ("is not a whole number" if not it.is_integer() else "is negative" if it < 0
                    else "is too large" if it >= 2.0**63
                    else f"is not greater than the previous {last:.17g}")
            raise ValidationError(f"{path}:{line}: iter {it:.17g} {what}")
        last = it
    arr = np.asarray([row for _, row in numbered])
    return tuple(header[1:-1]), arr[:, 0].astype(int), arr[:, 1:-1], arr[:, -1]


def cmd_simulate(config: RunConfig, out_dir) -> dict:
    """Simulate a dataset; writes obs.csv, truth.csv and truth_params.json.

    truth.csv holds the full fine-grid skeleton (time, x, alpha) on the
    model's working coordinate; obs.csv holds the thinned observations on
    the raw observation scale.
    """
    with config.blame():
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
        if outside := PriorSpec.from_model(model).outside(params):
            raise ValidationError(f"parameter outside its support: {'; '.join(outside)}")
        alpha0 = params["alpha0"] if "alpha0" in params else 0.0
        out = _out_dir(out_dir)
        with allocating(f"a simulation grid of n_steps={n_steps} steps"):
            steps = np.arange(n_steps + 1)
        grid = TimeGrid(delta * steps)
        x_path, a_path = euler_simulate(model, params, x0, alpha0, grid, RandomStream(seed))

    obs_t = grid.times[::stride]
    obs_x = x_path.values[::stride]
    with np.errstate(over="ignore"):  # an overflow is the error below, not a warning
        obs_v = model.obs_transform_inv(obs_x) if model.obs_transform_inv else obs_x
    if not np.isfinite(obs_v).all():
        raise NumericsError("simulated observations are not finite on the observation scale")
    out.mkdir(parents=True, exist_ok=True)
    obs_file = out / "obs.csv"
    _write_csv(obs_file, ["time", "value"], "%.12g,%.12g", zip(obs_t.tolist(), obs_v.tolist()))
    truth_file = out / "truth.csv"
    _write_csv(truth_file, ["time", "x", "alpha"], "%.12g,%.12g,%.12g",
               zip(grid.times.tolist(), x_path.values.tolist(), a_path.values.tolist()))

    params_file = out / "truth_params.json"
    with open(params_file, "w") as fh:
        json.dump(
            {"model": model.name, "params": params,
             "delta": delta, "n_steps": n_steps, "thin_stride": stride, "seed": seed},
            fh, indent=2, sort_keys=True,
        )
    return {"obs": obs_file, "truth": truth_file, "params": params_file,
            "n_obs": obs_t.size}


def cmd_fit(config: RunConfig, data_path, out_dir) -> dict:
    """Fit the configured model; writes trace/summary CSVs and an
    acceptance-rate JSON per chain.

    Chain c runs at seed ``seed + c``. The chains run in parallel through
    ``run_jobs``, one process per usable CPU (this one and forked workers).
    The files are written in chain order once every chain has finished,
    byte-identical to a serial run's. A failing chain raises its error
    after the files of the chains before it, as a serial run would; the
    lowest-numbered failure wins. If chain 0 fails, ``out_dir`` is not made.
    """
    model = config.model_spec()
    spacing = config.data_schema.get("spacing")
    data = ingest_csv(data_path, None if spacing is None else float(spacing),
                      require_positive=model.obs_transform is not None)
    with config.blame():  # a bad sampler or prior section fails before any output
        sampler = config.sampler_config()
        if sampler.n_burn + sampler.thin >= sampler.n_iter:
            raise ValidationError("fit must keep at least two draws per chain for its "
                                  "summaries; lower n_burn or thin, or raise n_iter")
        prior = config.prior_spec()
        init = config.params
        if config.init == "prior-midpoint":  # a fixed parameter stays at its params value
            init = {**init, **prior.midpoint(model.free_names(config.fixed))}
    n_chains = sampler.chains
    out = _out_dir(out_dir)

    def fit_chain(c: int) -> Trace:
        # run_chain is looked up in this module at each call, so that a
        # wrapper on cli.run_chain sees the chains this process runs
        return run_chain(replace(sampler, seed=sampler.seed + c), data, model, prior, init)

    produced = {}
    for chain, trace in enumerate(run_jobs(fit_chain, n_chains)):
        if isinstance(trace, Exception):
            with config.blame():  # the chain's checks are checks of the config
                raise trace
        out.mkdir(parents=True, exist_ok=True)  # so a failing chain 0 leaves no directory
        suffix = "" if n_chains == 1 else f"_chain{chain}"
        trace_file = out / f"trace{suffix}.csv"
        write_trace_csv(trace_file, trace)

        summary_file = out / f"summary{suffix}.csv"
        _write_csv(summary_file, ["parameter", *SUMMARY_COLUMNS],
                   "%s" + ",%.12g" * len(SUMMARY_COLUMNS),
                   [(name, *row) for name, row in summarize(trace).items()])

        accept_file = out / f"acceptance{suffix}.json"
        with open(accept_file, "w") as fh:
            json.dump(trace.acceptance, fh, indent=2, sort_keys=True)
        produced[f"trace{suffix}"] = trace_file
        produced[f"summary{suffix}"] = summary_file
        produced[f"acceptance{suffix}"] = accept_file
    return produced


def cmd_diagnose(trace_path, max_lag: int, out_dir) -> dict:
    """Per-parameter autocorrelations, mixing times and kernel densities."""
    out = _out_dir(out_dir)
    names, _iters, draws, _loglik = read_trace_csv(trace_path)
    n = draws.shape[0]
    if max_lag < 1 or max_lag >= n:
        raise ValidationError(f"max_lag must be in [1, {n - 1}] for {n} draws")
    # every table is built before the output directory is made, so a trace
    # too short or too flat for one of them leaves no files behind
    tables = {"acf": (["parameter", "lag", "acf"], "%s,%d,%.12g", []),
              "iact": (["parameter", "iact"], "%s,%.12g", []),
              "kde": (["parameter", "x", "density"], "%s,%.12g,%.12g", [])}
    for name, column in zip(names, draws.T):
        try:
            rho = acf(column, n - 1)  # its lags up to max_lag are acf(column, max_lag)
            tables["acf"][2].extend((name, lag, r) for lag, r in enumerate(rho[:max_lag + 1]))
            tables["iact"][2].append((name, _iact(column, rho)))
            tables["kde"][2].extend((name, x, d) for x, d in kde_export(column).tolist())
        except ValidationError as exc:
            raise ValidationError(f"{trace_path}: parameter {name}: {exc}") from None
    out.mkdir(parents=True, exist_ok=True)
    produced = {}
    for stem, (header, fmt, rows) in tables.items():
        produced[stem] = out / f"{stem}.csv"
        _write_csv(produced[stem], header, fmt, rows)
    return produced


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
        else:
            out = (cmd_fit(RunConfig.load(args.config), args.data, args.out)
                   if args.command == "fit" else cmd_diagnose(args.trace, args.max_lag, args.out))
            print("wrote " + ", ".join(str(v) for v in out.values()))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a path the command cannot read or make
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}",
              file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
