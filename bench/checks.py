"""Correctness checks on the program's outputs, and failure accounting.

One op is one chain, one simulation, one diagnosis, one set-up or one CLI
command. An op fails when it raises or exits non-zero, or when its output
fails a check below; every failure keeps its reason so a failing run says
what went wrong.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np


class Ops:
    """Counts ops attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.extend(f"{label}: {p}" for p in problems)
        return not problems


def check_draws(names, draws, logliks, acceptance, bounds, n_rows) -> list[str]:
    """Problems with one chain's draws: wrong shape, non-finite draws or
    log-likelihoods, draws outside the prior box, kernels never accepted."""
    problems = []
    draws = np.asarray(draws, dtype=float)
    logliks = np.asarray(logliks, dtype=float)
    if draws.shape != (n_rows, len(names)) or logliks.shape != (n_rows,):
        problems.append(f"expected {n_rows} rows of {len(names)} parameters, "
                        f"got draws {draws.shape} and log-likelihoods {logliks.shape}")
        return problems
    if not np.all(np.isfinite(draws)):
        problems.append("non-finite draw")
    if not np.all(np.isfinite(logliks)):
        problems.append("non-finite log-likelihood")
    for j, name in enumerate(names):
        lo, hi = bounds[name]
        col = draws[:, j]
        if np.any((col <= lo) | (col >= hi)):
            problems.append(f"draw of {name} outside the prior box ({lo}, {hi})")
    never = sorted(k for k, rate in acceptance.items() if not rate > 0.0)
    if never:
        problems.append(f"zero acceptance for {', '.join(never)}")
    return problems


def csv_rows(path) -> list[list[str]]:
    """Data rows of a CSV file (header dropped)."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def check_simulate(out_dir, n_steps: int, stride: int) -> list[str]:
    out = Path(out_dir)
    problems = []
    obs = np.array(csv_rows(out / "obs.csv"), dtype=float)
    if obs.shape != (n_steps // stride + 1, 2):
        problems.append(f"obs.csv has shape {obs.shape}, expected ({n_steps // stride + 1}, 2)")
    elif not (np.all(np.isfinite(obs)) and np.all(obs[:, 1] > 0.0)):
        problems.append("obs.csv holds non-finite or non-positive rates")
    truth = np.array(csv_rows(out / "truth.csv"), dtype=float)
    if truth.shape != (n_steps + 1, 3) or not np.all(np.isfinite(truth)):
        problems.append(f"truth.csv has shape {truth.shape} or non-finite values, "
                        f"expected ({n_steps + 1}, 3)")
    return problems


def check_fit(out_dir, read_trace_csv, chains: int, n_rows: int, bounds) -> list[str]:
    out = Path(out_dir)
    problems = []
    for c in range(chains):
        suffix = "" if chains == 1 else f"_chain{c}"
        try:
            names, _iters, draws, logliks = read_trace_csv(out / f"trace{suffix}.csv")
        except ValueError as exc:  # the reader's ValidationError is the finding
            problems.append(f"trace{suffix}.csv rejected: {exc}")
            continue
        with open(out / f"acceptance{suffix}.json") as fh:
            acceptance = json.load(fh)
        problems += [f"chain {c}: {p}" for p in
                     check_draws(names, draws, logliks, acceptance, bounds, n_rows)]
        if len(csv_rows(out / f"summary{suffix}.csv")) != len(names):
            problems.append(f"summary{suffix}.csv does not have one row per parameter")
    return problems


def check_diagnose(out_dir, n_params: int, max_lag: int, grid_points: int) -> list[str]:
    out = Path(out_dir)
    problems = []
    expected = {"acf.csv": n_params * (max_lag + 1), "iact.csv": n_params,
                "kde.csv": n_params * grid_points}
    for name, rows in expected.items():
        got = csv_rows(out / name)
        if len(got) != rows:
            problems.append(f"{name} has {len(got)} rows, expected {rows}")
        elif not np.all(np.isfinite(np.array([r[-1] for r in got], dtype=float))):
            problems.append(f"{name} holds non-finite values")
    iact = np.array([r[1] for r in csv_rows(out / "iact.csv")], dtype=float)
    if np.any(iact <= 0.0):
        problems.append("non-positive integrated autocorrelation time")
    return problems
