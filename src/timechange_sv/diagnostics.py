"""Posterior summaries, mixing diagnostics, and sampler validation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ValidationError
from .mcmc import (
    PriorSpec,
    SamplerConfig,
    Trace,
    _flat_knots,
    _windows,
    state_from_skeleton,
    sweep,
)
from .models import ModelSpec
from .paths import RandomStream

_KDE_CELLS = 1 << 14


@dataclass(frozen=True)
class SummaryTable:
    """Per-parameter posterior summaries in report column order."""

    columns = ("post_mean", "post_sd", "post_2.5", "post_median", "post_97.5")
    rows: dict[str, tuple[float, float, float, float, float]]

    def as_rows(self) -> list[tuple]:
        return [(name, *vals) for name, vals in self.rows.items()]

    def __getitem__(self, name: str):
        return self.rows[name]


def summarize(trace: Trace) -> SummaryTable:
    """Sample moments and empirical quantiles of the posterior draws."""
    if trace.n_rows < 2:
        raise ValidationError("summaries need at least two draws")
    rows = {}
    for name in trace.param_names:
        col = trace.column(name)
        q = np.percentile(col, [2.5, 50.0, 97.5])
        rows[name] = (
            float(np.mean(col)), float(np.std(col, ddof=1)),
            float(q[0]), float(q[1]), float(q[2]),
        )
    return SummaryTable(rows=rows)


def acf(series, max_lag: int) -> np.ndarray:
    """Biased sample autocorrelation at lags 0..max_lag, acf[0] = 1."""
    x = np.asarray(series, dtype=float)
    n = x.size
    if n <= max_lag:
        raise ValidationError("series must be longer than max_lag")
    x = x - x.mean()
    denom = float(x @ x)
    if denom == 0.0:
        raise ValidationError("series has zero variance")
    size = 1 << int(np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(x, size)
    corr = np.fft.irfft(f * np.conjugate(f))[: max_lag + 1]
    return corr / denom


def iact(series) -> float:
    """Integrated autocorrelation time, 1 + 2 sum rho(k), truncated at the
    initial positive sequence of paired autocorrelations."""
    x = np.asarray(series, dtype=float)
    if x.size < 100:
        raise ValidationError("integrated autocorrelation needs at least 100 points")
    rho = acf(x, x.size - 1)
    n_pairs = rho.size // 2
    pair = rho[: 2 * n_pairs].reshape(n_pairs, 2).sum(axis=1)
    total = 0.0
    for g in pair:
        if g <= 0.0:
            break
        total += g
    return float(2.0 * total - 1.0)


def kde_export(series, grid_points: int = 256) -> np.ndarray:
    """Gaussian-kernel density on an evenly spaced grid, as (x, density)
    rows; bandwidth by Silverman's rule, sd * (3n/4)^(-1/5)."""
    x = np.asarray(series, dtype=float)
    if not x.max() > x.min():  # also false with a NaN
        raise ValidationError("density estimate needs at least two distinct values")
    if grid_points < 8:
        raise ValidationError("need at least 8 grid points")
    bw = float(np.std(x, ddof=1)) * (0.75 * x.size) ** -0.2
    grid = np.linspace(x.min() - 5.0 * bw, x.max() + 5.0 * bw, grid_points)
    xs, gs = x / bw, grid / bw
    density = np.empty(grid_points)
    # grid points per pass, so that no pass holds more than _KDE_CELLS kernels
    step = max(1, _KDE_CELLS // x.size)
    for lo in range(0, grid_points, step):
        d = gs[lo: lo + step, None] - xs
        d *= d
        d *= -0.5
        density[lo: lo + step] = np.exp(d, out=d).sum(axis=1)
    return np.column_stack((grid, density / (x.size * bw * math.sqrt(2.0 * math.pi))))


# ---------------------------------------------------------------------------
# Sampler validation: joint-distribution (prior recovery) testing


def simulate_discrete_skeleton(
    model: ModelSpec,
    params,
    obs_times: np.ndarray,
    m: int,
    x0: float,
    rng: RandomStream,
):
    """Simulate (x_values, gamma_flat) from the sampler's own discrete model.

    The latent path advances with locally-Gaussian unit-diffusion steps; the
    observed path conditional on it uses the same left-point scheme the
    likelihood engine integrates, including the leverage coupling through
    the latent increments. Sampling from exactly this joint makes prior
    recovery an exact test of the transition kernels.
    """
    knots = _flat_knots(np.asarray(obs_times, dtype=float), m)
    dt = np.diff(knots)
    n_steps = dt.size

    gamma = np.zeros(knots.size)
    x = np.empty(knots.size)
    x[0] = x0
    rho = model.rho(params)
    lev_sd = math.sqrt(1.0 - rho * rho)
    eps_g = rng.normal(n_steps) if model.has_latent else None
    eps_x = rng.normal(n_steps)
    scale = model.latent_scale(params) if model.has_latent else 0.0

    for i in range(n_steps):
        if model.has_latent:
            alpha_i = params["alpha0"] + scale * gamma[i]
            d = float(model.drift_alpha(alpha_i, params)) / scale
            dgam = d * dt[i] + math.sqrt(dt[i]) * eps_g[i]
            gamma[i + 1] = gamma[i] + dgam
        else:
            alpha_i = 0.0
            dgam = 0.0
        sx = float(model.vol_x(alpha_i, params))
        mx = float(model.drift_x(knots[i], x[i], alpha_i, params))
        x[i + 1] = (
            x[i] + mx * dt[i] + rho * sx * dgam
            + lev_sd * sx * math.sqrt(dt[i]) * eps_x[i]
        )

    x_values = _windows(x, m).copy()
    return x_values, gamma


def prior_recovery_test(
    model: ModelSpec,
    prior: PriorSpec,
    config: SamplerConfig,
    replications: int,
    rng: RandomStream,
    n_obs: int = 6,
    spacing: float = 1.0,
    x0: float = 0.0,
    sweeps: int = 50,
    transition: Optional[Callable] = None,
) -> dict[str, float]:
    """Joint-distribution validation of the Gibbs kernels.

    Each replication draws parameters from the (proper) prior, simulates
    data and latents from the sampler's discrete model, runs ``sweeps`` full
    sweeps, and retains the final parameters. If every kernel preserves the
    augmented posterior, the retained parameters are prior draws; returned
    are per-parameter Kolmogorov-Smirnov p-values against the prior.

    ``transition`` overrides the sweep (signature ``(state, rng)``) and
    exists so the harness itself can be calibrated: a transition that does
    not preserve the posterior must give small p-values.
    """
    from scipy import stats  # slow to import, and only this harness needs it

    free = [p for p in model.param_names if p not in config.fixed]
    obs_times = spacing * np.arange(n_obs + 1)
    kept = {name: np.empty(replications) for name in free}
    scales = {name: config.rw_scales.get(name, 0.25) for name in free}

    for rep in range(replications):
        theta = model.make_params(prior.sample(rng, free))
        x_values, gamma_flat = simulate_discrete_skeleton(
            model, theta, obs_times, config.m, x0, rng
        )
        state = state_from_skeleton(
            model, theta, obs_times, x_values, gamma_flat, prior, config.fixed
        )
        for _ in range(sweeps):
            if transition is not None:
                transition(state, rng)
            else:
                sweep(state, rng, scales, block_len=config.block_len)
        for name in free:
            kept[name][rep] = state.params[name]

    return {
        name: float(stats.kstest(kept[name], lambda v, _n=name: prior.cdf(_n, v)).pvalue)
        for name in free
    }
