"""Posterior summaries, mixing diagnostics, and sampler validation."""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError, is_integer
from .mcmc import (AugmentedState, PriorSpec, SamplerConfig, Trace, _flat_knots, _run_state,
                   _windows, run_jobs)
from .models import ModelSpec, euler_simulate
from .paths import RandomStream, TimeGrid

_KDE_CELLS = 1 << 14

SUMMARY_COLUMNS = ("post_mean", "post_sd", "post_2.5", "post_median", "post_97.5")


def summarize(trace: Trace) -> dict[str, tuple[float, ...]]:
    """Sample moments and empirical quantiles of the posterior draws: per
    parameter, a tuple of floats in ``SUMMARY_COLUMNS`` order."""
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
    return rows


def _series(series) -> np.ndarray:
    """``series`` as a 1-D float array; any other shape raises ``ValidationError``."""
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValidationError(f"series must be one-dimensional, got shape {x.shape}")
    return x


def acf(series, max_lag: int) -> np.ndarray:
    """Biased sample autocorrelation at lags 0..max_lag, acf[0] = 1, of a 1-D
    series; a ``max_lag`` that is not a non-negative integer, and values too
    large for it to be finite, raise ``ValidationError``."""
    x = _series(series)
    if not (is_integer(max_lag) and max_lag >= 0):
        raise ValidationError(f"max_lag must be a non-negative integer, got {max_lag!r}")
    n = x.size
    if n <= max_lag:
        raise ValidationError("series must be longer than max_lag")
    with np.errstate(all="ignore"):  # an overflow is the error below, not a warning
        x = x - x.mean()
        denom = float(x @ x)
        if denom == 0.0:
            raise ValidationError("series has zero variance")
        size = 1 << int(np.ceil(np.log2(2 * n)))
        f = np.fft.rfft(x, size)
        rho = np.fft.irfft(f * np.conjugate(f))[: max_lag + 1] / denom
    if not (math.isfinite(denom) and np.isfinite(rho).all()):
        raise ValidationError(f"autocorrelations are not finite: centred sum of squares {denom}")
    return rho


def iact(series, rho=None) -> float:
    """Integrated autocorrelation time, 1 + 2 sum rho(k), truncated at the
    initial positive sequence of paired autocorrelations: the pairs before
    the first one that is not positive, added left to right. ``rho``, when
    given, is ``acf(series, len(series) - 1)``, whose FFT is then not made
    again."""
    x = _series(series)
    if x.size < 100:
        raise ValidationError("integrated autocorrelation needs at least 100 points")
    rho = acf(x, x.size - 1) if rho is None else rho
    n = rho.size - rho.size % 2
    pair = rho[0:n:2] + rho[1:n:2]
    k = int(np.argmin(pair > 0.0))  # the first pair that is not positive,
    if pair[k] > 0.0:  # or none
        k = pair.size
    total = np.cumsum(pair[:k])  # left to right, as a loop adds
    return float(2.0 * (total[-1] if k else 0.0) - 1.0)


def kde_export(series, grid_points: int = 256) -> np.ndarray:
    """Gaussian-kernel density of a 1-D series on an evenly spaced grid, as
    (x, density) rows; bandwidth by Silverman's rule, sd * (3n/4)^(-1/5).
    A Metropolis chain repeats its last draw at every rejection, so one
    kernel per run of equal consecutive draws, weighted by the run's length,
    gives the density of one kernel per draw at a cost that grows with the
    accepted moves. A ``grid_points`` that is not an integer, and values too
    large or too close for the density to be finite, raise
    ``ValidationError``."""
    x = _series(series)
    if not (x.size and x.max() > x.min()):  # also false with a NaN
        raise ValidationError("density estimate needs at least two distinct values")
    if not is_integer(grid_points):
        raise ValidationError(f"grid_points must be an integer, got {grid_points!r}")
    if grid_points < 8:
        raise ValidationError("need at least 8 grid points")
    # the starts of the runs of equal consecutive draws, then the end of the series
    bounds = np.concatenate(([0], np.flatnonzero(x[1:] != x[:-1]) + 1, [x.size]))
    lengths = np.diff(bounds).astype(float)
    with np.errstate(all="ignore"):  # an overflow is the error below, not a warning
        bw = float(np.std(x, ddof=1)) * (0.75 * x.size) ** -0.2
        grid = np.linspace(x.min() - 5.0 * bw, x.max() + 5.0 * bw, grid_points)
        xs, gs = x[bounds[:-1]] / bw, grid / bw
        density = np.empty(grid_points)
        # grid points per pass, so that no pass holds more than _KDE_CELLS kernels
        step = max(1, _KDE_CELLS // xs.size)
        for lo in range(0, grid_points, step):
            d = gs[lo: lo + step, None] - xs
            d *= d
            d *= -0.5
            density[lo: lo + step] = np.exp(d, out=d) @ lengths
        out = np.column_stack((grid, density / (x.size * bw * math.sqrt(2.0 * math.pi))))
    if not (math.isfinite(bw) and np.isfinite(out).all()):
        raise ValidationError(f"density estimate is not finite: bandwidth {bw}")
    return out


# ---------------------------------------------------------------------------
# Sampler validation: joint-distribution (prior recovery) testing


def simulate_discrete_skeleton(model: ModelSpec, params, obs_times: np.ndarray, m: int,
                               x0: float, rng: RandomStream):
    """Simulate the (n, m+2) windows (x_values, gamma) of the observed and
    latent paths on the sampler's knots by ``euler_simulate``: the engine's
    densities are those of this Euler scheme on the knots (X coupled to the
    latent noise dW), so prior recovery on these data is an exact test of
    the transition kernels."""
    grid = TimeGrid(_flat_knots(np.asarray(obs_times, dtype=float), m))
    alpha0 = params.get("alpha0", 0.0)
    x, alpha = euler_simulate(model, params, x0, alpha0, grid, rng)
    gamma = ((alpha.values - alpha0) / model.latent_scale(params) if model.has_latent
             else np.zeros(len(grid)))
    return _windows(x.values, m), _windows(gamma, m)


GATE_N_OBS = 6  # the observation intervals each prior-recovery replication simulates


def prior_recovery_test(
    model: ModelSpec,
    prior: PriorSpec,
    config: SamplerConfig,
    replications: int,
    *,
    x0: float,
    spacing: float,
) -> dict[str, float]:
    """Joint-distribution validation of the Gibbs kernels.

    Each replication draws the free parameters from the (proper) prior,
    simulates data and latents by Euler on the sampler's knots,
    ``GATE_N_OBS`` intervals of length ``spacing`` from ``x = x0`` (the
    scale of the data the model is fitted to), runs ``run_chain``'s chain
    from there, and retains the final parameters. If every kernel preserves
    the augmented posterior, these are prior draws; returned are
    per-parameter Kolmogorov-Smirnov p-values against the prior.

    The chain reads ``m``, ``n_iter``, ``seed``, ``block_len``,
    ``rw_scales``, ``fixed`` and ``validate_every`` of ``config``, with
    ``run_chain``'s checks; ``n_burn`` must be 0, as scales adapted from the
    chain's past would break the exactness tested. Replication k draws from
    ``RandomStream(config.seed, stream=k)`` and the replications run through
    ``run_jobs``, so the p-values do not depend on the number of processes.
    """
    if not (is_integer(replications) and replications >= 1):
        raise ValidationError(f"prior recovery needs a replication, "
                              f"got replications={replications!r}")
    if config.n_burn:
        raise ValidationError(f"prior recovery runs without burn-in, got n_burn={config.n_burn}")
    from scipy import stats  # slow to import, and only this harness needs it

    free = model.free_names(config.fixed)
    obs_times = spacing * np.arange(GATE_N_OBS + 1)

    def replicate(k: int) -> list[float]:
        rng = RandomStream(config.seed, stream=k)
        theta = model.make_params(prior.sample(rng, free))
        x_values, gamma = simulate_discrete_skeleton(model, theta, obs_times, config.m, x0, rng)
        state = AugmentedState(model, theta, obs_times, x_values, gamma, prior, config.fixed)
        _run_state(state, config, rng)
        return [state.params[name] for name in free]

    outcomes = run_jobs(replicate, replications)
    if failed := next((o for o in outcomes if isinstance(o, Exception)), None):
        raise failed
    kept = np.array(outcomes)
    return {
        name: float(stats.kstest(kept[:, j], lambda v, _n=name: prior.cdf(_n, v)).pvalue)
        for j, name in enumerate(free)
    }
