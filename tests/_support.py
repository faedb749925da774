"""Shared fixtures and oracle helpers for the test suite."""

import math
import os

import numpy as np

from timechange_sv.errors import ExplosionError, NumericsError, ValidationError
from timechange_sv.models import ModelSpec, POSITIVE, REAL
from timechange_sv.paths import Path, RandomStream, TimeGrid


def scalar_ou_model(kappa=1.5, mu=0.3, sigma=0.8) -> ModelSpec:
    """Mean-reverting scalar model with constant volatility (no latent)."""
    return ModelSpec(
        name="scalar-ou",
        param_names=("kappa", "mu", "sigma"),
        supports={"kappa": POSITIVE, "mu": REAL, "sigma": POSITIVE},
        defaults={"kappa": kappa, "mu": mu, "sigma": sigma},
        drift_x=lambda x, a, p: p["kappa"] * (p["mu"] - np.asarray(x, dtype=float)),
        vol_x=lambda a, p: np.full(np.shape(a), p["sigma"], dtype=float),
        timescale_params=("sigma",),
    )


def decoupled_sv_model() -> ModelSpec:
    """SV-shaped model whose observed diffusion ignores the latent path:
    unit volatility and latent-free drift."""
    return ModelSpec(
        name="decoupled-sv",
        param_names=("kappa_x", "mu_x", "kappa_alpha", "mu_alpha", "sigma", "alpha0"),
        supports={
            "kappa_x": POSITIVE, "mu_x": REAL, "kappa_alpha": POSITIVE,
            "mu_alpha": REAL, "sigma": POSITIVE, "alpha0": REAL,
        },
        defaults={
            "kappa_x": 0.4, "mu_x": 0.0, "kappa_alpha": 0.5,
            "mu_alpha": -0.3, "sigma": 0.5, "alpha0": -0.3,
        },
        drift_x=lambda x, a, p: p["kappa_x"] * (p["mu_x"] - np.asarray(x, dtype=float)),
        vol_x=lambda a, p: np.ones(np.shape(a)),
        drift_alpha=lambda a, p: p["kappa_alpha"] * (p["mu_alpha"] - np.asarray(a, dtype=float)),
        vol_alpha=lambda p: p["sigma"],
        timescale_params=("sigma", "alpha0"),
        latent_drift_params=("kappa_alpha", "mu_alpha"),
    )


# The per-step Euler loop that models.euler_simulate replaced, its arithmetic
# kept verbatim as the oracle: the rewrite must match its paths bit for bit,
# consume the same random numbers and raise ExplosionError at the same grid
# time. It stores the paths time-major, so that a step writes one contiguous
# row, and returns transposed views.
def euler_paths_reference(model, params, x0, alpha0, grid, rng, ends_only=False):
    """Joint Euler scheme for a batch of paths; returns (X, alpha) arrays
    shaped (n_paths, n_points), or with ``ends_only`` the end values alone,
    shaped (n_paths,).

    ``ends_only`` keeps only the running state. Without a latent it draws
    the noise one step at a time: row by row, ``standard_normal`` gives the
    numbers of one call for every step, so the ends are the same bits.
    """
    if not all(math.isfinite(v) for v in params.values()):
        raise ValidationError("simulation parameters must be finite")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    alpha0 = np.atleast_1d(np.asarray(alpha0, dtype=float))
    n_paths = x0.size
    if alpha0.size != n_paths:
        raise ValidationError("x0 and alpha0 batch sizes differ")
    n = len(grid)
    x = np.empty((1 if ends_only else n, n_paths))
    a = np.empty_like(x)
    x[0] = x0
    a[0] = alpha0
    if n == 1:
        return (x[0], a[0]) if ends_only else (x.T, a.T)

    steps = grid.steps
    times = grid.times
    rho = model.rho(params)
    lev = math.sqrt(max(0.0, 1.0 - rho * rho))
    by_step = ends_only and not model.has_latent
    noise_b = None if by_step else rng.normal((n - 1, n_paths))
    noise_w = rng.normal((n - 1, n_paths)) if model.has_latent else None

    xi = x[0].copy()
    ai = a[0].copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n - 1):
            dt = steps[i]
            sq = math.sqrt(dt)
            sx = model.vol_x(ai, params)
            mx = model.drift_x(xi, ai, params)
            nb = rng.normal(n_paths) if by_step else noise_b[i]
            if model.has_latent:
                dw = sq * noise_w[i]
                db = rho * dw + lev * sq * nb
                sa = model.vol_alpha(params)
                ma = model.drift_alpha(ai, params)
                ai = ai + ma * dt + sa * dw
            else:
                db = sq * nb
            xi = xi + mx * dt + sx * db
            if not (np.all(np.isfinite(xi)) and np.all(np.isfinite(ai))):
                raise ExplosionError(times[i + 1])
            if not ends_only:
                x[i + 1] = xi
                a[i + 1] = ai
    return (xi, ai) if ends_only else (x.T, a.T)


def set_cpus(monkeypatch, n):
    """Make ``n`` CPUs usable, as the process-count rule of ``run_jobs`` sees them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


LOG_2PI = math.log(2.0 * math.pi)


def euler_loglik(x_path: Path, alpha_path: Path, params: dict, model: ModelSpec) -> float:
    """Transition-product log likelihood of a joint skeleton under the
    locally-Gaussian scheme, an oracle independent of the time-changed
    engine. The step covariance couples the two coordinates through the
    leverage correlation and is singular at |rho| = 1.
    """
    if not np.array_equal(x_path.times, alpha_path.times):
        raise ValidationError("skeleton grids are not aligned")
    if len(x_path) < 2:
        raise ValidationError("skeleton needs at least two knots")
    t = x_path.times
    dt = np.diff(t)
    xv = x_path.values
    av = alpha_path.values

    mx = np.asarray(model.drift_x(xv[:-1], av[:-1], params), dtype=float)
    sx = np.asarray(model.vol_x(av[:-1], params), dtype=float)
    rx = np.diff(xv) - mx * dt

    if not model.has_latent:
        var = sx * sx * dt
        return float(np.sum(-0.5 * (LOG_2PI + np.log(var)) - rx * rx / (2.0 * var)))

    rho = model.rho(params)
    if abs(rho) >= 1.0:
        raise NumericsError("step covariance is singular at |rho| = 1")
    sa = model.latent_scale(params)
    ma = np.asarray(model.drift_alpha(av[:-1], params), dtype=float)
    ra = np.diff(av) - ma * dt

    vxx = sx * sx * dt
    vaa = sa * sa * dt
    vxa = rho * sx * sa * dt
    det = vxx * vaa - vxa * vxa
    quad = (rx * rx * vaa - 2.0 * rx * ra * vxa + ra * ra * vxx) / det
    return float(np.sum(-LOG_2PI - 0.5 * np.log(det) - 0.5 * quad))


def log_bm_fdd(times, values, var_rate=1.0) -> float:
    """Log density of a skeleton under Brownian motion with variance rate
    ``var_rate`` (exact finite-dimensional Gaussian)."""
    dv = np.diff(np.asarray(values, dtype=float))
    dt = np.diff(np.asarray(times, dtype=float))
    v = var_rate * dt
    return float(np.sum(-0.5 * np.log(2.0 * np.pi * v) - dv * dv / (2.0 * v)))


def log_bridge_fdd(times, values, var_rate=1.0) -> float:
    """Log density of a skeleton's interior under the Brownian bridge pinned
    at the skeleton's endpoints, variance rate ``var_rate``."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    span = times[-1] - times[0]
    end = (
        -0.5 * np.log(2.0 * np.pi * var_rate * span)
        - (values[-1] - values[0]) ** 2 / (2.0 * var_rate * span)
    )
    return log_bm_fdd(times, values, var_rate) - float(end)


def subsample_path(path: Path, stride: int) -> Path:
    return Path.from_arrays(path.times[::stride], path.values[::stride])


def reflected_path(path: Path) -> Path:
    """Interior reflected around the endpoint chord; endpoints preserved."""
    chord = np.interp(
        path.times, [path.times[0], path.times[-1]], [path.values[0], path.values[-1]]
    )
    return Path(path.grid, 2.0 * chord - path.values)


# The O(m^2) retrospective refinement that timechange.refine_rows replaced,
# kept verbatim as its oracle: the rewrite must match it bit for bit, in its
# outputs and in the random numbers it consumes.
def refine_rows_reference(
    stored_times: np.ndarray,
    stored_values: np.ndarray,
    new_times: np.ndarray,
    rng: RandomStream,
) -> np.ndarray:
    """Values of Brownian paths at ``new_times``, conditional on stored knots.

    Batched over rows: all inputs are (n, .) arrays with each row sorted
    increasing. Times that exactly match a stored knot reuse its value and
    consume no randomness. A new time between two stored knots is drawn from
    the conditional bridge; beyond the last stored knot it is an
    unconditioned Brownian increment from its left neighbour. Multiple new
    times sharing a bracket are filled left to right, each conditioning on
    the previously drawn one.
    """
    S = np.asarray(stored_times, dtype=float)
    V = np.asarray(stored_values, dtype=float)
    Tn = np.asarray(new_times, dtype=float)
    n, k = S.shape
    j = Tn.shape[1]

    out = np.empty((n, j))
    # Exact-hit detection against stored knots (bitwise equality; identical
    # warp parameters reproduce identical times).
    eq = Tn[:, :, None] == S[:, None, :]
    hit = eq.any(axis=2)
    hit_idx = eq.argmax(axis=2)
    rows = np.arange(n)[:, None]
    out[hit] = V[rows, hit_idx][hit]

    todo = ~hit
    if not todo.any():
        return out

    # Left stored bracket index for every new time (greatest stored <= t).
    left = (Tn[:, :, None] >= S[:, None, :]).sum(axis=2) - 1
    if np.any(left[todo] < 0):
        raise ValidationError("new time precedes the first stored knot")
    # Rank of each pending time among pending times sharing (row, bracket):
    # new times are sorted per row, so the rank is a running count.
    rank = np.zeros((n, j), dtype=int)
    for col in range(1, j):
        same = (left[:, col] == left[:, col - 1]) & todo[:, col] & todo[:, col - 1]
        rank[:, col] = np.where(same, rank[:, col - 1] + 1, 0)

    has_right = left < k - 1
    right = np.minimum(left + 1, k - 1)

    max_rank = int(rank[todo].max()) if todo.any() else 0
    prev_t = np.empty((n, j))
    prev_v = np.empty((n, j))
    for r in range(max_rank + 1):
        sel = todo & (rank == r)
        if not sel.any():
            continue
        ri, ci = np.nonzero(sel)
        if r == 0:
            t_a = S[ri, left[ri, ci]]
            v_a = V[ri, left[ri, ci]]
        else:
            t_a = prev_t[ri, ci - 1]
            v_a = prev_v[ri, ci - 1]
        t_b = Tn[ri, ci]
        hr = has_right[ri, ci]
        t_c = S[ri, right[ri, ci]]
        v_c = V[ri, right[ri, ci]]
        span = np.where(hr, t_c - t_a, 1.0)
        mean = np.where(hr, ((t_b - t_a) * v_c + (t_c - t_b) * v_a) / span, v_a)
        var = np.where(hr, (t_b - t_a) * (t_c - t_b) / span, t_b - t_a)
        draw = mean + np.sqrt(var) * rng.normal(ri.size)
        out[ri, ci] = draw
        prev_t[ri, ci] = t_b
        prev_v[ri, ci] = draw

    return out
