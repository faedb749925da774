"""Log-density components of the reparametrised posterior.

Everything is computed and stored in log space; acceptance ratios downstream
are formed as exp of log differences so that products over hundreds of
observation intervals never underflow.

The per-interval quantities are produced by one vectorised engine on
(n_intervals, m+2) arrays, in three stages that ``interval_quantities``
composes:

* ``warp_stage`` maps (params, gamma) to the latent values, the squared
  volatility, the warped times and lengths, the leverage adjustment and the
  doubly-warped times;
* ``path_stage`` maps the doubly-warped path values z, on those warps, to
  the path on the warped and observation scales;
* ``density_stage`` evaluates the Girsanov, endpoint and latent terms.

The sampler runs only the stages whose inputs a move changes: a path move
runs path and density on the cached warps; a drift-parameter move runs the
density stage on the cached warps and paths; time-scale moves and latent
blocks run the warp stage for the new doubly-warped times, refine, then the
whole engine once. The density formulas (``girsanov_sum``,
``log_end_gaussian``, ``unit_latent_drift``) and the warp formulas taken
from ``timechange`` and ``models`` exist once, in the code the engine runs.
``euler_loglik`` is the exception: an independent transition-product
oracle for the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .errors import NumericsError, ValidationError
from .models import ModelSpec, ParamVector, cumulative_leverage
from .paths import Path
from .timechange import first_warp, second_warp, uncentre_from_chord

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class IntervalQuantities:
    """Vectorised per-interval state derived from (Z, gamma, params, data).

    Shapes: (n, m+2) for knot-level arrays, (n, m+1) for the finite
    doubly-warped knots, (n,) for per-interval scalars. The warp stage fills
    the first six fields, the path stage the next three, the density stage
    the last three. A sampler state caches one instance with every field
    filled.
    """

    alpha: np.ndarray  # latent values at the knots
    veff2: np.ndarray  # squared leverage-reduced volatility at the knots
    u: np.ndarray  # warped knot times, u[:, 0] = 0
    total: np.ndarray  # warped interval lengths T
    adj: np.ndarray  # cumulative leverage adjustment
    z_times: np.ndarray  # finite doubly-warped times of the knots
    z: Optional[np.ndarray] = None  # path values on the doubly-warped scale
    U: Optional[np.ndarray] = None  # path values on the warped scale (leverage removed)
    X: Optional[np.ndarray] = None  # path values on the observation coordinate
    log_g: Optional[np.ndarray] = None  # per-interval Girsanov sums
    log_f: Optional[np.ndarray] = None  # per-interval endpoint Gaussian terms (no Jacobian)
    log_gamma: Optional[np.ndarray] = None  # per-interval latent-marginal contributions

    def select(self, rows) -> "IntervalQuantities":
        """The quantities of ``rows`` only (any numpy row index)."""
        return IntervalQuantities(**{f.name: getattr(self, f.name)[rows] for f in fields(self)})

    def finite(self) -> bool:
        return bool(
            np.all(np.isfinite(self.log_g))
            and np.all(np.isfinite(self.log_f))
            and np.all(np.isfinite(self.log_gamma))
        )


def girsanov_sum(b, dv, dt):
    """Left-point Girsanov log density of a unit-volatility path against
    Brownian motion, sum b dv - 1/2 sum b^2 dt, over the last axis."""
    return np.einsum("...j,...j->...", b, dv) - 0.5 * np.einsum("...j,...j->...", b * b, dt)


def log_end_gaussian(y1, y0, total):
    """Gaussian log density of the endpoint y1: mean y0, variance T."""
    return -0.5 * (_LOG_2PI + np.log(total)) - (y1 - y0) ** 2 / (2.0 * total)


def unit_latent_drift(model: ModelSpec, params: ParamVector, alpha) -> np.ndarray:
    """Drift of the unit-diffusion latent path gamma = (alpha - alpha0) / scale:
    the latent drift at alpha divided by the constant latent volatility."""
    return np.asarray(model.drift_alpha(alpha, params), dtype=float) / model.latent_scale(params)


def warp_stage(model: ModelSpec, params: ParamVector, x_knots, gamma) -> IntervalQuantities:
    """Warps of a batch of intervals: depends on (params, gamma) only."""
    x_knots = np.asarray(x_knots, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    with np.errstate(all="ignore"):
        alpha = model.latent_values(gamma, params) if model.has_latent else np.zeros_like(x_knots)
        sx = np.asarray(model.vol_x(alpha, params), dtype=float)
        rho = model.rho(params)
        veff2, u = first_warp(x_knots, sx, rho)
        total = u[:, -1]
        if rho != 0.0 and model.has_latent:
            adj = cumulative_leverage(rho, sx, gamma)
        else:
            adj = np.zeros_like(x_knots)
        z_times = second_warp(u[:, :-1], total[:, None])
    return IntervalQuantities(alpha, veff2, u, total, adj, z_times)


def path_stage(w: IntervalQuantities, z, y_left, y_right) -> IntervalQuantities:
    """Path values of ``z`` (n, m+1) on the warped and observation scales,
    on the warps of ``w``; returns ``w`` with the path fields filled."""
    z = np.asarray(z, dtype=float)
    with np.errstate(all="ignore"):
        u1 = np.asarray(y_right, dtype=float) - w.adj[:, -1]
        U = np.empty_like(w.u)
        U[:, :-1] = uncentre_from_chord(
            z, w.u[:, :-1], w.total[:, None], np.asarray(y_left, dtype=float)[:, None],
            u1[:, None],
        )
        U[:, -1] = u1
    return replace(w, z=z, U=U, X=U + w.adj)


def density_stage(
    q: IntervalQuantities, model: ModelSpec, params: ParamVector, x_knots, gamma, y_left
) -> IntervalQuantities:
    """Log densities of the warps and paths of ``q`` under ``params``;
    returns ``q`` with the density fields filled."""
    x_knots = np.asarray(x_knots, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    with np.errstate(all="ignore"):
        drift = np.asarray(
            model.drift_x(x_knots[:, :-1], q.X[:, :-1], q.alpha[:, :-1], params), dtype=float
        )
        log_g = girsanov_sum(drift / q.veff2[:, :-1], np.diff(q.U, axis=1), np.diff(q.u, axis=1))
        log_f = log_end_gaussian(q.U[:, -1], np.asarray(y_left, dtype=float), q.total)
        if model.has_latent:
            log_gamma = girsanov_sum(
                unit_latent_drift(model, params, q.alpha[:, :-1]),
                np.diff(gamma, axis=1), np.diff(x_knots, axis=1),
            )
        else:
            log_gamma = np.zeros(x_knots.shape[0])
    return replace(q, log_g=log_g, log_f=log_f, log_gamma=log_gamma)


def interval_quantities(
    model: ModelSpec,
    params: ParamVector,
    x_knots: np.ndarray,
    gamma: np.ndarray,
    y_left: np.ndarray,
    y_right: np.ndarray,
    z_values: np.ndarray,
) -> IntervalQuantities:
    """Evaluate all warped-scale quantities for a batch of intervals: the
    three stages composed. The path is given by its doubly-warped values
    ``z_values`` (n, m+1). Non-finite results are not raised here; callers
    inspect ``finite()`` and treat failures as zero-density.
    """
    q = path_stage(warp_stage(model, params, x_knots, gamma), z_values, y_left, y_right)
    return density_stage(q, model, params, x_knots, gamma, y_left)


def euler_loglik(x_path: Path, alpha_path: Path, params: ParamVector, model: ModelSpec) -> float:
    """Transition-product log likelihood of a joint skeleton under the

    locally-Gaussian scheme; used as an independent oracle in tests. The
    step covariance couples the two coordinates through the leverage
    correlation and is singular at |rho| = 1.
    """
    if not np.array_equal(x_path.times, alpha_path.times):
        raise ValidationError("skeleton grids are not aligned")
    if len(x_path) < 2:
        raise ValidationError("skeleton needs at least two knots")
    t = x_path.times
    dt = np.diff(t)
    xv = x_path.values
    av = alpha_path.values

    mx = np.asarray(model.drift_x(t[:-1], xv[:-1], av[:-1], params), dtype=float)
    sx = np.asarray(model.vol_x(av[:-1], params), dtype=float)
    rx = np.diff(xv) - mx * dt

    if not model.has_latent:
        var = sx * sx * dt
        return float(np.sum(-0.5 * (_LOG_2PI + np.log(var)) - rx * rx / (2.0 * var)))

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
    return float(np.sum(-_LOG_2PI - 0.5 * np.log(det) - 0.5 * quad))
