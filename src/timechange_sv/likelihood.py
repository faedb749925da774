"""Log-density components of the reparametrised posterior.

Everything is computed and stored in log space; acceptance ratios downstream
are formed as exp of log differences so that products over hundreds of
observation intervals never underflow.

The per-interval quantities are produced by one vectorised engine on
(n_intervals, m+2) arrays:

* ``warp_stage`` maps (params, gamma) to six warp fields: gamma itself, the
  latent values, the squared volatility, the warped times (the last is the
  warped length), the leverage adjustment and the doubly-warped times;
* ``interval_quantities`` runs the rest on those warps: ``path_stage``
  maps the doubly-warped path values z to the path U on the warped scale
  (the observation coordinate is U + adj), then the three density terms
  follow: the Girsanov term of the path (``log_g_term``), the endpoint
  term and the latent term (``log_gamma_term``).

The models are time-homogeneous, so the knot grid enters only through its
steps, which a sampler state computes once. The sampler runs only the
stages and terms whose inputs a move changes, and keeps the cached bits of
the rest, which equal those of a fresh pass:

* a path move runs the path stage on the cached warps, then ``log_g_term``;
  its endpoint and latent terms do not read the interior path values;
* a drift move of the observed path runs ``log_g_term`` alone, on the
  cached warps and paths; a move of a latent-drift parameter (the model's
  ``latent_drift_params``) runs ``log_gamma_term``, and with leverage
  ``log_g_term`` too, since U's drift then holds the latent drift;
* time-scale moves and latent blocks run the warp stage once for the new
  doubly-warped times, refine, then hand those warps to
  ``interval_quantities``, which runs the path stage and the densities on
  them.

The density formulas (``girsanov_sum``, ``log_end_gaussian``,
``unit_latent_drift``) and the warp formulas taken from ``timechange``,
``paths`` and ``models`` exist once, in the code the engine runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .models import ModelSpec
from .paths import cumulative_left_riemann
from .timechange import first_warp, second_warp, uncentre_from_chord

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class IntervalQuantities:
    """Vectorised per-interval state derived from (Z, gamma, params, data).

    Shapes: (n, m+2) for knot-level arrays, (n, m+1) for the finite
    doubly-warped knots, (n,) for per-interval scalars. The warp stage fills
    the first six fields, the path stage the next two, the densities the
    last three. A sampler state caches one instance with every field filled.
    """

    gamma: np.ndarray  # unit-diffusion latent path at the knots, neighbours sharing a knot
    alpha: np.ndarray  # latent values at the knots
    veff2: np.ndarray  # squared leverage-reduced volatility at the knots
    u: np.ndarray  # warped knot times, u[:, 0] = 0; u[:, -1] is the warped length T
    adj: np.ndarray  # cumulative leverage adjustment
    z_times: np.ndarray  # finite doubly-warped times of the knots
    z: Optional[np.ndarray] = None  # path values on the doubly-warped scale
    U: Optional[np.ndarray] = None  # path values on the warped scale (leverage removed)
    log_g: Optional[np.ndarray] = None  # per-interval Girsanov sums
    log_f: Optional[np.ndarray] = None  # per-interval endpoint Gaussian terms (no Jacobian)
    log_gamma: Optional[np.ndarray] = None  # per-interval latent-marginal contributions

    def terms(self) -> dict[str, np.ndarray]:
        """The three density terms by field name."""
        return {"log_g": self.log_g, "log_f": self.log_f, "log_gamma": self.log_gamma}


def girsanov_sum(b, dv, dt):
    """Left-point Girsanov log density of a unit-volatility path against
    Brownian motion, sum b dv - 1/2 sum b^2 dt, over the last axis."""
    return np.einsum("...j,...j->...", b, dv) - 0.5 * np.einsum("...j,...j->...", b * b, dt)


def log_end_gaussian(y1, y0, total):
    """Gaussian log density of the endpoint y1: mean y0, variance T."""
    return -0.5 * (_LOG_2PI + np.log(total)) - (y1 - y0) ** 2 / (2.0 * total)


def unit_latent_drift(model: ModelSpec, params: dict[str, float], alpha) -> np.ndarray:
    """Drift of the unit-diffusion latent path gamma = (alpha - alpha0) / scale:
    the latent drift at alpha divided by the constant latent volatility."""
    return np.asarray(model.drift_alpha(alpha, params), dtype=float) / model.latent_scale(params)


def warp_stage(model: ModelSpec, params: dict[str, float], steps, gamma) -> IntervalQuantities:
    """Warps of a batch of intervals with knot steps ``steps`` (n, m+1):
    depends on (params, gamma) only."""
    steps = np.asarray(steps, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    with np.errstate(all="ignore"):
        alpha = model.latent_values(gamma, params) if model.has_latent else np.zeros_like(gamma)
        sx = np.asarray(model.vol_x(alpha, params), dtype=float)
        rho = model.rho(params)
        veff2, u = first_warp(steps, sx, rho)
        if rho != 0.0 and model.has_latent:
            adj = cumulative_left_riemann(np.diff(gamma, axis=-1), rho * sx)
        else:
            adj = np.zeros_like(gamma)
        z_times = second_warp(u[:, :-1], u[:, -1:])
    return IntervalQuantities(gamma, alpha, veff2, u, adj, z_times)


def path_stage(w: IntervalQuantities, z, y_left, y_right) -> IntervalQuantities:
    """Path values U of ``z`` (n, m+1) on the warped scale, on the warps of
    ``w``; returns the warps of ``w`` with the path fields filled."""
    z = np.asarray(z, dtype=float)
    with np.errstate(all="ignore"):
        u1 = np.asarray(y_right, dtype=float) - w.adj[:, -1]
        U = np.empty_like(w.u)
        U[:, :-1] = uncentre_from_chord(
            z, w.u[:, :-1], w.u[:, -1:], np.asarray(y_left, dtype=float)[:, None],
            u1[:, None],
        )
        U[:, -1] = u1
    return IntervalQuantities(w.gamma, w.alpha, w.veff2, w.u, w.adj, w.z_times, z, U)


def log_g_term(q: IntervalQuantities, model: ModelSpec, params: dict[str, float]):
    """Girsanov term of the paths of ``q`` under ``params``, per interval: the
    drift is read at the path on the observation coordinate, U + adj; with
    leverage U drifts at drift_x - rho * vol_x * (gamma's drift)."""
    alpha = q.alpha[:, :-1]
    with np.errstate(all="ignore"):
        drift = np.asarray(model.drift_x(q.U[:, :-1] + q.adj[:, :-1], alpha, params), dtype=float)
        rho = model.rho(params)
        if rho != 0.0 and model.has_latent:
            sx = model.vol_x(alpha, params)
            drift = drift - rho * sx * unit_latent_drift(model, params, alpha)
        return girsanov_sum(drift / q.veff2[:, :-1], np.diff(q.U, axis=1), np.diff(q.u, axis=1))


def log_gamma_term(q: IntervalQuantities, model: ModelSpec, params: dict[str, float], steps):
    """Latent term of the latent windows of ``q``, with values ``q.alpha``,
    on knot steps ``steps``, per interval (zero without a latent path)."""
    if not model.has_latent:
        return np.zeros(q.gamma.shape[0])
    with np.errstate(all="ignore"):
        return girsanov_sum(unit_latent_drift(model, params, q.alpha[:, :-1]),
                            np.diff(q.gamma, axis=1), steps)


def interval_quantities(
    model: ModelSpec,
    params: dict[str, float],
    steps: np.ndarray,
    warps: IntervalQuantities,
    y_left: np.ndarray,
    y_right: np.ndarray,
    z_values: np.ndarray,
) -> IntervalQuantities:
    """Evaluate all warped-scale quantities for a batch of intervals with knot
    steps ``steps`` (n, m+1) on ``warps``, the output of ``warp_stage`` on
    the same (params, steps): the path stage, then the three log densities.
    The path is given by its doubly-warped values ``z_values`` (n, m+1). The
    endpoint term reads only the path's last value, which no path move
    changes. Non-finite results are not raised here; the sampler treats
    them as zero density.
    """
    q = path_stage(warps, z_values, y_left, y_right)
    with np.errstate(all="ignore"):
        q.log_f = log_end_gaussian(q.U[:, -1], np.asarray(y_left, dtype=float), q.u[:, -1])
    q.log_g = log_g_term(q, model, params)
    q.log_gamma = log_gamma_term(q, model, params, steps)
    return q
