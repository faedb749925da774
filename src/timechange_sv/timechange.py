"""Time-change transformations for one observation interval.

Two warps are applied per interval. The first stretches observation time by
the integrated squared volatility, making the path a unit-volatility
diffusion U on [0, T]. The second centers U around the chord between its
endpoints and stretches time again, producing a path Z on [0, +inf) whose
dominating measure is a parameter-free standard Brownian motion; the
endpoint of Z lives at time +inf with value 0 and is never stored.

Both warps are invertible at the stored knots up to rounding, and the warped
times of missing knots can always be filled in retrospectively by
conditioning on the stored ones. Because the second warp rounds, distinct
knots closer together than rounding (adjacent doubles, say) can merge onto
one doubly-warped time, and ``TimeGrid`` then rejects the repeated time with
``ValidationError``.

The warp formulas (``first_warp``, ``second_warp``, ``centre_on_chord``,
``uncentre_from_chord``) and the Brownian-bridge draws of ``refine_rows``
are batched over rows and never raise; the batched engine in
``likelihood.interval_quantities`` and the sampler run them directly. The
per-path operations (``build_eta``, ``z_time``, ``u_to_z``, ``z_to_u``,
``sample_bridge_point``, ``refine_retrospective``) check their inputs and
then apply the same functions to one row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericsError, ValidationError
from .models import ModelSpec, ParamVector
from .paths import Path, RandomStream, cumulative_left_riemann

# Relative margin below T at which the second warp is still evaluated; closer
# to T the warped time overflows.
_ENDPOINT_EPS = 1e-10


@dataclass(frozen=True)
class EtaProfile:
    """Monotone piecewise-linear map from observation time to warped time.

    Knots are (x_time, u_time) pairs with u_time[0] == 0 at the interval's
    left endpoint; between knots the map is linear, which keeps the inverse
    closed-form on each segment.
    """

    x_knots: np.ndarray
    u_knots: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x_knots, dtype=float)
        u = np.asarray(self.u_knots, dtype=float)
        if x.shape != u.shape or x.ndim != 1 or x.size < 2:
            raise ValidationError("time-warp profile needs matching 1-d knot arrays")
        if u[0] != 0.0:
            raise ValidationError("warped time must start at zero")
        if not (np.all(np.diff(x) > 0) and np.all(np.diff(u) > 0)):
            raise ValidationError("time-warp knots must be strictly increasing")
        object.__setattr__(self, "x_knots", x)
        object.__setattr__(self, "u_knots", u)

    @property
    def interval(self) -> tuple[float, float]:
        return float(self.x_knots[0]), float(self.x_knots[-1])

    @property
    def total(self) -> float:
        """Warped length T of the interval."""
        return float(self.u_knots[-1])

    def u_of_x(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        lo, hi = self.interval
        if np.any(t < lo) or np.any(t > hi):
            raise ValidationError("time outside the warp profile's domain")
        return np.interp(t, self.x_knots, self.u_knots)

    def x_of_u(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if np.any(u < 0.0) or np.any(u > self.total):
            raise ValidationError("warped time outside [0, T]")
        return np.interp(u, self.u_knots, self.x_knots)


def first_warp(times: np.ndarray, sx: np.ndarray, rho: float):
    """Integrated squared leverage-reduced volatility, batched over rows.

    Returns ``(veff2, u)``: the squared volatility (1 - rho^2) sx^2 at every
    knot, and its left-point cumulative integral over ``times`` (zero at the
    first knot), i.e. the warped knot times.
    """
    veff2 = (1.0 - rho * rho) * sx * sx
    return veff2, cumulative_left_riemann(times, veff2)


def build_eta(
    interval: tuple[float, float],
    gamma: Optional[Path],
    params: ParamVector,
    model: ModelSpec,
) -> EtaProfile:
    """Integrated squared volatility of the interval, as a warp profile.

    For constant-volatility models the profile is linear with slope vol^2.
    For stochastic-volatility models it is the left-point cumulative sum of
    the squared (leverage-reduced) volatility along the latent path, with
    knots wherever the latent path has knots inside the interval.
    """
    t_a, t_b = float(interval[0]), float(interval[1])
    if not t_b > t_a:
        raise ValidationError("interval endpoints must be increasing")

    if not model.has_latent:
        x = np.array([t_a, t_b])
        alpha = np.zeros(2)
    else:
        if gamma is None:
            raise ValidationError("stochastic-volatility models need a latent path")
        mask = (gamma.times >= t_a - 1e-12) & (gamma.times <= t_b + 1e-12)
        x = gamma.times[mask]
        if x.size < 2 or abs(x[0] - t_a) > 1e-9 or abs(x[-1] - t_b) > 1e-9:
            raise ValidationError("latent path must have knots at both interval endpoints")
        alpha = model.latent_values(gamma.values[mask], params)
    sx = np.asarray(model.vol_x(alpha, params), dtype=float)
    if np.any(sx <= 0.0) or not np.all(np.isfinite(sx)):
        raise NumericsError("volatility evaluation non-positive or non-finite")
    _veff2, u = first_warp(x, sx, model.rho(params))
    return EtaProfile(x, u)


def x_to_u(x_path: Path, eta: EtaProfile) -> Path:
    """Warp a path's times through the profile; values are untouched."""
    return Path.from_arrays(eta.u_of_x(x_path.times), x_path.values)


def u_to_x(u_path: Path, eta: EtaProfile) -> Path:
    """Inverse warp back to observation time."""
    return Path.from_arrays(eta.x_of_u(u_path.times), u_path.values)


def second_warp(t, total):
    """Second warp of the time axis, t -> t / (T (T - t)); batched, unchecked."""
    return t / (total * (total - t))


def _chord(u_times, total, y0, y1):
    return y0 + (u_times / total) * (y1 - y0)


def centre_on_chord(values, u_times, total, y0, y1):
    """Doubly-warped values of a path on [0, T) pinned at y0 and y1."""
    return (values - _chord(u_times, total, y0, y1)) / (total - u_times)


def uncentre_from_chord(z, u_times, total, y0, y1):
    """Inverse of ``centre_on_chord``: path values at the warped times."""
    return (total - u_times) * z + _chord(u_times, total, y0, y1)


def z_time(t, total: float):
    """Second warp of the time axis: t -> t / (T (T - t)) on [0, T).

    Strictly increasing and diverging as t approaches T; the endpoint itself
    is reserved for the implicit knot at +inf.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValidationError("warped time must be nonnegative")
    if np.any(t >= total * (1.0 - _ENDPOINT_EPS)):
        raise NumericsError("time too close to the interval end for the second warp")
    out = second_warp(t, total)
    return float(out) if out.ndim == 0 else out


def u_time(s, total: float):
    """Inverse of ``z_time``: s -> T^2 s / (1 + T s)."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ValidationError("doubly-warped time must be nonnegative")
    out = total * total * s / (1.0 + total * s)
    return float(out) if out.ndim == 0 else out


def u_to_z(u_path: Path, total: float) -> Path:
    """Center a bridge-like path at its chord and stretch it onto [0, +inf).

    The input carries its endpoint (T, y1); the output holds only the
    finite-time knots (the implicit endpoint at +inf has value 0).
    ``z_to_u`` inverts it up to rounding. Distinct knots closer together
    than rounding can merge under ``z_time``; the z grid then raises
    ``ValidationError``.
    """
    t = u_path.times
    if abs(t[-1] - total) > 1e-12 * max(1.0, total):
        raise ValidationError("input path must end exactly at time T")
    y0, y1 = float(u_path.values[0]), float(u_path.values[-1])
    interior_t = t[:-1]
    s = z_time(interior_t, total)
    z = centre_on_chord(u_path.values[:-1], interior_t, total, y0, y1)
    return Path.from_arrays(np.atleast_1d(s), z)


def z_to_u(z_path: Path, total: float, y0: float, y1: float) -> Path:
    """Inverse of ``u_to_z``; appends the endpoints (0, y0) and (T, y1)."""
    s = z_path.times
    t = u_time(s, total)
    vals = uncentre_from_chord(z_path.values, t, total, y0, y1)
    if s[0] != 0.0:
        t = np.concatenate(([0.0], t))
        vals = np.concatenate(([y0], vals))
    t = np.concatenate((t, [total]))
    vals = np.concatenate((vals, [y1]))
    return Path.from_arrays(t, vals)


# ---------------------------------------------------------------------------
# Retrospective refinement


def refine_rows(
    stored_times: np.ndarray,
    stored_values: np.ndarray,
    new_times: np.ndarray,
    rng: RandomStream,
) -> np.ndarray:
    """Values of Brownian paths at ``new_times``, conditional on stored knots.

    Batched over rows: all inputs are (n, .) arrays with each row sorted
    increasing (stored times strictly). Times that exactly match a stored
    knot reuse its value and consume no randomness. A new time between two
    stored knots is drawn from the conditional bridge; beyond the last
    stored knot it is an unconditioned Brownian increment from its left
    neighbour. Multiple new times sharing a bracket are filled left to
    right, each conditioning on the previously drawn one. A new time that is
    not finite, or precedes the first stored knot, raises ``ValidationError``.

    Brackets come from one stable sort per row of the stored and new times
    together, stored first among ties, so a search costs O(m log m) per row
    and is exact. The standard normals are drawn in one call, in the order
    rank-major then row-major, where the rank of a new time counts the new
    times drawn before it in its bracket.
    """
    one_row = np.ndim(stored_times) == 1
    S, V, Tn = (np.atleast_2d(np.asarray(a, dtype=float))
                for a in (stored_times, stored_values, new_times))
    n, k = S.shape
    j = Tn.shape[1]
    cols = np.arange(j)
    # left knot of each new time: merged position - column - 1
    order = np.argsort(np.concatenate((S, Tn), axis=1), axis=1, kind="stable")
    left = (np.flatnonzero(order >= k) % (k + j)).reshape(n, j) - cols - 1
    at = left + (np.arange(n) * k)[:, None]  # flat index of the left knot
    Sf, Vf, Tf = S.ravel(), V.ravel(), Tn.ravel()
    out = Vf[at]
    todo = (left < 0) | (Sf[at] != Tn)
    if not todo.any():
        return out[0] if one_row else out
    if np.any(left[todo] < 0) or not np.all(np.isfinite(Tn[todo])):
        raise ValidationError("new times must be finite and not precede the first stored knot")
    run = np.zeros((n, j), dtype=bool)
    run[:, 1:] = (left[:, 1:] == left[:, :-1]) & todo[:, 1:] & todo[:, :-1]
    rank = (cols - np.maximum.accumulate(np.where(run, 0, cols), axis=1)).ravel()

    # pending times, rank-major then row-major: the order of the draws
    fi = np.flatnonzero(todo)
    fi = fi[np.argsort(rank[fi].astype(np.min_scalar_type(j)), kind="stable")]
    rk = rank[fi]
    ai = at.ravel()[fi]
    hr = left.ravel()[fi] < k - 1
    ci = np.where(hr, ai + 1, ai)
    t_a = np.where(rk == 0, Sf[ai], Tf[fi - 1])
    t_b, t_c, v_c = Tf[fi], Sf[ci], Vf[ci]
    span = np.where(hr, t_c - t_a, 1.0)
    var = np.where(hr, (t_b - t_a) * (t_c - t_b) / span, t_b - t_a)
    noise = np.sqrt(var) * rng.normal(fi.size)
    v_a = Vf[ai]
    flat = out.ravel()
    bounds = np.searchsorted(rk, np.arange(rk[-1] + 2))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        s = slice(lo, hi)
        if lo:  # rank >= 1 conditions on the draw to its left
            v_a[s] = flat[fi[s] - 1]
        mean = ((t_b[s] - t_a[s]) * v_c[s] + (t_c[s] - t_b[s]) * v_a[s]) / span[s]
        flat[fi[s]] = np.where(hr[s], mean, v_a[s]) + noise[s]
    return out[0] if one_row else out


def sample_bridge_point(
    t_a: float, z_a: float, t_c: float, z_c: float, t_b: float, rng: RandomStream
) -> float:
    """Draw the value at ``t_b`` of a Brownian path pinned at the two
    flanking knots.

    The degenerate cases t_b == t_a and t_b == t_c return the corresponding
    endpoint deterministically, without consuming randomness; this keeps
    retrospective refinement deterministic at shared knots.
    """
    if not (t_a <= t_b <= t_c):
        raise ValidationError(f"bridge time {t_b} outside [{t_a}, {t_c}]")
    if t_c == t_a and z_a != z_c:
        raise ValidationError("degenerate bridge with conflicting endpoint values")
    return float(refine_rows(np.array([t_a, t_c]), np.array([z_a, z_c]), np.array([t_b]), rng)[0])


def refine_retrospective(z_path: Path, new_times, rng: RandomStream) -> Path:
    """Merge retrospectively drawn knots into a stored path.

    Existing knots are preserved exactly; only genuinely new times consume
    randomness. Returns the merged path on the union of the knot sets.
    """
    new_t = np.sort(np.asarray(new_times, dtype=float))
    if new_t.size == 0:
        return z_path
    if np.any(new_t < 0.0) or not np.all(np.isfinite(new_t)):
        raise ValidationError("new times must be finite and nonnegative")
    new_v = refine_rows(z_path.times, z_path.values, new_t, rng)

    fresh = ~np.isin(new_t, z_path.times)
    # Deduplicate repeated requests for the same fresh time (keep first draw).
    if fresh.any():
        _, first = np.unique(new_t[fresh], return_index=True)
        add_t = new_t[fresh][first]
        add_v = new_v[fresh][first]
    else:
        add_t = np.empty(0)
        add_v = np.empty(0)
    merged_t = np.concatenate((z_path.times, add_t))
    merged_v = np.concatenate((z_path.values, add_v))
    order = np.argsort(merged_t, kind="stable")
    return Path.from_arrays(merged_t[order], merged_v[order])
