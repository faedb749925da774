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
one doubly-warped time.

The warp formulas (``first_warp``, ``second_warp``, ``centre_on_chord``,
``uncentre_from_chord``) are batched over rows and never raise; the batched
engine in ``likelihood.interval_quantities`` and the sampler run them
directly. ``refine_rows`` draws the Brownian-bridge values at new
doubly-warped times, batched the same way.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .paths import RandomStream, cumulative_left_riemann


def first_warp(times: np.ndarray, sx: np.ndarray, rho: float):
    """Integrated squared leverage-reduced volatility, batched over rows.

    Returns ``(veff2, u)``: the squared volatility (1 - rho^2) sx^2 at every
    knot, and its left-point cumulative integral over ``times`` (zero at the
    first knot), i.e. the warped knot times.
    """
    veff2 = (1.0 - rho * rho) * sx * sx
    return veff2, cumulative_left_riemann(times, veff2)


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
