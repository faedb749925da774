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


def first_warp(steps: np.ndarray, sx: np.ndarray, rho: float):
    """Integrated squared leverage-reduced volatility, batched over rows.

    Returns ``(veff2, u)``: the squared volatility (1 - rho^2) sx^2 at every
    knot, and its left-point cumulative integral over the knot steps
    ``steps`` (zero at the first knot), i.e. the warped knot times.
    """
    veff2 = (1.0 - rho * rho) * sx * sx
    return veff2, cumulative_left_riemann(steps, veff2)


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
    times drawn before it in its bracket. One bridge step runs rank by rank:
    a time t conditions on its left neighbour (t_l, v_l), the stored knot at
    rank 0 and the new time before it above, and on the right knot (t_c,
    v_c), with mean ((t - t_l) v_c + (t_c - t) v_l) / span and variance
    (t - t_l)(t_c - t) / span, span = t_c - t_l. Past the last stored knot
    the same step takes t_c - t = span = 1 and v_c = 0, which is
    v_l + sqrt(t - t_l) z bit for bit (a v_l of -0.0 adds as +0.0).
    """
    S, V, Tn = (np.asarray(a, dtype=float) for a in (stored_times, stored_values, new_times))
    n, k = S.shape
    j = Tn.shape[1]
    # flat index of each new time's left knot: its merged position, less the
    # new times up to and including it
    merged = np.argsort(np.concatenate((S, Tn), axis=1), axis=1, kind="stable")
    at = (np.flatnonzero(merged >= k) - np.arange(1, n * j + 1)).reshape(n, j)
    del merged
    left = at - (np.arange(n) * k)[:, None]
    if (left < 0).any() or not np.isfinite(Tn).all():
        raise ValidationError("new times must be finite and not precede the first stored knot")
    Sf, Vf, Tf = S.ravel(), V.ravel(), Tn.ravel()
    out = Vf[at]
    todo = Sf[at] != Tn
    if not todo.any():
        return out
    # rank >= 1: the new time before it is pending in the same bracket. A run
    # of them has consecutive flat indices and ranks 1, 2, ...; rank 0 keeps
    # its row-major order and only the later times are sorted by rank.
    later = np.zeros((n, j), dtype=bool)
    later[:, 1:] = (at[:, 1:] == at[:, :-1]) & todo[:, 1:] & todo[:, :-1]
    f0, fl = np.flatnonzero(todo ^ later), np.flatnonzero(later)
    pos = np.arange(fl.size)
    head = np.ones(fl.size, dtype=bool)
    head[1:] = fl[1:] != fl[:-1] + 1
    rank = pos - np.maximum.accumulate(np.where(head, pos, 0)) + 1
    by_rank = np.argsort(rank, kind="stable")
    fl, rank = fl[by_rank], np.concatenate((np.zeros_like(f0), rank[by_rank]))
    fi = np.concatenate((f0, fl))
    # where ``out`` holds each left neighbour's value: at rank 0, the new
    # time's own entry, which holds its left knot's value until drawn
    src = np.concatenate((f0, fl - 1))
    at, t = at.ravel()[fi], Tf[fi]
    t_l = np.concatenate((Sf[at[:f0.size]], Tf[src[f0.size:]]))
    # the right knot; past the last one, span = t_c - t = 1 and v_c = 0. The
    # arrays are reused in place once spent: temporaries of this size cost
    # more in allocation than in arithmetic.
    past = left.ravel()[fi] == k - 1
    at += ~past
    t_c, v_c = Sf[at], Vf[at]
    v_c[past] = 0.0
    span = t_c - t_l
    span[past] = 1.0
    d_c = np.subtract(t_c, t, out=t_c)
    d_c[past] = 1.0
    d_a = np.subtract(t, t_l, out=t_l)
    pull = v_c
    pull *= d_a
    noise = np.multiply(d_a, d_c, out=t)
    noise /= span
    np.sqrt(noise, out=noise)
    noise *= rng.normal(fi.size)
    flat = out.ravel()
    bounds = np.searchsorted(rank, np.arange(rank[-1] + 2))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        s = slice(lo, hi)
        flat[fi[s]] = (pull[s] + d_c[s] * flat[src[s]]) / span[s] + noise[s]
    return out
