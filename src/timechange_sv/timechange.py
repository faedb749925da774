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
    times drawn before it in its bracket. Rank 0, conditional on stored
    knots alone, is nearly every draw and runs on whole (n, j) arrays; the
    ranks above it run one pass per rank inside a bracket, and one
    cumulative sum per row past the last stored knot.
    """
    one_row = np.ndim(stored_times) == 1
    S, V, Tn = (np.atleast_2d(np.asarray(a, dtype=float))
                for a in (stored_times, stored_values, new_times))
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
    Sf, Vf = S.ravel(), V.ravel()
    t_a, out = Sf[at], Vf[at]
    todo = t_a != Tn
    if not todo.any():
        return out[0] if one_row else out
    # rank >= 1: the new time before it is pending in the same bracket
    later = np.zeros((n, j), dtype=bool)
    later[:, 1:] = (at[:, 1:] == at[:, :-1]) & todo[:, 1:] & todo[:, :-1]
    first = todo ^ later
    n0 = np.count_nonzero(first)
    draws = rng.normal(n0 + np.count_nonzero(later))

    # rank 0, in place on whole arrays; ``at`` becomes the right knot. With
    # d_a = t - t_a and d_c = t_c - t, the bridge has variance
    # d_a d_c / span and mean (d_a v_c + d_c v_a) / span; past the last
    # stored knot, variance d_a and mean v_a.
    past = left == k - 1
    at += ~past
    t_c, v_c = Sf[at], Vf[at]
    span = t_c - t_a
    span[past] = 1.0
    d_a = np.subtract(Tn, t_a, out=t_a)
    d_c = np.subtract(t_c, Tn, out=t_c)
    sd = d_a * d_c
    sd /= span
    np.copyto(sd, d_a, where=past)
    noise = np.zeros((n, j))
    noise[first] = draws[:n0]
    noise *= np.sqrt(sd, out=sd)
    mean = d_a
    mean *= v_c
    d_c *= out
    mean += d_c
    mean /= span
    np.copyto(mean, out, where=past)
    mean += noise
    np.copyto(out, mean, where=first)
    if n0 == draws.size:
        return out[0] if one_row else out

    # A run of later times in one bracket has consecutive flat indices and
    # ranks 1, 2, ...; sorted by rank, they take the rest of the draws.
    fi = np.flatnonzero(later)
    pos = np.arange(fi.size)
    head = np.ones(fi.size, dtype=bool)
    head[1:] = fi[1:] != fi[:-1] + 1
    rank = pos - np.maximum.accumulate(np.where(head, pos, 0)) + 1
    by_rank = np.argsort(rank, kind="stable")
    fi, rank, z = fi[by_rank], rank[by_rank], draws[n0:]
    flat, Tf = out.ravel(), Tn.ravel()
    t_b, t_a = Tf[fi], Tf[fi - 1]
    bridged = ~past.ravel()[fi]
    if bridged.any():
        # inside a bracket each rank conditions on the rank before it
        b, ta, tb, rk = fi[bridged], t_a[bridged], t_b[bridged], rank[bridged]
        c = at.ravel()[b]
        tc, vc = Sf[c], Vf[c]
        span = tc - ta
        noise = np.sqrt((tb - ta) * (tc - tb) / span) * z[bridged]
        bounds = np.searchsorted(rk, np.arange(rk[0], rk[-1] + 2))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            s = slice(lo, hi)
            flat[b[s]] = ((tb[s] - ta[s]) * vc[s] + (tc[s] - tb[s]) * flat[b[s] - 1]) / span[s] \
                + noise[s]
    if not bridged.all():
        # past the last stored knot each draw adds its noise to the one before
        # it: a cumulative sum down the columns of the transposed rows, from
        # the run's rank-0 value; the -0.0 before it adds without rounding
        beyond = ~bridged
        pf = fi[beyond]
        r, c = np.divmod(pf, j)
        tail = np.full((j, n), -0.0)
        tail[c, r] = np.sqrt(t_b[beyond] - t_a[beyond]) * z[beyond]
        one = rank[beyond] == 1
        tail[c[one] - 1, r[one]] = flat[pf[one] - 1]
        np.cumsum(tail, axis=0, out=tail)
        flat[pf] = tail[c, r]
    return out[0] if one_row else out
