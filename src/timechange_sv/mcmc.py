"""Metropolis-within-Gibbs sampler on the doubly-warped path coordinates.

The chain state per observation interval is the vector of path values at the
stored doubly-warped times, where the dominating measure is a parameter-free
standard Brownian motion. Updates:

* path values: independence proposals from the dominating measure, accepted
  with the Girsanov ratio alone (endpoint terms cancel);
* the latent path: overlapping blocks proposed as Brownian bridges between
  fixed flanking knots (the terminal block gets a free Brownian end);
* parameters that deform the warped time scales: random walks on an
  unconstrained scale;
* drift parameters: plain random walks (no time scales move).

``sweep`` runs ``_update_z_rows``, ``_gamma_anchored_pass`` and
``update_gamma_block`` (both ``_gamma_blocks``) and ``_update_param``, and
returns each kernel's accepted and attempted moves: ``run_chain`` adapts the
random-walk scales from them in burn-in and counts them after it. Every
move that warps time, a time-scale parameter or a latent block, proposes
through ``_warped_proposal``: it draws the path values at the new warped
times retrospectively, conditional on the stored knots. The path move and a
drift move recompute only the density terms they move (``likelihood`` says
which) and keep the cached bits of the others. Only the m+2 knots per
interval are ever persisted; finer retrospective draws are transient.

Every kernel ends in ``_metropolis``, the one place the state (the cache,
latent path included, and the parameters) changes after construction. It
forms each row's log ratio from the proposed density terms, accepts, and
copies the accepted rows of the proposed fields into the cache's own arrays
(and sets the parameters), so rejected proposals leave the state
bit-identical. It has two uniform rules: a move of independent groups of
rows (the path move, one row each; an anchored pass, one block each) draws
one uniform per group, and a move accepted as a whole (the terminal block,
a parameter) draws one only when its ratio is finite and negative.

What a sweep needs of the fixed knot grid is built once per state: the knot
steps (the models are time-homogeneous, so no density reads the knot times
themselves), and for each block length the ``LatentBlocks`` of every pass
(``AugmentedState.block_passes``, which lays out the block schedule).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import NumericsError, ValidationError, allocating, is_integer, is_number
from .likelihood import (
    IntervalQuantities, interval_quantities, log_g_term, log_gamma_term, path_stage, warp_stage,
)
from .models import ModelSpec
from .paths import Path, RandomStream
from .timechange import centre_on_chord, refine_rows

DEFAULT_RW_SCALE = 0.25  # random-walk scale of a parameter that rw_scales leaves out
TARGET_ACCEPT = 0.3  # the acceptance rate burn-in steers each random-walk scale toward


@dataclass(frozen=True)
class PriorSpec:
    """Independent flat priors, truncated to per-parameter intervals.

    Unbounded sides make the prior improper, which is fine for sampling
    (only ratios are used) but not for drawing from the prior.
    """

    bounds: dict[str, tuple[float, float]]

    @classmethod
    def from_model(cls, model: ModelSpec, overrides: Optional[dict] = None) -> "PriorSpec":
        bounds = {k: (model.supports[k].lo, model.supports[k].hi) for k in model.param_names}
        if overrides:
            for name, (lo, hi) in overrides.items():
                if name not in bounds:
                    raise ValidationError(f"prior override for unknown parameter {name!r}")
                blo, bhi = bounds[name]
                lo, hi = float(lo), float(hi)
                if not (blo <= lo < hi <= bhi):
                    raise ValidationError(
                        f"prior bounds for {name} must be a nonempty subinterval of the support"
                    )
                bounds[name] = (lo, hi)
        return cls(bounds)

    def outside(self, params: dict[str, float]) -> list[str]:
        """Each of ``params`` outside its open box, as "name = value not in (lo,
        hi)"; every box lies inside its parameter's support."""
        return [f"{k} = {params[k]} not in ({lo}, {hi})"
                for k, (lo, hi) in self.bounds.items() if not lo < params[k] < hi]

    def _finite(self, names: Iterable[str]) -> dict[str, tuple[float, float]]:
        """The boxes of ``names``, which must all be finite."""
        bounds = {k: self.bounds[k] for k in names}
        improper = [k for k, (lo, hi) in bounds.items() if not math.isfinite(hi - lo)]
        if improper:
            raise ValidationError(f"the prior of {improper} is improper: give it finite bounds")
        return bounds

    def sample(self, rng: RandomStream, names: Iterable[str]) -> dict[str, float]:
        """One prior draw of each of ``names``, one uniform each, in that order."""
        return {k: lo + (hi - lo) * float(rng.uniform())
                for k, (lo, hi) in self._finite(names).items()}

    def midpoint(self, names: Iterable[str]) -> dict[str, float]:
        """The box midpoint of each of ``names``."""
        return {k: 0.5 * (lo + hi) for k, (lo, hi) in self._finite(names).items()}

    def cdf(self, name: str, x) -> np.ndarray:
        lo, hi = self._finite([name])[name]
        return np.clip((np.asarray(x, dtype=float) - lo) / (hi - lo), 0.0, 1.0)


@dataclass
class SamplerConfig:
    """Settings of one chain. Burn-in steers each random-walk scale, from
    ``rw_scales`` or ``DEFAULT_RW_SCALE``, toward ``TARGET_ACCEPT``.

    ``block_len`` is the number of observation intervals per latent block;
    it is at least 2, so that every interior observation knot lies inside
    some block. A ``block_len`` past the data gives blocks of the whole data.

    The prior-recovery gate reads ``m``, ``n_iter``, ``seed``, ``block_len``,
    ``rw_scales``, ``fixed`` and ``validate_every``, and needs ``n_burn`` = 0.
    """

    m: int
    n_iter: int
    n_burn: int
    block_len: int = 2
    thin: int = 1
    seed: int = 0
    rw_scales: dict[str, float] = field(default_factory=dict)
    fixed: tuple[str, ...] = ()
    validate_every: int = 0
    chains: int = 1

    _INTEGERS = ("m", "n_iter", "n_burn", "block_len", "thin", "seed", "validate_every", "chains")

    def __post_init__(self):
        for name in self._INTEGERS:
            value = getattr(self, name)
            if not is_integer(value):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if not (isinstance(self.rw_scales, dict) and all(
                is_number(v) and v > 0.0 for v in self.rw_scales.values())):
            raise ValidationError("rw_scales must map parameter names to finite positive numbers")
        fixed = self.fixed
        if not (isinstance(fixed, (list, tuple)) and all(isinstance(p, str) for p in fixed)):
            raise ValidationError(f"fixed must be a list or tuple of names, got {fixed!r}")
        for name in ("seed", "validate_every"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.m < 1:
            raise ValidationError("need at least one imputed point per interval")
        if self.n_iter <= 0 or self.n_burn < 0 or self.n_burn >= self.n_iter:
            raise ValidationError("need 0 <= n_burn < n_iter")
        if self.thin < 1:
            raise ValidationError("thin must be >= 1")
        if self.block_len < 2:
            raise ValidationError("block_len must be >= 2")
        if self.chains < 1:
            raise ValidationError("chains must be >= 1")


@dataclass
class Trace:
    """Posterior draws plus bookkeeping."""

    param_names: tuple[str, ...]
    draws: np.ndarray  # (rows, n_params)
    logliks: np.ndarray  # augmented log likelihood per recorded draw
    iters: np.ndarray
    acceptance: dict[str, float]

    def column(self, name: str) -> np.ndarray:
        return self.draws[:, self.param_names.index(name)]

    @property
    def n_rows(self) -> int:
        return self.draws.shape[0]


class AugmentedState:
    """Full MCMC state: per-interval warped paths, latent path, parameters.

    Built from an explicit skeleton, which its paths reproduce exactly:
    (n, m+2) windows of ``x_values`` on the working coordinate and of the
    latent path ``gamma``, neighbours sharing their observation knot. The
    doubly-warped coordinates are derived from the skeleton, then the cache
    from them, so that later engine passes reproduce it bit for bit.

    ``cache`` holds the latent windows and the engine outputs of the current
    state, one ``IntervalQuantities`` whose arrays the state owns for its
    whole life; only ``_metropolis`` writes into them, or sets ``params``.
    Other array shapes (n = #intervals, m = imputed points per interval):
        x_flat, x_steps : (n (m+1) + 1,) knot times and (n, m+1) their steps
        y, log_jac      : (n + 1,) observations and (n,) their Jacobians
    """

    def __init__(self, model, params, obs_times, x_values, gamma, prior, fixed=(),
                 log_jac=None):
        if outside := prior.outside(params):
            raise ValidationError(
                f"initial parameters violate the prior support: {'; '.join(outside)}")
        x_values = np.asarray(x_values, dtype=float)
        gamma = np.array(gamma, dtype=float)
        n, cols = x_values.shape
        if gamma.shape != x_values.shape:
            raise ValidationError("latent windows do not match the path windows")
        # equal NaNs pass here: a NaN observation is the non-finite check's below
        both = np.stack((x_values, gamma))
        if not np.array_equal(both[:, 1:, 0], both[:, :-1, -1], equal_nan=True):
            raise ValidationError("interval skeletons disagree at shared observation knots")
        self.model = model
        self.params = params
        self.prior = prior
        self.free_names = model.free_names(fixed)
        if n < 1:
            raise ValidationError("need at least two observations")
        if gamma[0, 0] != 0.0:
            raise ValidationError("latent path must start at zero")
        self.m = m = cols - 2
        self.n_intervals = n
        self.y = y = np.concatenate((x_values[:, 0], x_values[-1:, -1]))
        self.log_jac = np.zeros(n) if log_jac is None else np.asarray(log_jac, dtype=float)
        self.x_flat = _flat_knots(np.asarray(obs_times, dtype=float), m)
        self.x_steps = np.diff(_windows(self.x_flat, m), axis=1)
        self._block_passes: dict[int, tuple[LatentBlocks, ...]] = {}
        w = self.warps(gamma=gamma)
        with np.errstate(all="ignore"):
            u1 = (y[1:] - w.adj[:, -1])[:, None]
            z = centre_on_chord(x_values[:, :-1] - w.adj[:, :-1], w.u[:, :-1], w.u[:, -1:],
                                y[:-1, None], u1)
        self.cache = self.quantities(w, z=z)
        if not all(np.isfinite(t).all() for t in self.cache.terms().values()):
            raise ValidationError("initial augmented posterior is non-finite")

    # -- views ------------------------------------------------------------

    def block_passes(self, block_len: int) -> tuple["LatentBlocks", ...]:
        """The latent-block passes of a sweep: each nonempty parity class of
        the anchored blocks, then the terminal block. Built once per block
        length.

        Blocks span L = min(block_len, n) observation intervals. Anchored
        blocks start at intervals 0, L - 1, 2 (L - 1), ... below n - L, so
        adjacent blocks share one observation knot and every interior
        observation knot is interior to some block; the terminal block, from
        interval n - L, has a free Brownian end and resamples the last knot.
        Alternate anchored blocks touch disjoint intervals, so each parity
        class runs as one batched update. Blocks of one interval would pin
        every interior observation knot, so they are allowed only when there
        is a single interval.
        """
        passes = self._block_passes.get(block_len)
        if passes is None:
            n = self.n_intervals
            if block_len < min(2, n):
                raise ValidationError(
                    f"block length must be at least {min(2, n)}, got {block_len}")
            length = min(block_len, n)
            starts = np.arange(0, n - length, max(length - 1, 1))
            passes = tuple(latent_blocks(self, parity, length, True)
                           for parity in (starts[0::2], starts[1::2]) if parity.size)
            passes += (latent_blocks(self, np.array([n - length]), length, False),)
            self._block_passes[block_len] = passes
        return passes

    # -- engine and cache management ----------------------------------------

    def quantities(self, warps, params=None, z=None, rows=slice(None)):
        """Engine outputs for ``rows`` on ``warps``, the output of
        ``self.warps`` for the same params and rows, which holds the latent
        windows; ``params`` and the path values ``z`` default to the
        state's own."""
        return interval_quantities(
            self.model,
            self.params if params is None else params,
            self.x_steps[rows],
            warps,
            self.y[:-1][rows],
            self.y[1:][rows],
            self.cache.z[rows] if z is None else z,
        )

    def warps(self, params=None, gamma=None, rows=slice(None)) -> IntervalQuantities:
        """The warp stage alone, for the doubly-warped times of a proposal."""
        return warp_stage(
            self.model,
            self.params if params is None else params,
            self.x_steps[rows],
            self.cache.gamma[rows] if gamma is None else gamma,
        )

    def log_likelihood(self) -> float:
        """Augmented log likelihood of the cache: Girsanov, endpoint (with
        the data Jacobian) and latent terms; flat prior constants excluded.
        The trace column."""
        q = self.cache
        return float(np.sum(q.log_g) + np.sum(q.log_f + self.log_jac) + np.sum(q.log_gamma))

    def validate_cache(self) -> None:
        """Raise ``NumericsError`` naming the first cache field that is not
        bit for bit that of a fresh engine pass on the state."""
        fresh = self.quantities(self.warps())
        for f in fields(fresh):
            if not np.array_equal(getattr(self.cache, f.name), getattr(fresh, f.name)):
                raise NumericsError(f"cached {f.name} differs from a fresh engine pass")


def _flat_knots(obs_times: np.ndarray, m: int) -> np.ndarray:
    """m evenly spaced knots inside each observation interval, and the observation times."""
    return np.append(np.linspace(obs_times[:-1], obs_times[1:], m + 2, axis=1)[:, :-1],
                     obs_times[-1])


def _windows(flat: np.ndarray, m: int) -> np.ndarray:
    return np.lib.stride_tricks.sliding_window_view(flat, m + 2, axis=-1)[..., :: m + 1, :]


def _transform_observations(model: ModelSpec, raw_values: np.ndarray):
    raw = np.asarray(raw_values, dtype=float)
    if model.obs_transform is None:
        return raw, np.zeros(raw.size - 1)
    if not (raw > 0.0).all():  # checked before any log; a NaN fails too
        i = int(np.argmin(raw > 0.0))
        raise ValidationError(f"observation {i} is {raw[i]}: {model.name} needs positive values")
    y = np.asarray(model.obs_transform(raw), dtype=float)
    log_jac = np.asarray(model.obs_log_jacobian(raw[1:]), dtype=float)
    return y, log_jac


def init_state(
    model: ModelSpec,
    params: dict[str, float],
    obs_times,
    obs_values,
    m: int,
    prior: PriorSpec,
    fixed: Iterable[str] = (),
) -> AugmentedState:
    """Fresh state: latent path at zero, observed path on the data chords."""
    y, log_jac = _transform_observations(model, obs_values)
    with allocating(f"a state of m={m} imputed points per interval"):
        x_values = y[:-1, None] + np.linspace(0.0, 1.0, m + 2) * (y[1:] - y[:-1])[:, None]
    x_values[:, -1] = y[1:]
    return AugmentedState(model, params, obs_times, x_values, np.zeros_like(x_values), prior,
                          fixed, log_jac)


# ---------------------------------------------------------------------------
# Metropolis pieces


def _metropolis(state: AugmentedState, rng: RandomStream, new: dict, rows=slice(None),
                group: Optional[int] = None, log_jac: float = 0.0, *,
                params: Optional[dict] = None) -> np.ndarray:
    """Accept or reject the proposal ``new`` (cache field name to the values
    of the cache ``rows``) and write its accepted rows by index into the
    cache's own arrays; returns the accept flag of each run of ``group``
    rows, or of the whole move. A row's log ratio is its change of the
    density terms in ``new``, summed in ``terms()`` order, -inf where not
    finite and without a warning; a whole move adds ``log_jac`` and once
    accepted sets ``params``, if given.
    """
    cache = state.cache
    with np.errstate(invalid="ignore", over="ignore"):
        diffs = [new[name] - old[rows] for name, old in cache.terms().items() if name in new]
        log_ratio = sum(diffs[1:], diffs[0])
    log_ratio[~np.isfinite(log_ratio)] = -np.inf
    if group is None:
        r = float(log_ratio.sum()) + log_jac
        acc = np.array([math.isfinite(r) and (r >= 0.0 or math.log(float(rng.uniform())) < r)])
        group = log_ratio.size
    else:
        ratios = log_ratio.reshape(-1, group).sum(axis=1)
        acc = np.log(rng.uniform(ratios.shape)) < ratios
    keep = np.repeat(acc, group)
    if not keep.any():
        return acc
    if params is not None:
        state.params = params
    kept = np.flatnonzero(keep)  # take() on these beats a boolean mask on 2-d rows
    written = np.arange(state.n_intervals)[rows][kept]
    for name, value in new.items():
        getattr(cache, name)[written] = value.take(kept, axis=0)
    return acc


def _warped_proposal(state: AugmentedState, rng: RandomStream, rows, params=None, gamma=None):
    """The cache fields of ``rows`` under a move that warps time.

    The new ``params`` or latent windows ``gamma`` of ``rows`` (default: the
    state's own) give new doubly-warped times. The path values there are
    drawn retrospectively, conditional on the stored knots, and the path and
    density stages run on them. A row whose new times are not finite keeps
    its stored times for the draw and gets a -inf endpoint term, so that
    ``_metropolis`` rejects it.
    """
    cache = state.cache
    w = state.warps(params=params, gamma=gamma, rows=rows)
    bad = ~np.isfinite(w.z_times).all(axis=1)
    new_times = np.where(bad[:, None], cache.z_times[rows], w.z_times) if bad.any() else w.z_times
    z_new = refine_rows(cache.z_times[rows], cache.z[rows], new_times, rng)
    new = vars(state.quantities(w, params=params, z=z_new, rows=rows))
    new["log_f"][bad] = -np.inf
    return new


def _update_z_rows(state: AugmentedState, rng: RandomStream) -> np.ndarray:
    """Independence update of the doubly-warped path values of every
    interval.

    Proposals are standard Brownian motions at the intervals' current warped
    times, so only the Girsanov term of the ratio can change: the endpoint
    and latent terms do not read the interior path values. Each row is
    accepted on its own. Returns the per-row acceptance mask.
    """
    cache = state.cache
    steps = np.diff(cache.z_times, axis=1)
    z_prop = np.zeros_like(cache.z_times)
    np.cumsum(np.sqrt(steps) * rng.normal(steps.shape), axis=1, out=z_prop[:, 1:])

    q = path_stage(cache, z_prop, state.y[:-1], state.y[1:])
    log_g = log_g_term(q, state.model, state.params)
    return _metropolis(state, rng, {"z": q.z, "U": q.U, "log_g": log_g}, group=1)


def _propose_param(state: AugmentedState, name: str, scale: float, rng: RandomStream):
    """A random-walk step of ``name`` on its unconstrained scale: the new
    parameters and the log Jacobian of the step, or (None, 0.0) when the
    candidate leaves the prior support."""
    sup = state.model.supports[name]
    cur = state.params[name]
    phi = sup.to_unconstrained(cur) + scale * float(rng.normal())
    try:
        cand = sup.from_unconstrained(phi)
    except OverflowError:
        return None, 0.0
    params = {**state.params, name: cand}
    if state.prior.outside(params):
        return None, 0.0
    return params, sup.log_jacobian(cand) - sup.log_jacobian(cur)


def _update_param(state: AugmentedState, name: str, rng: RandomStream, scale: float) -> bool:
    """Random-walk update of one scalar parameter, accepted jointly across
    intervals.

    A parameter that deforms the warped time scales proposes through
    ``_warped_proposal``. A drift parameter reuses the cached warps and
    paths and recomputes only the density terms it moves: ``log_gamma`` for
    the model's latent-drift parameters, and ``log_g`` for the others and,
    with leverage, for those too.
    """
    params, log_jac = _propose_param(state, name, scale, rng)
    if params is None:
        return False
    if name in state.model.timescale_params:
        new = _warped_proposal(state, rng, slice(None), params=params)
    else:
        latent = name in state.model.latent_drift_params
        new = {}
        if not latent or state.model.rho(params) != 0.0:
            new["log_g"] = log_g_term(state.cache, state.model, params)
        if latent:
            new["log_gamma"] = log_gamma_term(state.cache, state.model, params, state.x_steps)
    return bool(_metropolis(state, rng, new, log_jac=log_jac, params=params)[0])


# ---------------------------------------------------------------------------
# Latent-path blocks


@dataclass(frozen=True)
class LatentBlocks:
    """Disjoint latent blocks of ``length`` observation intervals, and what
    their proposals need of the fixed knot grid."""

    length: int
    anchored: bool  # keeps its right knot (a bridge), or has a free end
    sqrt_steps: np.ndarray  # (blocks, length (m+1)) square roots of each block's knot steps
    frac: np.ndarray  # each knot's fraction of its block's time span
    rows: np.ndarray  # the blocks' intervals, block-major


def latent_blocks(state: AugmentedState, firsts: np.ndarray, length: int,
                  anchored: bool) -> LatentBlocks:
    """The blocks of ``length`` intervals from each of ``firsts``."""
    m = state.m
    seg_t = state.x_flat[(firsts * (m + 1))[:, None] + np.arange(length * (m + 1) + 1)]
    frac = (seg_t - seg_t[:, :1]) / (seg_t[:, -1:] - seg_t[:, :1])
    rows = (firsts[:, None] + np.arange(length)[None, :]).ravel()
    return LatentBlocks(length, anchored, np.sqrt(seg_t[:, 1:] - seg_t[:, :-1]), frac, rows)


def _gamma_blocks(state: AugmentedState, blocks: LatentBlocks, rng: RandomStream) -> np.ndarray:
    """Update of the latent ``blocks``; returns the per-block acceptance mask.

    Each block keeps its left knot. An anchored block keeps its right knot
    too and proposes a Brownian bridge; the terminal block proposes a free
    Brownian end. Either is the dominating-measure conditional, so the
    ratio is the block's change of the density terms. Blocks share at most
    their anchor knots, so one accept/reject per block composes exactly like
    updating them one at a time.
    """
    g = state.cache.gamma[blocks.rows].reshape(-1, blocks.length, state.m + 2)
    seg_g = np.concatenate((g[:, :, :-1].reshape(len(g), -1), g[:, -1, -1:]), axis=1)
    w = np.zeros(seg_g.shape)
    np.cumsum(blocks.sqrt_steps * rng.normal(blocks.sqrt_steps.shape), axis=1, out=w[:, 1:])
    seg_prop = seg_g[:, :1] + w  # w[:, 0] = 0 keeps the left knot exactly
    if blocks.anchored:
        seg_prop -= blocks.frac * w[:, -1:]
        seg_prop += blocks.frac * (seg_g[:, -1:] - seg_g[:, :1])
        seg_prop[:, -1] = seg_g[:, -1]

    gamma = _windows(seg_prop, state.m).reshape(-1, state.m + 2)
    new = _warped_proposal(state, rng, blocks.rows, gamma=gamma)
    return _metropolis(state, rng, new, blocks.rows, blocks.length if blocks.anchored else None)


def _gamma_anchored_pass(state: AugmentedState, blocks: LatentBlocks,
                         rng: RandomStream) -> np.ndarray:
    """One batched pass over disjoint anchored blocks (``_gamma_blocks``)."""
    return _gamma_blocks(state, blocks, rng)


def update_gamma_block(state: AugmentedState, block: LatentBlocks, rng: RandomStream) -> bool:
    """The terminal block: a block with a free end that reaches the last knot."""
    return bool(_gamma_blocks(state, block, rng)[0])


# ---------------------------------------------------------------------------
# Sweep orchestration


def _scalar_update_order(state: AugmentedState) -> list[str]:
    """Free time-scale parameters, then free drift parameters, then alpha0."""
    ts = state.model.timescale_params
    free = [p for p in state.free_names if p != "alpha0"]
    last = ["alpha0"] if "alpha0" in state.free_names else []
    return [p for p in ts if p in free] + [p for p in free if p not in ts] + last


def sweep(
    state: AugmentedState,
    rng: RandomStream,
    scales: dict[str, float],
    block_len: int = 2,
) -> dict[str, tuple[int, int]]:
    """One full Gibbs sweep; returns each kernel's (accepted, attempted)
    moves: "z" has one per interval, "gamma" one per latent block of every
    pass, and each free parameter one."""
    acc = {"z": _update_z_rows(state, rng)}  # kernel -> accept flag of each move
    if state.model.has_latent:
        *anchored, terminal = state.block_passes(block_len)
        acc["gamma"] = np.concatenate(
            [*(_gamma_anchored_pass(state, blocks, rng) for blocks in anchored),
             [update_gamma_block(state, terminal, rng)]])
    for name in _scalar_update_order(state):
        acc[name] = [_update_param(state, name, rng, scales.get(name, DEFAULT_RW_SCALE))]
    return {name: (int(np.count_nonzero(flags)), len(flags)) for name, flags in acc.items()}


def run_chain(
    config: SamplerConfig,
    data,
    model: ModelSpec,
    prior: Optional[PriorSpec] = None,
    init_params=None,
) -> Trace:
    """Run one chain on ``data`` (an object with .times and .values).

    The data are checked as a ``Path`` before any sweep: equal lengths,
    finite entries, strictly increasing times. ``init_params`` is a dict of
    starting values, or None for the model defaults; a ``block_len`` past
    the data gives whole-data blocks. Draws are recorded after burn-in at
    the configured thinning; the log-likelihood column is the augmented log
    likelihood (flat-prior constants excluded). ``acceptance`` counts the
    sweeps after burn-in.
    """
    prior = prior if prior is not None else PriorSpec.from_model(model)
    data = Path.from_arrays(data.times, data.values)

    params = model.make_params(init_params)
    state = init_state(model, params, data.times, data.values, config.m, prior, config.fixed)
    return _run_state(state, config, RandomStream(config.seed))


def _run_state(state: AugmentedState, config: SamplerConfig, rng: RandomStream) -> Trace:
    """``run_chain``'s chain from ``state``, which it moves, drawing from
    ``rng``. It calls ``sweep`` through this module, so that a wrapper on
    ``mcmc.sweep`` sees every sweep."""
    if not state.free_names:
        raise ValidationError(
            f"every parameter of {state.model.name} is fixed: there is nothing to draw")
    unknown = sorted(set(config.rw_scales) - set(state.free_names))
    if unknown:
        raise ValidationError(f"rw_scales names no free parameter of {state.model.name}: {unknown}")
    scales = {name: config.rw_scales.get(name, DEFAULT_RW_SCALE) for name in state.free_names}
    counts: dict[str, tuple[int, int]] = {}  # kernel -> (accepted, attempted) after burn-in

    with allocating(f"a trace of n_iter={config.n_iter} sweeps"):
        iters = np.arange(config.n_burn, config.n_iter, config.thin)
        draws = np.empty((iters.size, len(state.free_names)))
        logliks = np.empty(iters.size)

    for it in range(config.n_iter):
        moves = sweep(state, rng, scales, config.block_len)
        if it < config.n_burn:  # Robbins-Monro steps of each log scale
            eta = (it + 1.0) ** -0.6
            for name in scales:
                scales[name] = float(np.clip(
                    scales[name] * math.exp(eta * (moves[name][0] - TARGET_ACCEPT)), 1e-8, 1e8))
        else:
            for name, (acc, att) in moves.items():
                total = counts.get(name, (0, 0))
                counts[name] = (total[0] + acc, total[1] + att)
            row, skip = divmod(it - config.n_burn, config.thin)
            if not skip:
                draws[row] = [state.params[p] for p in state.free_names]
                logliks[row] = state.log_likelihood()
        if config.validate_every and (it + 1) % config.validate_every == 0:
            state.validate_cache()

    return Trace(
        param_names=state.free_names,
        draws=draws,
        logliks=logliks,
        iters=iters,
        acceptance={name: acc / att for name, (acc, att) in counts.items()},
    )


_JOB: Optional[Callable] = None  # the job of the running run_jobs; forked workers inherit it


def _run_stride(first: int, step: int, n_jobs: int) -> list:
    """``_JOB(k)`` for k = first, first + step, ... below ``n_jobs``, or the
    exception it raised; stops at the first failure."""
    out = []
    for k in range(first, n_jobs, step):
        try:
            out.append(_JOB(k))
        except Exception as exc:
            out.append(exc)
            break
    return out


def run_jobs(job: Callable[[int], object], n_jobs: int) -> list:
    """``job(k)`` for k = 0 .. n_jobs - 1, or the exception it raised, in job order.

    P = min(n_jobs, usable CPUs) processes run them, process w the jobs w,
    w + P, ...: process 0 is this one, the others are forked workers. Each
    stops at its own first failure and leaves its later jobs None, so the
    first outcome that is not a result is an exception. The workers inherit
    ``job`` through the fork, so it may be a closure; only strides and
    results are pickled. Without fork, every job runs here. Fork, not spawn:
    a spawned worker re-imports numpy and this package, which on 2 CPUs
    took back most of the gain of a second process. The pool forks at the
    first submit, before it starts its manager thread.
    """
    global _JOB
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n_proc, pool, _JOB = max(1, min(n_jobs, cpus or 1)), None, job
    try:
        if n_proc > 1:
            import multiprocessing  # only here: both are slow to import
            from concurrent.futures import ProcessPoolExecutor
            try:
                pool = ProcessPoolExecutor(n_proc - 1, mp_context=multiprocessing.get_context("fork"))
            except ValueError:
                n_proc = 1
        futures = [pool.submit(_run_stride, w, n_proc, n_jobs) for w in range(1, n_proc)]
        strides = [_run_stride(0, n_proc, n_jobs), *(f.result() for f in futures)]
    finally:
        _JOB = None
        if pool is not None:
            pool.shutdown()
    outcomes: list = [None] * n_jobs
    for w, results in enumerate(strides):
        outcomes[w: w + n_proc * len(results): n_proc] = results
    return outcomes
