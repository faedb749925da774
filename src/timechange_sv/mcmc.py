"""Metropolis-within-Gibbs sampler on the doubly-warped path coordinates.

The chain state per observation interval is the vector of path values at the
stored doubly-warped times, where the dominating measure is a parameter-free
standard Brownian motion. Updates:

* path values: independence proposals from the dominating measure, accepted
  with the Girsanov ratio alone (endpoint terms cancel);
* the latent path: overlapping blocks proposed as Brownian bridges between
  fixed flanking knots (the terminal block gets a free Brownian end);
* parameters that deform the warped time scales: random walks on an
  unconstrained scale, with the path values at the newly required warped
  times drawn retrospectively, conditional on the stored knots;
* drift parameters: plain random walks (no time scales move).

Each move is one batched kernel that ``sweep`` runs: ``_update_z_rows``,
``_gamma_anchored_pass`` and ``update_gamma_block`` (the terminal block),
and ``_update_param``. Rejected proposals leave the state bit-identical.
Only the m+2 knots per interval are ever persisted; finer retrospective
draws are transient.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Iterable, Optional

import numpy as np

from .errors import NumericsError, ValidationError
from .likelihood import (
    IntervalQuantities, density_stage, interval_quantities, path_stage, warp_stage,
)
from .models import ModelSpec, ParamVector
from .paths import RandomStream
from .timechange import centre_on_chord, refine_rows


@dataclass(frozen=True)
class PriorSpec:
    """Independent flat priors, truncated to per-parameter intervals.

    Unbounded sides make the prior improper, which is fine for sampling
    (only ratios are used) but not for drawing from the prior.
    """

    bounds: dict[str, tuple[float, float]]

    @classmethod
    def from_model(cls, model: ModelSpec, overrides: Optional[dict] = None) -> "PriorSpec":
        bounds = {}
        for name in model.param_names:
            sup = model.supports[name]
            if sup.kind == "positive":
                bounds[name] = (0.0, math.inf)
            elif sup.kind == "interval":
                bounds[name] = (sup.lo, sup.hi)
            else:
                bounds[name] = (-math.inf, math.inf)
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

    def in_support(self, params: ParamVector) -> bool:
        return all(
            self.bounds[k][0] < params[k] < self.bounds[k][1] if k in self.bounds else True
            for k in params.names
        ) and params.in_support()

    def is_proper(self) -> bool:
        return all(math.isfinite(hi - lo) for lo, hi in self.bounds.values())

    def sample(self, rng: RandomStream, names: Iterable[str]) -> dict[str, float]:
        """One prior draw of each of ``names``, one uniform each, in that order."""
        bounds = {k: self.bounds[k] for k in names}
        improper = [k for k, (lo, hi) in bounds.items() if not math.isfinite(hi - lo)]
        if improper:
            raise ValidationError(f"cannot sample from the improper prior of {improper}")
        return {k: lo + (hi - lo) * float(rng.uniform()) for k, (lo, hi) in bounds.items()}

    def midpoint(self) -> dict[str, float]:
        if not self.is_proper():
            raise ValidationError("prior midpoints need finite truncation bounds")
        return {k: 0.5 * (lo + hi) for k, (lo, hi) in self.bounds.items()}

    def cdf(self, name: str, x) -> np.ndarray:
        lo, hi = self.bounds[name]
        if not math.isfinite(hi - lo):
            raise ValidationError(f"no finite prior cdf for {name}")
        return np.clip((np.asarray(x, dtype=float) - lo) / (hi - lo), 0.0, 1.0)


def is_number(value) -> bool:
    """A real number that is not a bool (JSON ``true`` loads as a bool)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass
class SamplerConfig:
    """Tuning knobs of one chain.

    ``block_len`` is the number of observation intervals per latent block;
    it is at least 2, so that every interior observation knot lies inside
    some block.
    """

    m: int
    n_iter: int
    n_burn: int
    block_len: int = 2
    thin: int = 1
    seed: int = 0
    rw_scales: dict[str, float] = field(default_factory=dict)
    adapt: bool = True
    target_accept: float = 0.3
    fixed: tuple[str, ...] = ()
    validate_every: int = 0
    chains: int = 1

    _INTEGERS = ("m", "n_iter", "n_burn", "block_len", "thin", "seed", "validate_every", "chains")

    def __post_init__(self):
        for name in self._INTEGERS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if not (isinstance(self.rw_scales, dict)
                and all(is_number(v) for v in self.rw_scales.values())):
            raise ValidationError("rw_scales must map parameter names to numbers")
        if not (is_number(self.target_accept) and isinstance(self.adapt, bool)):
            raise ValidationError("target_accept must be a number, adapt a bool")
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
    config: SamplerConfig

    def column(self, name: str) -> np.ndarray:
        return self.draws[:, self.param_names.index(name)]

    @property
    def n_rows(self) -> int:
        return self.draws.shape[0]


class AugmentedState:
    """Full MCMC state: per-interval warped paths, latent path, parameters.

    ``cache`` holds the engine outputs of the current state, one
    ``IntervalQuantities`` whose arrays the state owns; every move writes
    its accepted rows there through ``refresh``. Other array shapes
    (n = #intervals, m = imputed points per interval):
        x_flat, gamma_flat : (n (m+1) + 1,)
        gamma_windows      : (n, m+2), a view of gamma_flat (written in place)
        log_jac            : (n,)
    """

    def __init__(self, model, params, prior, obs_times, y, log_jac, m, fixed=()):
        self.model = model
        self.params = params
        self.prior = prior
        self.obs_times = np.asarray(obs_times, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.log_jac = np.asarray(log_jac, dtype=float)
        self.m = int(m)
        self.fixed = frozenset(fixed)
        unknown = sorted(self.fixed - set(model.param_names))
        if unknown:
            raise ValidationError(f"unknown fixed parameters for {model.name}: {unknown}")
        n = self.y.size - 1
        if n < 1:
            raise ValidationError("need at least two observations")
        self.n_intervals = n
        self.x_flat = _flat_knots(self.obs_times, self.m)
        self.x_knots = _windows(self.x_flat, self.m).copy()
        self.gamma_flat = np.zeros(n * (self.m + 1) + 1)
        self.gamma_windows = _windows(self.gamma_flat, self.m)
        self.cache: Optional[IntervalQuantities] = None  # set by _canonicalise

    # -- views ------------------------------------------------------------

    @property
    def free_names(self) -> tuple[str, ...]:
        return tuple(p for p in self.model.param_names if p not in self.fixed)

    # -- engine and cache management ----------------------------------------

    def quantities(self, params=None, gamma=None, z=None, rows=slice(None), warps=None):
        """Engine outputs for ``rows``; ``params``, the latent windows
        ``gamma`` and the path values ``z`` default to the state's own.
        ``warps``, the output of ``self.warps`` for the same params, gamma
        and rows, skips the warp stage."""
        return interval_quantities(
            self.model,
            self.params if params is None else params,
            self.x_knots[rows],
            self.gamma_windows[rows] if gamma is None else gamma,
            self.y[:-1][rows],
            self.y[1:][rows],
            z_values=self.cache.z[rows] if z is None else z,
            warps=warps,
        )

    def warps(self, params=None, gamma=None, rows=slice(None)) -> IntervalQuantities:
        """The warp stage alone, for the doubly-warped times of a proposal."""
        return warp_stage(
            self.model,
            self.params if params is None else params,
            self.x_knots[rows],
            self.gamma_windows[rows] if gamma is None else gamma,
        )

    def densities(self, q, params=None, rows=slice(None)) -> IntervalQuantities:
        """The density stage on the warps and paths of ``q``."""
        return density_stage(
            q, self.model, self.params if params is None else params,
            self.x_knots[rows], self.gamma_windows[rows], self.y[:-1][rows],
        )

    def refresh(self, rows, q) -> None:
        """Write the engine outputs ``q`` for ``rows`` into the cache."""
        for f in fields(q):
            getattr(self.cache, f.name)[rows] = getattr(q, f.name)

    def log_likelihood(self, q=None) -> float:
        """Augmented log likelihood of the cache, or of engine outputs ``q``:
        Girsanov, endpoint (with the data Jacobian) and latent terms; flat
        prior constants excluded. The trace column."""
        q = self.cache if q is None else q
        return float(np.sum(q.log_g) + np.sum(q.log_f + self.log_jac) + np.sum(q.log_gamma))

    def validate_cache(self, tol: float = 1e-8) -> None:
        cached = self.log_likelihood()
        fresh = self.log_likelihood(self.quantities())
        if abs(cached - fresh) > tol * max(1.0, abs(fresh)):
            raise NumericsError(
                f"cached log likelihood {cached} drifted from recomputation {fresh}"
            )


def _flat_knots(obs_times: np.ndarray, m: int) -> np.ndarray:
    n = obs_times.size - 1
    out = np.empty(n * (m + 1) + 1)
    for k in range(n):
        out[k * (m + 1): (k + 1) * (m + 1)] = np.linspace(
            obs_times[k], obs_times[k + 1], m + 2
        )[:-1]
    out[-1] = obs_times[-1]
    return out


def _windows(flat: np.ndarray, m: int) -> np.ndarray:
    return np.lib.stride_tricks.sliding_window_view(flat, m + 2)[:: m + 1]


def _transform_observations(model: ModelSpec, raw_values: np.ndarray):
    raw = np.asarray(raw_values, dtype=float)
    if model.obs_transform is None:
        return raw.copy(), np.zeros(raw.size - 1)
    y = np.asarray(model.obs_transform(raw), dtype=float)
    log_jac = np.asarray(model.obs_log_jacobian(raw[1:]), dtype=float)
    return y, log_jac


def _canonicalise(state: AugmentedState, x_values: np.ndarray, what: str) -> AugmentedState:
    """Fill the cache from an explicit (n, m+2) skeleton.

    The doubly-warped coordinates are derived from the skeleton, then the
    cache is re-derived from them, so that later engine passes reproduce it
    bit for bit.
    """
    w = state.warps()
    with np.errstate(all="ignore"):
        u1 = (state.y[1:] - w.adj[:, -1])[:, None]
        z = centre_on_chord(x_values[:, :-1] - w.adj[:, :-1], w.u[:, :-1], w.total[:, None],
                            state.y[:-1, None], u1)
    q = state.quantities(z=z, warps=w)
    if not q.finite():
        raise ValidationError(f"{what} is non-finite")
    state.cache = IntervalQuantities(
        **{f.name: np.array(getattr(q, f.name), order="C") for f in fields(q)}
    )
    return state


def init_state(
    model: ModelSpec,
    params: ParamVector,
    obs_times,
    obs_values,
    m: int,
    prior: PriorSpec,
    fixed: Iterable[str] = (),
) -> AugmentedState:
    """Fresh state: latent path at zero, observed path on the data chords."""
    params.validate()
    y, log_jac = _transform_observations(model, obs_values)
    state = AugmentedState(model, params, prior, obs_times, y, log_jac, m, tuple(fixed))
    frac = np.linspace(0.0, 1.0, m + 2)
    x_values = y[:-1, None] + frac[None, :] * (y[1:] - y[:-1])[:, None]
    return _canonicalise(state, x_values, "initial augmented posterior")


def state_from_skeleton(
    model: ModelSpec,
    params: ParamVector,
    obs_times,
    x_values: np.ndarray,
    gamma_flat: np.ndarray,
    prior: PriorSpec,
    fixed: Iterable[str] = (),
    log_jac: Optional[np.ndarray] = None,
) -> AugmentedState:
    """State whose paths reproduce an explicit skeleton exactly.

    ``x_values`` is (n, m+2) on the working coordinate with matching shared
    observation knots; ``gamma_flat`` is the latent path at every knot.
    """
    params.validate()
    x_values = np.asarray(x_values, dtype=float)
    n, cols = x_values.shape
    m = cols - 2
    if not np.allclose(x_values[1:, 0], x_values[:-1, -1], rtol=0, atol=0):
        raise ValidationError("interval skeletons disagree at shared observation knots")
    y = np.concatenate((x_values[:, 0], x_values[-1:, -1]))
    jac = np.zeros(n) if log_jac is None else np.asarray(log_jac, dtype=float)
    state = AugmentedState(model, params, prior, obs_times, y, jac, m, tuple(fixed))
    if np.shape(gamma_flat) != state.gamma_flat.shape:
        raise ValidationError("latent path length does not match the knot grid")
    if gamma_flat[0] != 0.0:
        raise ValidationError("latent path must start at zero")
    state.gamma_flat[:] = gamma_flat
    return _canonicalise(state, x_values, "augmented posterior of this skeleton")


# ---------------------------------------------------------------------------
# Metropolis pieces


def _accept_mask(log_ratio: np.ndarray, rng: RandomStream) -> np.ndarray:
    log_ratio = np.where(np.isfinite(log_ratio), log_ratio, -np.inf)
    u = rng.uniform(log_ratio.shape)
    return np.log(u) < log_ratio


def _accept_scalar(log_ratio: float, rng: RandomStream) -> bool:
    if not math.isfinite(log_ratio):
        return False
    if log_ratio >= 0.0:
        return True
    return math.log(float(rng.uniform())) < log_ratio


def _update_z_rows(state: AugmentedState, rows, rng: RandomStream) -> np.ndarray:
    """Independence update of the doubly-warped path values on ``rows``.

    Proposals are standard Brownian motions at the intervals' current warped
    times; endpoint densities cancel because the data endpoints do not move.
    Returns the per-row acceptance mask.
    """
    z_times = state.cache.z_times[rows]
    steps = np.diff(z_times, axis=1)
    z_prop = np.zeros_like(z_times)
    np.cumsum(np.sqrt(steps) * rng.normal(steps.shape), axis=1, out=z_prop[:, 1:])

    q = path_stage(state.cache.select(rows), z_prop, state.y[:-1][rows], state.y[1:][rows])
    q = state.densities(q, rows=rows)
    acc = _accept_mask(q.log_g - state.cache.log_g[rows], rng)
    if acc.any():
        state.refresh(np.arange(state.n_intervals)[rows][acc], q.select(acc))
    return acc


def _propose_param(state: AugmentedState, name: str, scale: float, rng: RandomStream):
    sup = state.params.supports[name]
    cur = state.params[name]
    phi = sup.to_unconstrained(cur) + scale * float(rng.normal())
    try:
        cand = sup.from_unconstrained(phi)
    except OverflowError:
        return None, 0.0
    if not sup.contains(cand):
        return None, 0.0
    log_jac = sup.log_jacobian(cand) - sup.log_jacobian(cur)
    return cand, log_jac


def _update_param(state: AugmentedState, name: str, rng: RandomStream, scale: float) -> bool:
    """Random-walk update of one scalar parameter.

    Parameters deforming the warped time scales trigger retrospective draws
    of the path values at the newly required times; drift parameters reuse
    the cached warps and paths and rerun only the density stage. The
    accept/reject decision is joint across intervals.
    """
    cand, log_jac = _propose_param(state, name, scale, rng)
    if cand is None:
        return False
    cand_params = state.params.replace(**{name: cand})
    if not state.prior.in_support(cand_params):
        return False

    cache = state.cache
    if name in state.model.timescale_params:
        w = state.warps(params=cand_params)
        if not np.all(np.isfinite(w.z_times)):
            return False
        z_new = refine_rows(cache.z_times, cache.z, w.z_times, rng)
        q = state.quantities(params=cand_params, z=z_new, warps=w)
    else:
        q = state.densities(cache, params=cand_params)
    if not q.finite():
        return False

    log_ratio = (
        float(np.sum(q.log_g) - np.sum(cache.log_g))
        + float(np.sum(q.log_f) - np.sum(cache.log_f))
        + float(np.sum(q.log_gamma) - np.sum(cache.log_gamma))
        + log_jac
    )
    if not _accept_scalar(log_ratio, rng):
        return False
    state.params = cand_params
    state.refresh(slice(None), q)
    return True


# ---------------------------------------------------------------------------
# Latent-path blocks


def gamma_block_plan(n_intervals: int, block_len: int) -> list[tuple[int, int, bool]]:
    """(first interval, length, anchored right) for one sweep.

    Anchored blocks slide by block_len - 1 intervals, so adjacent blocks
    share one observation knot region and every interior observation knot is
    interior to some block; a terminal block with a free Brownian end covers
    the final stretch and resamples the last knot. Blocks of one interval
    would pin every interior observation knot, so they are allowed only when
    there is a single interval.
    """
    if not min(2, n_intervals) <= block_len <= n_intervals:
        raise ValidationError(
            f"block length must lie in [{min(2, n_intervals)}, {n_intervals}], got {block_len}"
        )
    plan = []
    j = 0
    while j + block_len < n_intervals:
        plan.append((j, block_len, True))
        j += block_len - 1
    plan.append((n_intervals - block_len, block_len, False))
    return plan


def _gamma_anchored_pass(
    state: AugmentedState,
    firsts: np.ndarray,
    length: int,
    rng: RandomStream,
) -> np.ndarray:
    """Batched bridge update of mutually disjoint anchored blocks.

    Each block spans ``length`` consecutive observation intervals and its
    flanking knots stay fixed. The proposal is the dominating-measure
    conditional, so the ratio is the likelihood change over the block plus
    the latent-marginal change. Blocks in one pass share at most their fixed
    anchor knots, so their updates are conditionally independent and one
    vectorised accept/reject per block composes exactly like updating them
    one at a time.
    """
    m = state.m
    cache = state.cache
    nb = firsts.size
    width = length * (m + 1) + 1
    lo = firsts * (m + 1)
    cols = np.arange(width)
    seg_idx = lo[:, None] + cols[None, :]
    seg_t = state.x_flat[seg_idx]
    seg_g = state.gamma_flat[seg_idx]

    dt = seg_t[:, 1:] - seg_t[:, :-1]
    w = np.zeros((nb, width))
    np.cumsum(np.sqrt(dt) * rng.normal(dt.shape), axis=1, out=w[:, 1:])
    span = (seg_t[:, -1] - seg_t[:, 0])[:, None]
    frac = (seg_t - seg_t[:, :1]) / span
    seg_prop = seg_g[:, :1] + w - frac * w[:, -1:] + frac * (seg_g[:, -1:] - seg_g[:, :1])
    seg_prop[:, 0] = seg_g[:, 0]
    seg_prop[:, -1] = seg_g[:, -1]

    win_idx = (np.arange(length) * (m + 1))[:, None] + np.arange(m + 2)[None, :]
    gam_win = seg_prop[:, win_idx].reshape(nb * length, m + 2)
    rows_idx = (firsts[:, None] + np.arange(length)[None, :]).ravel()

    w = state.warps(gamma=gam_win, rows=rows_idx)
    new_times = w.z_times
    bad_rows = ~np.all(np.isfinite(new_times), axis=1)
    if bad_rows.any():
        new_times = np.where(bad_rows[:, None], cache.z_times[rows_idx], new_times)
    z_new = refine_rows(cache.z_times[rows_idx], cache.z[rows_idx], new_times, rng)
    q = state.quantities(gamma=gam_win, z=z_new, rows=rows_idx, warps=w)

    delta = (
        (q.log_g - cache.log_g[rows_idx])
        + (q.log_f - cache.log_f[rows_idx])
        + (q.log_gamma - cache.log_gamma[rows_idx])
    ).reshape(nb, length)
    log_ratio = np.where(
        bad_rows.reshape(nb, length).any(axis=1), -np.inf, delta.sum(axis=1)
    )
    acc = _accept_mask(log_ratio, rng)
    if acc.any():
        state.gamma_flat[seg_idx[acc]] = seg_prop[acc]
        keep = np.repeat(acc, length)
        state.refresh(rows_idx[keep], q.select(keep))
    return acc


def update_gamma_block(state: AugmentedState, first: int, n_block: int, rng: RandomStream) -> bool:
    """Bridge proposal for the terminal block of the latent path.

    The block spans the ``n_block`` observation intervals from ``first`` to
    the end; its left knot stays fixed and its right end is a free Brownian
    extension. The proposal is the dominating-measure conditional, so the
    ratio is the likelihood change over the block plus the latent-marginal
    change.
    """
    m = state.m
    cache = state.cache
    lo = first * (m + 1)
    hi = (first + n_block) * (m + 1)
    seg_t = state.x_flat[lo: hi + 1]
    seg_g = state.gamma_flat[lo: hi + 1]

    dt = np.diff(seg_t)
    w = np.zeros(seg_t.size)
    np.cumsum(np.sqrt(dt) * rng.normal(dt.size), axis=0, out=w[1:])
    seg_prop = seg_g[0] + w

    rows = slice(first, first + n_block)
    gam_win = _windows(seg_prop, m)
    w = state.warps(gamma=gam_win, rows=rows)
    if not np.all(np.isfinite(w.z_times)):
        return False
    z_new = refine_rows(cache.z_times[rows], cache.z[rows], w.z_times, rng)
    q = state.quantities(gamma=gam_win, z=z_new, rows=rows, warps=w)
    if not q.finite():
        return False

    log_ratio = float(
        np.sum(q.log_g - cache.log_g[rows])
        + np.sum(q.log_f - cache.log_f[rows])
        + np.sum(q.log_gamma - cache.log_gamma[rows])
    )
    if not _accept_scalar(log_ratio, rng):
        return False
    state.gamma_flat[lo: hi + 1] = seg_prop
    state.refresh(rows, q)
    return True


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
    tallies: Optional[dict] = None,
    block_len: int = 2,
) -> dict[str, bool]:
    """One full Gibbs sweep; returns the scalar-parameter accept flags."""

    def tally(name, acc, att=1):
        if tallies is not None:
            rec = tallies.setdefault(name, [0, 0])
            rec[0] += acc
            rec[1] += att

    acc_z = _update_z_rows(state, slice(None), rng)
    tally("z", int(acc_z.sum()), acc_z.size)

    if state.model.has_latent:
        plan = gamma_block_plan(state.n_intervals, min(block_len, state.n_intervals))
        anchored_starts = np.array([f for f, _l, a in plan if a], dtype=int)
        length = plan[0][1]
        # Alternate blocks of the sliding schedule touch disjoint intervals,
        # so each parity class runs as one batched update.
        for parity in (anchored_starts[0::2], anchored_starts[1::2]):
            if parity.size:
                acc = _gamma_anchored_pass(state, parity, length, rng)
                tally("gamma", int(acc.sum()), acc.size)
        first, length, _ = plan[-1]
        acc_t = update_gamma_block(state, first, length, rng)
        tally("gamma", int(acc_t))

    flags: dict[str, bool] = {}
    for name in _scalar_update_order(state):
        flags[name] = _update_param(state, name, rng, scales.get(name, 0.25))
        tally(name, int(flags[name]))
    return flags


def run_chain(
    config: SamplerConfig,
    data,
    model: ModelSpec,
    prior: Optional[PriorSpec] = None,
    init_params=None,
) -> Trace:
    """Run one chain on ``data`` (an object with .times and .values).

    ``init_params`` is a dict of starting values, the string
    "prior-midpoint", or None for the model defaults. Draws are recorded
    after burn-in at the configured thinning; the log-likelihood column is
    the augmented log likelihood (flat-prior constants excluded).
    """
    prior = prior if prior is not None else PriorSpec.from_model(model)
    times = np.asarray(data.times, dtype=float)
    values = np.asarray(data.values, dtype=float)
    if times.size < 2:
        raise ValidationError("need at least two observations")
    if model.has_latent and config.block_len > times.size - 1:
        raise ValidationError("block_len exceeds the number of observation intervals")

    if init_params == "prior-midpoint":
        params = model.make_params(prior.midpoint())
    elif init_params is None:
        params = model.make_params()
    else:
        params = model.make_params(dict(init_params))
    if not prior.in_support(params):
        raise ValidationError("initial parameters violate the prior support")

    rng = RandomStream(config.seed)
    state = init_state(model, params, times, values, config.m, prior, config.fixed)

    scales = {name: config.rw_scales.get(name, 0.25) for name in state.free_names}
    tallies_burn: dict = {}
    tallies_main: dict = {}

    n_rows = len(range(config.n_burn, config.n_iter, config.thin))
    draws = np.empty((n_rows, len(state.free_names)))
    logliks = np.empty(n_rows)
    iters = np.empty(n_rows, dtype=int)

    row = 0
    for it in range(config.n_iter):
        burning = it < config.n_burn
        flags = sweep(
            state, rng, scales, tallies_burn if burning else tallies_main, config.block_len
        )
        if burning and config.adapt:
            eta = (it + 1.0) ** -0.6
            for name, acc in flags.items():
                scales[name] = float(
                    np.clip(
                        scales[name] * math.exp(eta * ((1.0 if acc else 0.0) - config.target_accept)),
                        1e-8, 1e8,
                    )
                )
        if config.validate_every and (it + 1) % config.validate_every == 0:
            state.validate_cache()
        if not burning and (it - config.n_burn) % config.thin == 0:
            draws[row] = [state.params[p] for p in state.free_names]
            logliks[row] = state.log_likelihood()
            iters[row] = it
            row += 1

    tallies = tallies_main if tallies_main else tallies_burn
    acceptance = {
        name: (rec[0] / rec[1] if rec[1] else 0.0) for name, rec in tallies.items()
    }
    return Trace(
        param_names=state.free_names,
        draws=draws,
        logliks=logliks,
        iters=iters,
        acceptance=acceptance,
        config=config,
    )
