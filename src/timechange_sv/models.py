"""Model definitions and state transformations.

A model bundles the drift/volatility functions of the observed diffusion and
of its latent volatility diffusion, together with the hooks needed by the
samplers: which parameters deform the warped time scales, which drive only
the latent diffusion, and how raw observations map onto the coordinate in
which the volatility is state-free (the unit-state-volatility transform).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ExplosionError, ValidationError
from .paths import Path, RandomStream, TimeGrid


@dataclass(frozen=True)
class ParamSupport:
    """Support of one parameter: the open interval (lo, hi), unbounded,
    bounded below, or bounded on both sides.

    Random-walk proposals run on an unconstrained scale that follows from
    which ends are finite: the identity, log(x - lo), or a scaled atanh. The
    log-Jacobian |dx/dphi| enters Metropolis ratios for the non-linear ones.
    """

    lo: float = -math.inf
    hi: float = math.inf

    def __post_init__(self):
        if not (self.lo < self.hi and (self.lo > -math.inf or self.hi == math.inf)):
            raise ValidationError(f"support ({self.lo}, {self.hi}) must be nonempty and "
                                  "bounded below if bounded above")

    def to_unconstrained(self, x: float) -> float:
        if self.hi < math.inf:
            return math.atanh(2.0 * (x - self.lo) / (self.hi - self.lo) - 1.0)
        return math.log(x - self.lo) if self.lo > -math.inf else x

    def from_unconstrained(self, phi: float) -> float:
        if self.hi < math.inf:
            return self.lo + (self.hi - self.lo) * 0.5 * (math.tanh(phi) + 1.0)
        return self.lo + math.exp(phi) if self.lo > -math.inf else phi

    def log_jacobian(self, x: float) -> float:
        if self.hi < math.inf:
            return math.log((x - self.lo) * (self.hi - x)) - math.log(self.hi - self.lo)
        return math.log(x - self.lo) if self.lo > -math.inf else 0.0


REAL = ParamSupport()
POSITIVE = ParamSupport(0.0)


@dataclass(frozen=True)
class ModelSpec:
    """Drift/volatility bundle plus transform hooks for one model.

    ``drift_x(x, alpha, params)`` and ``vol_x(alpha, params)`` describe the
    observed diffusion in the coordinate where its volatility does not depend
    on the state itself; the models are time-homogeneous, so no coefficient
    reads the time.  When the natural observation scale has
    state-dependent volatility, ``obs_transform``/``obs_transform_inv`` map
    raw data into that coordinate and ``obs_log_jacobian`` supplies the
    density correction per observation.

    Coefficients read parameters by name and take float arrays or numpy
    scalars: the simulator passes a window of consecutive states as an
    array, and a single step's state as a numpy scalar. Each element of the
    result must depend only on the same element of the inputs: numpy's
    ufuncs give an element the same bits whatever the array's length.
    """

    name: str
    param_names: tuple[str, ...]
    supports: dict[str, ParamSupport]
    defaults: dict[str, float]
    drift_x: Callable
    vol_x: Callable
    drift_alpha: Optional[Callable] = None
    vol_alpha: Optional[Callable] = None  # (params) -> float, constant in alpha
    leverage: Optional[str] = None  # name of the correlation parameter
    obs_transform: Optional[Callable] = None  # raw y -> working coordinate
    obs_transform_inv: Optional[Callable] = None
    obs_log_jacobian: Optional[Callable] = None  # log|d transform / d y|
    # parameters that deform the warped time scales, and the drift parameters
    # of the latent diffusion (with leverage the observed path's density reads
    # them too); any other parameter is a drift parameter of the observed one
    timescale_params: tuple[str, ...] = ()
    latent_drift_params: tuple[str, ...] = ()

    def make_params(self, values: Optional[dict[str, float]] = None) -> dict[str, float]:
        """The defaults updated by ``values``, as floats in ``param_names`` order."""
        vals = {**self.defaults, **(values or {})}
        unknown = set(vals) - set(self.param_names)
        if unknown:
            raise ValidationError(f"unknown parameters for {self.name}: {sorted(unknown)}")
        return {k: float(vals[k]) for k in self.param_names}

    def free_names(self, fixed) -> tuple[str, ...]:
        """``param_names`` without the ``fixed`` ones, each of which must be a parameter."""
        unknown = sorted(set(fixed) - set(self.param_names))
        if unknown:
            raise ValidationError(f"unknown fixed parameters for {self.name}: {unknown}")
        return tuple(p for p in self.param_names if p not in fixed)

    @property
    def has_latent(self) -> bool:
        """Whether there is a latent diffusion: there is one when it has a drift."""
        return self.drift_alpha is not None

    def latent_scale(self, params: dict[str, float]) -> float:
        """Constant volatility of the latent diffusion."""
        if not self.has_latent:
            raise ValidationError(f"model {self.name} has no latent diffusion")
        return float(self.vol_alpha(params))

    def latent_values(self, gamma, params: dict[str, float]) -> np.ndarray:
        """Latent path alpha = alpha0 + scale * gamma from its unit-diffusion,
        zero-start version gamma."""
        return params["alpha0"] + self.latent_scale(params) * np.asarray(gamma, dtype=float)

    def rho(self, params: dict[str, float]) -> float:
        return float(params[self.leverage]) if self.leverage else 0.0


# ---------------------------------------------------------------------------
# Registry


def _make_const_vol_scalar() -> ModelSpec:
    # dX = theta dt + sigma dW; no latent diffusion.
    return ModelSpec(
        name="const-vol-scalar",
        param_names=("theta", "sigma"),
        supports={"theta": REAL, "sigma": POSITIVE},
        defaults={"theta": 0.0, "sigma": 1.0},
        drift_x=lambda x, a, p: p["theta"] + np.zeros_like(x),
        vol_x=lambda a, p: np.full(np.shape(a), p["sigma"], dtype=float),
        timescale_params=("sigma",),
    )


def _make_ou_sv_leverage() -> ModelSpec:
    # dX     = kappa_x (mu_x - X) dt + exp(alpha/2) (rho dW + sqrt(1-rho^2) dB)
    # dalpha = kappa_alpha (mu_alpha - alpha) dt + sigma dW
    return ModelSpec(
        name="ou-sv-leverage",
        param_names=("kappa_x", "mu_x", "kappa_alpha", "mu_alpha", "sigma", "rho", "alpha0"),
        supports={
            "kappa_x": POSITIVE,
            "mu_x": REAL,
            "kappa_alpha": POSITIVE,
            "mu_alpha": REAL,
            "sigma": POSITIVE,
            "rho": ParamSupport(-1.0, 1.0),
            "alpha0": REAL,
        },
        defaults={
            "kappa_x": 0.2,
            "mu_x": 0.1,
            "kappa_alpha": 0.3,
            "mu_alpha": -0.2,
            "sigma": 0.4,
            "rho": -0.5,
            "alpha0": -0.2,
        },
        drift_x=lambda x, a, p: p["kappa_x"] * (p["mu_x"] - x),
        vol_x=lambda a, p: np.exp(0.5 * a),
        drift_alpha=lambda a, p: p["kappa_alpha"] * (p["mu_alpha"] - a),
        vol_alpha=lambda p: p["sigma"],
        leverage="rho",
        timescale_params=("sigma", "rho", "alpha0"),
        latent_drift_params=("kappa_alpha", "mu_alpha"),
    )


def _make_tbill_logsv() -> ModelSpec:
    # Short-rate model dr = (theta0 - theta1 r) dt + r exp(alpha/2) dB with an
    # OU log-volatility. Working in x = log(r) removes the state-dependent
    # volatility factor and yields
    #   dx = (theta0 exp(-x) - theta1 - exp(alpha)/2) dt + exp(alpha/2) dB.
    return ModelSpec(
        name="tbill-logsv",
        param_names=("theta0", "theta1", "kappa", "mu", "sigma", "alpha0"),
        supports={
            "theta0": REAL,
            "theta1": REAL,
            "kappa": POSITIVE,
            "mu": REAL,
            "sigma": POSITIVE,
            "alpha0": REAL,
        },
        defaults={
            "theta0": 0.130,
            "theta1": 0.013,
            "kappa": 2.403,
            "mu": -3.966,
            "sigma": 2.764,
            "alpha0": -3.966,
        },
        drift_x=lambda x, a, p: p["theta0"] * np.exp(-x) - p["theta1"] - 0.5 * np.exp(a),
        vol_x=lambda a, p: np.exp(0.5 * a),
        drift_alpha=lambda a, p: p["kappa"] * (p["mu"] - a),
        vol_alpha=lambda p: p["sigma"],
        obs_transform=np.log,
        obs_transform_inv=np.exp,
        obs_log_jacobian=lambda y: -np.log(np.asarray(y, dtype=float)),
        timescale_params=("sigma", "alpha0"),
        latent_drift_params=("kappa", "mu"),
    )


_REGISTRY: dict[str, Callable[[], ModelSpec]] = {
    "const-vol-scalar": _make_const_vol_scalar,
    "ou-sv-leverage": _make_ou_sv_leverage,
    "tbill-logsv": _make_tbill_logsv,
}


def model_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def get_model(name: str) -> ModelSpec:
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown model {name!r}; registered models: {', '.join(_REGISTRY)}"
        ) from None
    return factory()


# ---------------------------------------------------------------------------
# Euler simulation


# Steps per window. On the bench's tbill-logsv grids (2-core x86-64, numpy 2.4)
# 4096-5632 ran within noise of each other, 2048 and 8192 some 10 % slower.
_WINDOW = 5120
# |d(drift * dt) / dx| per step above which single steps beat sweeps over a
# window. On 20 000 steps of a linear drift (2-core x86-64, numpy 2.4) sweeps
# ran 2.7 times faster than single steps at 2e-3, level at 6e-3 and 1.6 times
# slower at 1e-2; two more exp per drift call move the break-even near 9e-3.
# Not a decimal, which a decimal rate times a decimal step may equal: Newton's
# slope would cross it by rounding.
_SLOW_CONTRACTION = 2.0 ** -7


def _newton(x, drift, incs, dts, lo, hi) -> int:
    """Move the guess x[lo + 1:hi + 1] toward the recursion from x[lo] by up to
    two Newton steps on the linearised recursion (one ``cumprod``, one
    ``cumsum``), stopping below rounding or at a non-finite correction (a
    stiff path's slope product underflows); returns the first step whose
    slope |d(drift * dt) / dx| exceeds ``_SLOW_CONTRACTION``, or ``hi``."""
    s = slice(lo, hi)
    xs, nxt, dt = x[s], x[lo + 1:hi + 1], dts[s]
    for _ in range(2):
        f, h = drift(s, xs), 1e-7 * (1.0 + np.abs(xs))
        slope = (drift(s, xs + h) - f) / h * dt
        g = np.cumprod(1.0 + slope)
        c = g * np.cumsum((xs + f * dt + incs[s] - nxt) / g)
        if not np.isfinite(c).all():
            break
        nxt += c
        if np.abs(c).max() <= 1e-13 * (1.0 + np.abs(nxt).max()):
            break  # below rounding
    steep = np.abs(slope) > _SLOW_CONTRACTION
    return lo + int(steep.argmax()) if steep.any() else hi


def _euler_path(x0, incs, dts, drift) -> np.ndarray:
    """The Euler recursion x[i + 1] = (x[i] + drift(s, x[s])[i] * dts[i]) + incs[i]
    from x0 as an array. ``drift(s, xs)`` takes a slice of steps and their
    states, or one step and its state.

    Window by window of ``_WINDOW`` steps from its final first state: the
    drift-free guess, a Newton solve (``_newton``), then fixed-point sweeps
    up to the window's first steep step. A sweep reads the drift at the
    states and rebuilds them by one left-to-right ``cumsum``; the states up
    to the first changed one had exact inputs, so they are final. From the
    first steep step to the window's end the path steps one state at a time
    on numpy scalars. After a non-finite state the path is nan.
    """
    n = len(dts)
    x = np.empty(n + 1)
    x[0] = x0
    buf = np.empty(2 * _WINDOW + 1)
    lo = 0
    while lo < n:
        hi = min(lo + _WINDOW, n)
        x[lo + 1:hi + 1] = incs[lo:hi]
        np.cumsum(x[lo:hi + 1], out=x[lo:hi + 1])  # the drift-free guess: final where drift is 0
        stop = _newton(x, drift, incs, dts, lo, hi)
        while lo < stop:
            b = buf[:2 * (stop - lo) + 1]  # [x_lo, p_lo, q_lo, p_lo+1, q_lo+1, ...]
            b[0], b[2::2] = x[lo], incs[lo:stop]
            b[1::2] = drift(slice(lo, stop), x[lo:stop]) * dts[lo:stop]
            np.cumsum(b, out=b)
            new, old = b[2::2], x[lo + 1:stop + 1]
            changed = new.view(np.int64) != old.view(np.int64)
            old[:] = new
            lo += int(changed.argmax()) + 1 if changed.any() else len(new)
            if not math.isfinite(x[lo]):  # non-finite states stay so along the path
                x[lo + 1:] = np.nan
                return x
        for i in range(lo, hi):
            x[i + 1] = x[i] + drift(i, x[i]) * dts[i] + incs[i]
        lo = hi
    return x


def euler_simulate(
    model: ModelSpec,
    params: dict[str, float],
    x0: float,
    alpha0: float,
    grid: TimeGrid,
    rng: RandomStream,
) -> tuple[Path, Path]:
    """Simulate a joint (observed, latent) skeleton on ``grid`` by the Euler
    scheme; returns the two ``Path``s. For models without a latent diffusion
    the second path is identically ``alpha0``.

    Random numbers: the noise of dB, then that of dW for latent models only,
    each n_points - 1 standard normals drawn from ``rng`` in one call. Entry
    i drives the step from ``times[i]`` to ``times[i + 1]``.

    A leverage correlation feeds the latent driving noise into the observed
    diffusion: dB_total = rho dW + sqrt(1-rho^2) dB. Boundary correlations
    (|rho| = 1) are simulable even though inference excludes them; |rho| > 1
    raises ``ValidationError``.

    ``drift_alpha`` and ``vol_alpha`` never read X, so the latent path runs
    first, then the observed path on the finished latent path. The
    increments, ``vol_alpha * dW`` and ``vol_x * dB_total``, are whole-array
    stages. Each state recursion x[i + 1] = (x[i] + drift * dt) + increment
    runs window by window (``_euler_path``): a Newton solve from the window's
    final first state, then fixed-point sweeps, which carry the bits of the
    step-by-step recursion. From a window's first step whose Newton slope
    says the drift moves with the state too fast for sweeps to pay, the rest
    of that window steps one state at a time on numpy scalars. A non-finite value
    persists along the path, so one check at the end raises
    ``ExplosionError`` at its first non-finite time.
    """
    x0, alpha0 = float(x0), float(alpha0)
    if not all(math.isfinite(v) for v in params.values()):
        raise ValidationError("simulation parameters must be finite")
    rho = model.rho(params)
    if abs(rho) > 1.0:
        raise ValidationError(f"correlation {model.leverage}={rho} outside [-1, 1]")
    if not (math.isfinite(x0) and math.isfinite(alpha0)):
        raise ValidationError("simulation start values x0 and alpha0 must be finite")
    n = len(grid)
    dts = grid.steps
    sq = np.sqrt(dts)
    db = rng.normal(n - 1)
    # a non-finite state is caught by the check at the end, not reported twice
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if model.has_latent:
            # in place: dw becomes vol_alpha * dW and db dB_total; every
            # product is grouped as a one-step-at-a-time Euler loop groups it
            # (lev * sqrt(dt) is one factor), so the path is bit-identical to
            # that loop's
            dw = rng.normal(n - 1)
            dw *= sq
            db *= math.sqrt(1.0 - rho * rho) * sq
            db += rho * dw
            dw *= model.vol_alpha(params)
            a = _euler_path(alpha0, dw, dts, lambda s, ai: model.drift_alpha(ai, params))
        else:
            a = np.full(n, alpha0)  # the latent path of a model without one
            db *= sq
        # db becomes vol_x(alpha) * dB_total, with alpha left of each step
        db *= model.vol_x(a[:-1], params)
        x = _euler_path(x0, db, dts, lambda s, xs: model.drift_x(xs, a[s], params))

    finite = np.isfinite(x) & np.isfinite(a)
    if not finite[-1]:
        raise ExplosionError(grid.times[int(np.argmin(finite))])
    return Path(grid, x), Path(grid, a)
