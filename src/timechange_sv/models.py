"""Model definitions and state transformations.

A model bundles the drift/volatility functions of the observed diffusion and
of its latent volatility diffusion, together with the hooks needed by the
samplers: which parameters deform the warped time scales, and how raw
observations map onto the coordinate in which the volatility is state-free
(the unit-state-volatility transform).
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
    """Support descriptor for one parameter: unbounded, positive, or an
    open interval."""

    kind: str  # "real" | "positive" | "interval"
    lo: float = -math.inf
    hi: float = math.inf

    def contains(self, x: float) -> bool:
        if self.kind == "real":
            return math.isfinite(x)
        if self.kind == "positive":
            return x > 0.0 and math.isfinite(x)
        return self.lo < x < self.hi

    # Random-walk proposals run on an unconstrained scale; the log-Jacobian
    # |dx/dphi| enters Metropolis ratios for non-linear transforms.
    def to_unconstrained(self, x: float) -> float:
        if self.kind == "positive":
            return math.log(x)
        if self.kind == "interval":
            u = 2.0 * (x - self.lo) / (self.hi - self.lo) - 1.0
            return math.atanh(u)
        return x

    def from_unconstrained(self, phi: float) -> float:
        if self.kind == "positive":
            return math.exp(phi)
        if self.kind == "interval":
            return self.lo + (self.hi - self.lo) * 0.5 * (math.tanh(phi) + 1.0)
        return phi

    def log_jacobian(self, x: float) -> float:
        if self.kind == "positive":
            return math.log(x)
        if self.kind == "interval":
            return math.log((x - self.lo) * (self.hi - x)) - math.log(self.hi - self.lo)
        return 0.0


REAL = ParamSupport("real")
POSITIVE = ParamSupport("positive")


def interval(lo: float, hi: float) -> ParamSupport:
    return ParamSupport("interval", lo, hi)


class ParamVector:
    """Named parameter values with per-name support descriptors.

    Preserves declaration order; the order defines trace columns downstream.
    """

    def __init__(self, values: dict[str, float], supports: dict[str, ParamSupport]):
        if set(values) != set(supports):
            raise ValidationError("parameter values and supports name different sets")
        self.names = tuple(values)
        self.values = {k: float(v) for k, v in values.items()}
        self.supports = dict(supports)

    def __getitem__(self, name: str) -> float:
        return self.values[name]

    def __contains__(self, name: str) -> bool:
        return name in self.values

    def replace(self, **updates: float) -> "ParamVector":
        vals = dict(self.values)
        for k, v in updates.items():
            if k not in vals:
                raise ValidationError(f"unknown parameter {k!r}")
            vals[k] = float(v)
        return ParamVector(vals, self.supports)

    def validate(self) -> None:
        for k, v in self.values.items():
            if not self.supports[k].contains(v):
                raise ValidationError(f"parameter {k}={v} outside its support")

    def in_support(self) -> bool:
        return all(self.supports[k].contains(v) for k, v in self.values.items())

    def as_dict(self) -> dict[str, float]:
        return dict(self.values)

    def __repr__(self):
        inner = ", ".join(f"{k}={v:.6g}" for k, v in self.values.items())
        return f"ParamVector({inner})"


@dataclass(frozen=True)
class ModelSpec:
    """Drift/volatility bundle plus transform hooks for one model.

    ``drift_x(t, x, alpha, params)`` and ``vol_x(alpha, params)`` describe the
    observed diffusion in the coordinate where its volatility does not depend
    on the state itself.  When the natural observation scale has
    state-dependent volatility, ``obs_transform``/``obs_transform_inv`` map
    raw data into that coordinate and ``obs_log_jacobian`` supplies the
    density correction per observation.

    Coefficient functions take float arrays and, in the one-path simulator,
    numpy float64 scalars; a scalar input must give a scalar output.
    """

    name: str
    param_names: tuple[str, ...]
    supports: dict[str, ParamSupport]
    defaults: dict[str, float]
    drift_x: Callable
    vol_x: Callable
    has_latent: bool = True
    drift_alpha: Optional[Callable] = None
    vol_alpha: Optional[Callable] = None  # (params) -> float, constant in alpha
    leverage: Optional[str] = None  # name of the correlation parameter
    obs_transform: Optional[Callable] = None  # raw y -> working coordinate
    obs_transform_inv: Optional[Callable] = None
    obs_log_jacobian: Optional[Callable] = None  # log|d transform / d y|
    timescale_params: tuple[str, ...] = ()

    def make_params(self, values: Optional[dict[str, float]] = None) -> ParamVector:
        vals = dict(self.defaults)
        if values:
            unknown = set(values) - set(self.param_names)
            if unknown:
                raise ValidationError(f"unknown parameters for {self.name}: {sorted(unknown)}")
            vals.update(values)
        return ParamVector({k: vals[k] for k in self.param_names}, self.supports)

    def latent_scale(self, params: ParamVector) -> float:
        """Constant volatility of the latent diffusion."""
        if not self.has_latent:
            raise ValidationError(f"model {self.name} has no latent diffusion")
        return float(self.vol_alpha(params))

    def latent_values(self, gamma, params: ParamVector) -> np.ndarray:
        """Latent path alpha = alpha0 + scale * gamma from its unit-diffusion,
        zero-start version gamma."""
        return params["alpha0"] + self.latent_scale(params) * np.asarray(gamma, dtype=float)

    def rho(self, params: ParamVector) -> float:
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
        drift_x=lambda t, x, a, p: p["theta"] + np.zeros_like(x),
        vol_x=lambda a, p: np.full(np.shape(a), p["sigma"], dtype=float),
        has_latent=False,
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
            "rho": interval(-1.0, 1.0),
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
        drift_x=lambda t, x, a, p: p["kappa_x"] * (p["mu_x"] - x),
        vol_x=lambda a, p: np.exp(0.5 * a),
        has_latent=True,
        drift_alpha=lambda a, p: p["kappa_alpha"] * (p["mu_alpha"] - a),
        vol_alpha=lambda p: p["sigma"],
        leverage="rho",
        timescale_params=("sigma", "rho", "alpha0"),
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
        drift_x=lambda t, x, a, p: p["theta0"] * np.exp(-x) - p["theta1"] - 0.5 * np.exp(a),
        vol_x=lambda a, p: np.exp(0.5 * a),
        has_latent=True,
        drift_alpha=lambda a, p: p["kappa"] * (p["mu"] - a),
        vol_alpha=lambda p: p["sigma"],
        obs_transform=np.log,
        obs_transform_inv=np.exp,
        obs_log_jacobian=lambda y: -np.log(np.asarray(y, dtype=float)),
        timescale_params=("sigma", "alpha0"),
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


# Elements per block of rows in the simulator's whole-array stages: their
# temporaries stay small next to the paths and the noise they work on.
_BLOCK_ELEMS = 1 << 18


def _euler_paths(
    model: ModelSpec,
    params: ParamVector,
    x0,
    alpha0,
    grid: TimeGrid,
    rng: RandomStream,
):
    """Joint Euler scheme; returns (X, alpha), transposed views of time-major
    storage whose batch shape follows ``x0``: (n_points,) from scalars, stepped
    on numpy scalars, or (n_paths, n_points) from a (n_paths,) batch.

    Random numbers: ``noise_b``, then ``noise_w`` for latent models only, each
    a (n_points - 1,) + batch array of standard normals drawn from ``rng`` in
    one call. Row i drives the step from ``times[i]`` to ``times[i + 1]``.

    A leverage correlation feeds the latent driving noise into the observed
    diffusion: dB_total = rho dW + sqrt(1-rho^2) dB. Boundary correlations
    (|rho| = 1) are simulable even though inference excludes them; |rho| > 1
    raises ``ValidationError``.

    ``drift_alpha`` and ``vol_alpha`` never read X, so the latent path runs
    first, then the observed path on the finished latent path. Only the two
    state recursions loop over steps; the increments, ``vol_alpha * dW`` and
    ``vol_x * dB_total`` are whole-array stages. A non-finite value persists
    along its path, so one check at the end raises ``ExplosionError`` at the
    first grid time where any path is non-finite.
    """
    if not all(math.isfinite(v) for v in params.values.values()):
        raise ValidationError("simulation parameters must be finite")
    rho = model.rho(params)
    if abs(rho) > 1.0:
        raise ValidationError(f"correlation {model.leverage}={rho} outside [-1, 1]")
    x0 = np.asarray(x0, dtype=float)
    alpha0 = np.asarray(alpha0, dtype=float)
    if x0.shape != alpha0.shape:
        raise ValidationError("x0 and alpha0 batch shapes differ")
    if not (np.isfinite(x0).all() and np.isfinite(alpha0).all()):
        raise ValidationError("simulation start values x0 and alpha0 must be finite")
    n = len(grid)
    x = np.empty((n,) + x0.shape)
    a = np.empty((n,) + x0.shape)
    x[0] = x0
    a[0] = alpha0
    if n == 1:
        return x.T, a.T

    times = grid.times
    dts = grid.steps.tolist()
    sq = np.sqrt(dts).reshape((n - 1,) + (1,) * x0.ndim)
    rows = max(1, _BLOCK_ELEMS // x0.size)
    blocks = [slice(r, min(r + rows, n - 1)) for r in range(0, n - 1, rows)]
    noise_b = rng.normal((n - 1,) + x0.shape)
    # a non-finite state is caught by the check at the end, not reported twice
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if model.has_latent:
            noise_w = rng.normal((n - 1,) + x0.shape)
            lev = math.sqrt(1.0 - rho * rho)
            sa = model.vol_alpha(params)
            # in place: noise_w becomes vol_alpha * dW and noise_b becomes
            # dB_total; every product is grouped as a one-step-at-a-time
            # Euler loop groups it (lev * sqrt(dt) is one factor), so the
            # paths are bit-identical to that loop's
            for s in blocks:
                dw = noise_w[s]
                dw *= sq[s]
                db = noise_b[s]
                db *= lev * sq[s]
                db += rho * dw
                dw *= sa
            # a row is a numpy scalar for one path and an array for a batch
            for i, dt in enumerate(dts):
                ai = a[i]
                a[i + 1] = ai + model.drift_alpha(ai, params) * dt + noise_w[i]
        else:
            noise_b *= sq
            a[1:] = a[0]
        # noise_b becomes vol_x(alpha) * dB_total, with alpha left of each step
        for s in blocks:
            noise_b[s] *= model.vol_x(a[s], params)
        for i, dt in enumerate(dts):
            xi = x[i]
            x[i + 1] = xi + model.drift_x(times[i], xi, a[i], params) * dt + noise_b[i]

    xf, af = x.reshape(n, -1), a.reshape(n, -1)
    bad = ~(np.isfinite(xf[-1]) & np.isfinite(af[-1]))
    if bad.any():
        finite = (np.isfinite(xf[1:, bad]) & np.isfinite(af[1:, bad])).all(axis=1)
        raise ExplosionError(times[int(np.argmin(finite)) + 1])
    return x.T, a.T


def euler_simulate(
    model: ModelSpec,
    params: ParamVector,
    x0: float,
    alpha0: float,
    grid: TimeGrid,
    rng: RandomStream,
) -> tuple[Path, Path]:
    """Simulate a joint (observed, latent) skeleton on ``grid``.

    For models without a latent diffusion the second path is identically
    ``alpha0``.
    """
    x, a = _euler_paths(model, params, float(x0), float(alpha0), grid, rng)
    return Path(grid, x), Path(grid, a)


# ---------------------------------------------------------------------------
# Leverage adjustment


def cumulative_leverage(rho: float, sx: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Cumulative sum of rho * sx * d(gamma) with left-point ``sx``, zero at
    the first knot; batched over rows (last axis is time)."""
    out = np.zeros_like(gamma)
    np.cumsum(rho * sx[..., :-1] * np.diff(gamma, axis=-1), axis=-1, out=out[..., 1:])
    return out
