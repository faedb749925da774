"""Shared fixtures and oracle helpers for the test suite."""

import numpy as np

from timechange_sv.models import ModelSpec, ParamSupport, POSITIVE, REAL
from timechange_sv.paths import Path, TimeGrid


def scalar_ou_model(kappa=1.5, mu=0.3, sigma=0.8) -> ModelSpec:
    """Mean-reverting scalar model with constant volatility (no latent)."""
    return ModelSpec(
        name="scalar-ou",
        param_names=("kappa", "mu", "sigma"),
        supports={"kappa": POSITIVE, "mu": REAL, "sigma": POSITIVE},
        defaults={"kappa": kappa, "mu": mu, "sigma": sigma},
        drift_x=lambda t, x, a, p: p["kappa"] * (p["mu"] - np.asarray(x, dtype=float)),
        vol_x=lambda a, p: np.full(np.shape(a), p["sigma"], dtype=float),
        has_latent=False,
        timescale_params=("sigma",),
    )


def decoupled_sv_model() -> ModelSpec:
    """SV-shaped model whose observed diffusion ignores the latent path:
    unit volatility and latent-free drift."""
    return ModelSpec(
        name="decoupled-sv",
        param_names=("kappa_x", "mu_x", "kappa_alpha", "mu_alpha", "sigma", "alpha0"),
        supports={
            "kappa_x": POSITIVE, "mu_x": REAL, "kappa_alpha": POSITIVE,
            "mu_alpha": REAL, "sigma": POSITIVE, "alpha0": REAL,
        },
        defaults={
            "kappa_x": 0.4, "mu_x": 0.0, "kappa_alpha": 0.5,
            "mu_alpha": -0.3, "sigma": 0.5, "alpha0": -0.3,
        },
        drift_x=lambda t, x, a, p: p["kappa_x"] * (p["mu_x"] - np.asarray(x, dtype=float)),
        vol_x=lambda a, p: np.ones(np.shape(a)),
        has_latent=True,
        drift_alpha=lambda a, p: p["kappa_alpha"] * (p["mu_alpha"] - np.asarray(a, dtype=float)),
        vol_alpha=lambda p: p["sigma"],
        timescale_params=("sigma", "alpha0"),
    )


def log_bm_fdd(times, values, var_rate=1.0) -> float:
    """Log density of a skeleton under Brownian motion with variance rate
    ``var_rate`` (exact finite-dimensional Gaussian)."""
    dv = np.diff(np.asarray(values, dtype=float))
    dt = np.diff(np.asarray(times, dtype=float))
    v = var_rate * dt
    return float(np.sum(-0.5 * np.log(2.0 * np.pi * v) - dv * dv / (2.0 * v)))


def log_bridge_fdd(times, values, var_rate=1.0) -> float:
    """Log density of a skeleton's interior under the Brownian bridge pinned
    at the skeleton's endpoints, variance rate ``var_rate``."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    span = times[-1] - times[0]
    end = (
        -0.5 * np.log(2.0 * np.pi * var_rate * span)
        - (values[-1] - values[0]) ** 2 / (2.0 * var_rate * span)
    )
    return log_bm_fdd(times, values, var_rate) - float(end)


def subsample_path(path: Path, stride: int) -> Path:
    return Path.from_arrays(path.times[::stride], path.values[::stride])


def reflected_path(path: Path) -> Path:
    """Interior reflected around the endpoint chord; endpoints preserved."""
    chord = np.interp(
        path.times, [path.times[0], path.times[-1]], [path.values[0], path.values[-1]]
    )
    return Path(path.grid, 2.0 * chord - path.values)
