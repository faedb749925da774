"""Workload definitions and their seeded inputs.

Each workload is a closed loop run from one process: the next chain or
command starts when the previous one has finished. The benchmark makes the
data from the workload seed with the model's own Euler scheme at its default
parameters, and hands the program only those inputs.
"""

from __future__ import annotations

import math

import numpy as np

WEEK = 5.0 / 252.0  # years between weekly observations

# Ends the default flat priors leave open are closed around the defaults:
# with improper priors a tbill-logsv chain drifts to mu ~ 12, kappa ~ 18 in a
# few thousand sweeps, which moves both the cost of a sweep and its ESS.
TBILL_BOX = {
    "theta0": (0.0, 0.5), "theta1": (-0.1, 0.2), "kappa": (0.5, 10.0),
    "mu": (-6.0, -2.0), "sigma": (1.0, 5.0), "alpha0": (-7.0, -1.0),
}
OUSV_BOX = {
    "kappa_x": (0.02, 2.0), "mu_x": (-2.0, 2.0), "kappa_alpha": (0.03, 3.0),
    "mu_alpha": (-2.0, 1.5), "sigma": (0.1, 1.5), "rho": (-0.95, 0.95),
    "alpha0": (-2.0, 1.5),
}

# ESS is a property of one chain's random numbers, and at the chain lengths a
# run affords its seed-to-seed spread is far wider than any bound (see
# NOTES.md). ess_per_s therefore takes ESS from chains at this fixed seed,
# where it is deterministic, and time from the run's own seeded chains.
REFERENCE_SEED = 20071109

SAMPLERS = {
    # ROADMAP item 3's target: refinement and the engine's per-element cost
    # dominate a sweep.
    "tbill-n500-m16": dict(
        model="tbill-logsv", n_obs=500, m=16, box=TBILL_BOX, x0=math.log(10.0),
        steps_per_obs=50, n_iter=100, n_burn=25, ref_iter=400, ref_burn=100,
    ),
    # Small arrays, so per-call Python overhead dominates; the only workload
    # with leverage (rho != 0) and three time-scale parameters.
    "ousv-n100-m4": dict(
        model="ou-sv-leverage", n_obs=100, m=4, box=OUSV_BOX, x0=0.0,
        steps_per_obs=50, n_iter=150, n_burn=40, ref_iter=1500, ref_burn=300,
    ),
}

# The only workload that runs the simulator and the CSV writers, and pays
# interpreter start and imports on every command. 25k Euler steps thinned to
# 251 weekly observations keep a seeded pipeline plus a reference fit near
# 10 s, so a run times at least two of each; a fit needs 100 draws per chain
# for diagnostics.iact.
CLI = dict(
    model="tbill-logsv", box=TBILL_BOX, x0=math.log(10.0),
    n_steps=25_000, thin_stride=100, m=8, chains=2, n_iter=120, n_burn=20,
    max_lag=50, kde_points=256,
)

WORKLOADS = (*SAMPLERS, "cli-tbill")


def simulate_data(pkg, spec: dict, seed: int):
    """Observations (times, raw values) of one workload at ``seed``.

    Euler steps run on a grid ``steps_per_obs`` times finer than the weekly
    observations and are thinned to them. Raises ValueError on data the
    workload cannot use.
    """
    model = pkg.models.get_model(spec["model"])
    params = model.make_params()
    per = spec["steps_per_obs"]
    grid = pkg.paths.TimeGrid(WEEK / per * np.arange((spec["n_obs"] - 1) * per + 1))
    x, _alpha = pkg.models.euler_simulate(
        model, params, spec["x0"], params["alpha0"], grid, pkg.paths.RandomStream(seed)
    )
    times = grid.times[::per]
    values = x.values[::per]
    if model.obs_transform_inv is not None:
        values = model.obs_transform_inv(values)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{spec['model']} data at seed {seed} are not finite")
    if model.obs_transform is not None and not np.all(values > 0.0):
        raise ValueError(f"{spec['model']} rates at seed {seed} are not all positive")
    return times, values


def cli_config(seed: int) -> dict:
    """The JSON config the CLI pipeline runs on at ``seed``."""
    c = CLI
    return {
        "model": c["model"],
        "prior": {k: list(v) for k, v in c["box"].items()},
        "sampler": {
            "m": c["m"], "n_iter": c["n_iter"], "n_burn": c["n_burn"],
            "chains": c["chains"], "seed": seed, "validate_every": c["n_iter"],
        },
        "simulate": {
            "delta": WEEK / c["thin_stride"], "n_steps": c["n_steps"],
            "thin_stride": c["thin_stride"], "seed": seed, "x0": c["x0"],
        },
    }
