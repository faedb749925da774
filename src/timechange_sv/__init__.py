"""Bayesian estimation of diffusion-driven stochastic volatility models.

The likelihood is reparametrised through two time changes so that the
dominating measure of the latent paths is parameter free; the Gibbs sampler
then mixes without degenerating as the number of imputed points grows.
"""

from .errors import ExplosionError, NumericsError, ValidationError
from .models import ModelSpec, euler_simulate, get_model, model_names
from .paths import Path, RandomStream, TimeGrid
from .mcmc import AugmentedState, PriorSpec, SamplerConfig, Trace, run_chain
from .diagnostics import (
    SUMMARY_COLUMNS,
    acf,
    iact,
    kde_export,
    prior_recovery_test,
    summarize,
)

__version__ = "0.1.0"
