"""Bayesian estimation of diffusion-driven stochastic volatility models.

The likelihood is reparametrised through two time changes so that the
dominating measure of the latent paths is parameter free; the Gibbs sampler
then mixes without degenerating as the number of imputed points grows.
"""

from .errors import ExplosionError, NumericsError, ValidationError
from .models import (
    ModelSpec,
    ParamVector,
    alpha_to_gamma,
    euler_simulate,
    gamma_to_alpha,
    get_model,
    lamperti,
    leverage_adjust,
    model_names,
)
from .paths import (
    Path,
    RandomStream,
    TimeGrid,
    integrate_left_riemann,
    quadratic_variation,
    sample_brownian_motion,
)
from .timechange import (
    EtaProfile,
    build_eta,
    refine_retrospective,
    sample_bridge_point,
    u_time,
    u_to_x,
    u_to_z,
    x_to_u,
    z_time,
    z_to_u,
)
from .likelihood import (
    LogLikBreakdown,
    euler_loglik,
    log_augmented_posterior,
    log_end_density,
    log_girsanov_U,
    log_latent_marginal,
)
from .mcmc import (
    AugmentedState,
    PriorSpec,
    SamplerConfig,
    Trace,
    run_chain,
    update_drift_params,
    update_gamma_block,
    update_timescale_param,
    update_z_path,
)
from .diagnostics import (
    SummaryTable,
    acf,
    iact,
    kde_export,
    prior_recovery_test,
    summarize,
)

__version__ = "0.1.0"
