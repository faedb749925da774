import numpy as np
import pytest
from scipy import integrate, signal, stats

from timechange_sv.diagnostics import acf, iact, kde_export, prior_recovery_test, summarize
from timechange_sv.errors import ValidationError
from timechange_sv.mcmc import PriorSpec, SamplerConfig, Trace, sweep
from timechange_sv.models import get_model
from timechange_sv.paths import RandomStream

PHI = 0.5


def ar1(n, seed=1):
    """Stationary AR(1) series x_t = PHI x_{t-1} + e_t with unit innovations."""
    e = RandomStream(seed).normal(n)
    e[0] /= np.sqrt(1.0 - PHI**2)
    return signal.lfilter([1.0], [1.0, -PHI], e)


class TestAutocorrelation:
    def test_ar1_closed_form(self):
        # sample acf sd at n = 2e5 is at most sqrt((1+phi^2)/(1-phi^2)/n) ~ 0.003
        rho = acf(ar1(200_000), 5)
        assert rho[0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(rho[1:], PHI ** np.arange(1, 6), atol=0.02)

    def test_ar1_iact(self):
        assert iact(ar1(200_000)) == pytest.approx((1 + PHI) / (1 - PHI), rel=0.1)

    def test_iact_needs_100_points(self):
        with pytest.raises(ValidationError):
            iact(ar1(99))


class TestKde:
    def test_integrates_to_one(self):
        grid = kde_export(RandomStream(4).normal(5000))
        assert integrate.trapezoid(grid[:, 1], grid[:, 0]) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("n, seed, scale", [(3, 1, 1.0), (300, 2, 1e-3), (5000, 4, 50.0)])
    def test_matches_scipy_silverman(self, n, seed, scale):
        x = scale * RandomStream(seed).normal(n) ** 2
        grid = kde_export(x)
        kde = stats.gaussian_kde(x, bw_method="silverman")
        bw = np.sqrt(kde.covariance[0, 0])
        expected = np.linspace(x.min() - 5.0 * bw, x.max() + 5.0 * bw, 256)
        assert np.allclose(grid[:, 0], expected, rtol=0.0, atol=1e-12 * np.abs(expected).max())
        assert np.allclose(grid[:, 1], kde(grid[:, 0]), rtol=1e-12, atol=0.0)

    def test_constant_series_rejected(self):
        with pytest.raises(ValidationError):
            kde_export(np.full(50, 2.0))


def test_summarize_matches_numpy():
    draws = RandomStream(8).normal((500, 2)) * [1.0, 3.0] + [0.0, 5.0]
    trace = Trace(
        param_names=("a", "b"), draws=draws, logliks=np.zeros(500),
        iters=np.arange(500), acceptance={}, config=SamplerConfig(m=1, n_iter=2, n_burn=0),
    )
    table = summarize(trace)
    for j, name in enumerate(("a", "b")):
        col = draws[:, j]
        expected = (np.mean(col), np.std(col, ddof=1), *np.percentile(col, [2.5, 50.0, 97.5]))
        assert table[name] == pytest.approx(expected, rel=1e-12)


class TestPriorRecovery:
    """The joint-distribution harness on const-vol-scalar passes the real
    sweep and catches a transition that does not preserve the posterior."""

    MODEL = get_model("const-vol-scalar")
    PRIOR = PriorSpec.from_model(MODEL, {"theta": (-1, 1), "sigma": (0.3, 2)})
    CONFIG = SamplerConfig(m=3, n_iter=2, n_burn=1, rw_scales={"theta": 0.5, "sigma": 0.5})

    def test_sweep_recovers_the_prior(self):
        p = prior_recovery_test(self.MODEL, self.PRIOR, self.CONFIG, 300, RandomStream(1),
                                sweeps=30)
        assert min(p.values()) > 0.01, p

    def test_broken_transition_is_caught(self):
        def inflate_sigma(state, rng):
            # a sweep, then a deterministic push of sigma up, capped in the box
            sweep(state, rng, self.CONFIG.rw_scales)
            sigma = min(1.05 * state.params["sigma"], 1.999)
            state.params = state.params.replace(sigma=sigma)
            state.refresh(slice(None), state.quantities())

        p = prior_recovery_test(self.MODEL, self.PRIOR, self.CONFIG, 100, RandomStream(2),
                                sweeps=10, transition=inflate_sigma)
        assert p["sigma"] < 1e-3, p

    def test_improper_prior_rejected(self):
        prior = PriorSpec.from_model(self.MODEL, {"theta": (-1, 1)})
        with pytest.raises(ValidationError, match="sigma"):
            prior.sample(RandomStream(0), ["theta", "sigma"])
        assert set(prior.sample(RandomStream(0), ["theta"])) == {"theta"}
