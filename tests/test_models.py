import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timechange_sv.errors import ExplosionError, ValidationError
from timechange_sv.models import (
    ModelSpec,
    POSITIVE,
    REAL,
    _euler_paths,
    alpha_to_gamma,
    euler_simulate,
    gamma_to_alpha,
    get_model,
    lamperti,
    leverage_adjust,
    model_names,
)
from timechange_sv.paths import Path, RandomStream, TimeGrid, quadratic_variation

from _support import scalar_ou_model


class TestRegistry:
    def test_names(self):
        assert model_names() == ("const-vol-scalar", "ou-sv-leverage", "tbill-logsv")

    def test_unknown_model(self):
        with pytest.raises(ValidationError):
            get_model("nope")

    def test_defaults_in_support(self):
        for name in model_names():
            get_model(name).make_params().validate()

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValidationError):
            get_model("const-vol-scalar").make_params({"bogus": 1.0})

    def test_support_violation_detected(self):
        params = get_model("ou-sv-leverage").make_params({"sigma": -1.0})
        with pytest.raises(ValidationError):
            params.validate()


class TestEulerSimulate:
    def test_degenerate_latent_is_brownian(self):
        # zero drifts, unit vol, latent scale ~0: X is standard BM
        model = get_model("ou-sv-leverage")
        params = model.make_params(
            {"kappa_x": 1e-12, "mu_x": 0.0, "kappa_alpha": 1e-12, "mu_alpha": 0.0,
             "sigma": 1e-12, "rho": 0.0, "alpha0": 0.0}
        )
        grid = TimeGrid(np.linspace(0.0, 10.0, 20_001))
        x, a = euler_simulate(model, params, 0.0, 0.0, grid, RandomStream(3))
        assert quadratic_variation(x) == pytest.approx(10.0, rel=0.1)
        assert np.allclose(a.values, 0.0, atol=1e-9)

    def test_simulation_study_shape(self):
        # 500,001 fine points thinned by 1000 -> 501 observations
        model = get_model("ou-sv-leverage")
        params = model.make_params(
            {"kappa_x": 0.2, "mu_x": 0.1, "kappa_alpha": 0.3, "mu_alpha": -0.2,
             "sigma": 0.4, "rho": -0.5}
        )
        grid = TimeGrid(0.001 * np.arange(500_001))
        x, a = euler_simulate(model, params, 0.1, -0.2, grid, RandomStream(1))
        thinned = x.values[::1000]
        assert grid.times[-1] == pytest.approx(500.0)
        assert thinned.size == 501

    @pytest.mark.parametrize("rho", [1.0, -1.0])
    def test_full_leverage_correlation(self, rho):
        model = get_model("ou-sv-leverage")
        params = model.make_params({"rho": 0.0}).replace(rho=rho)  # bypass support check
        grid = TimeGrid(np.linspace(0.0, 50.0, 50_001))
        x, a = _euler_paths(model, params, [0.0], [-0.2], grid, RandomStream(8))
        dx = np.diff(x[0]) / np.exp(0.5 * a[0][:-1])
        da = np.diff(a[0]) / params["sigma"]
        corr = np.corrcoef(dx, da)[0, 1]
        assert corr == pytest.approx(rho, abs=0.02)

    def test_explosion_reports_time(self):
        model = ModelSpec(
            name="blowup", param_names=("c",), supports={"c": REAL},
            defaults={"c": 1.0},
            drift_x=lambda t, x, a, p: np.asarray(x, dtype=float) ** 3 * 1e6,
            vol_x=lambda a, p: np.ones(np.shape(a)),
            has_latent=False,
        )
        grid = TimeGrid(np.linspace(0.0, 5.0, 501))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ExplosionError) as err:
                euler_simulate(model, model.make_params(), 1.0, 0.0, grid, RandomStream(0))
        assert 0.0 < err.value.time <= 5.0

    def test_ou_endpoint_distribution(self):
        # dX = -X dt + dW on [0,1] from 1: endpoint ~ N(e^-1, (1-e^-2)/2)
        model = scalar_ou_model(kappa=1.0, mu=0.0, sigma=1.0)
        grid = TimeGrid(np.linspace(0.0, 1.0, 1001))
        x, _ = _euler_paths(
            model, model.make_params(), np.ones(100_000), np.zeros(100_000),
            grid, RandomStream(17),
        )
        ends = x[:, -1]
        mean_th = np.exp(-1.0)
        var_th = 0.5 * (1.0 - np.exp(-2.0))
        assert abs(ends.mean() - mean_th) < 4.0 * np.sqrt(var_th / ends.size) + 1e-3
        assert abs(ends.var(ddof=1) - var_th) < 4.0 * var_th * np.sqrt(2.0 / ends.size) + 1e-3

    def test_qv_matches_integrated_variance_sv(self):
        # sample QV of X against the integrated squared volatility
        model = get_model("ou-sv-leverage")
        params = model.make_params()
        grid = TimeGrid(1e-4 * np.arange(1_000_001))  # T = 100
        x, a = euler_simulate(model, params, 0.1, -0.2, grid, RandomStream(44))
        qv = quadratic_variation(x)
        integral = float(np.sum(np.exp(a.values[:-1]) * np.diff(grid.times)))
        assert qv == pytest.approx(integral, rel=0.05)


class TestLatentTransforms:
    def test_constant_latent_maps_to_zero(self):
        model = get_model("ou-sv-leverage")
        params = model.make_params()
        a = Path.from_arrays([0.0, 1.0, 2.0], [-0.2, -0.2, -0.2])
        g = alpha_to_gamma(a, params, model)
        assert np.all(g.values == 0.0)

    def test_hand_values(self):
        model = get_model("ou-sv-leverage")
        params = model.make_params({"sigma": 0.4})
        a = Path.from_arrays([0.0, 1.0, 2.0], [0.0, 0.4, 0.8])
        g = alpha_to_gamma(a, params, model)
        assert np.allclose(g.values, [0.0, 1.0, 2.0], atol=1e-14)

    def test_inverse_hand_values(self):
        g = Path.from_arrays([0.0, 1.0], [0.0, 1.0])
        a = gamma_to_alpha(g, 0.4, -0.2)
        assert np.allclose(a.values, [-0.2, 0.2], atol=1e-15)

    def test_zero_scale_collapses(self):
        g = Path.from_arrays([0.0, 1.0, 2.0], [0.0, 3.0, -1.0])
        a = gamma_to_alpha(g, 0.0, 0.7)
        assert np.all(a.values == 0.7)

    @given(
        st.lists(st.floats(-3, 3), min_size=2, max_size=12),
        st.floats(0.05, 5.0),
        st.floats(-2.0, 2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, alphas, sigma, alpha0):
        model = get_model("ou-sv-leverage")
        params = model.make_params({"sigma": sigma})
        times = np.arange(len(alphas), dtype=float)
        a = Path.from_arrays(times, np.array([alpha0] + alphas[1:]))
        g = alpha_to_gamma(a, params, model)
        back = gamma_to_alpha(g, sigma, alpha0)
        assert np.allclose(back.values, a.values, rtol=1e-12, atol=1e-12)


class TestLamperti:
    def test_identity_when_no_state_vol(self):
        model = get_model("ou-sv-leverage")
        x, jac = lamperti(1.7, model.make_params(), model)
        assert (x, jac) == (1.7, 0.0)

    def test_log_transform_at_e(self):
        model = get_model("tbill-logsv")
        x, jac = lamperti(np.e, model.make_params(), model)
        assert x == pytest.approx(1.0, abs=1e-15)
        assert jac == pytest.approx(-1.0, abs=1e-15)

    def test_derivative_matches_reciprocal_state_vol(self):
        # d transform / dx == 1 / state_vol by central differences
        model = get_model("tbill-logsv")
        params = model.make_params()
        for r in (0.1, 0.5, 2.0, 8.0):
            h = 1e-6 * r
            up, _ = lamperti(r + h, params, model)
            dn, _ = lamperti(r - h, params, model)
            deriv = (up - dn) / (2.0 * h)
            assert deriv == pytest.approx(1.0 / model.state_vol(r, params), rel=1e-6)

    def test_nonpositive_state_rejected(self):
        model = get_model("tbill-logsv")
        with pytest.raises(ValidationError):
            lamperti(-1.0, model.make_params(), model)


class TestLeverageAdjust:
    def _setup(self, rho=-0.5):
        model = get_model("ou-sv-leverage")
        params = model.make_params({"rho": rho})
        rng = RandomStream(6)
        times = np.linspace(0.0, 2.0, 9)
        gamma = Path.from_arrays(times, np.concatenate(([0.0], np.cumsum(rng.normal(8) * 0.5))))
        x = Path.from_arrays(times, np.cumsum(rng.normal(9)))
        return model, params, x, gamma

    def test_zero_correlation_identity(self):
        model, params, x, gamma = self._setup(rho=0.0)
        h = leverage_adjust(x, gamma, params, model, "forward")
        assert np.array_equal(h.values, x.values)

    def test_round_trip_exact(self):
        model, params, x, gamma = self._setup()
        h = leverage_adjust(x, gamma, params, model, "forward")
        back = leverage_adjust(h, gamma, params, model, "inverse")
        assert np.allclose(back.values, x.values, rtol=1e-12, atol=1e-14)

    def test_constant_vol_closed_form(self):
        # constant vol c: adjustment at t is rho * c * gamma_t
        model = get_model("ou-sv-leverage")
        c = 1.0  # exp(alpha/2) with alpha pinned at 0
        params = model.make_params({"rho": -0.4, "sigma": 1e-300, "alpha0": 0.0})
        times = np.linspace(0.0, 1.0, 6)
        gamma = Path.from_arrays(times, np.array([0.0, 1.0, -0.5, 2.0, 0.3, 1.1]))
        x = Path.from_arrays(times, np.zeros(6))
        h = leverage_adjust(x, gamma, params, model, "forward")
        assert np.allclose(h.values, -(-0.4) * c * gamma.values, atol=1e-12)

    def test_grid_mismatch_rejected(self):
        model, params, x, gamma = self._setup()
        short = Path.from_arrays(gamma.times[2:], gamma.values[2:])
        with pytest.raises(ValidationError):
            leverage_adjust(x, short, params, model, "forward")

    def test_interpolates_finer_observed_grid(self):
        model, params, _, gamma = self._setup()
        fine = np.linspace(0.0, 2.0, 33)
        x = Path.from_arrays(fine, np.zeros(33))
        h = leverage_adjust(x, gamma, params, model, "forward")
        back = leverage_adjust(h, gamma, params, model, "inverse")
        assert np.allclose(back.values, x.values, rtol=1e-12, atol=1e-14)
