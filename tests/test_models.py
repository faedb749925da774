import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timechange_sv.cli import ingest_csv
from timechange_sv.errors import ExplosionError, ValidationError
from timechange_sv.likelihood import path_stage, warp_stage
from timechange_sv.mcmc import _transform_observations
from timechange_sv.models import (
    ModelSpec,
    POSITIVE,
    REAL,
    _euler_paths,
    euler_simulate,
    get_model,
    model_names,
)
from timechange_sv.paths import RandomStream, TimeGrid
from timechange_sv.timechange import centre_on_chord

from _support import decoupled_sv_model, euler_paths_reference, scalar_ou_model


def uneven_grid(n_points):
    steps = np.random.default_rng(0).uniform(1e-3, 2e-2, n_points - 1)
    return TimeGrid(np.concatenate(([0.0], np.cumsum(steps))))


def blowup_model(drift_x=None, vol_x=None, drift_alpha=None):
    """Model whose coefficients the caller picks; with ``drift_alpha`` it has
    a latent diffusion of scale 0.1 that the observed one ignores."""
    return ModelSpec(
        name="blowup", param_names=("c",), supports={"c": REAL}, defaults={"c": 1.0},
        drift_x=drift_x or (lambda t, x, a, p: np.zeros(np.shape(x))),
        vol_x=vol_x or (lambda a, p: np.ones(np.shape(a))),
        has_latent=drift_alpha is not None,
        drift_alpha=drift_alpha,
        vol_alpha=lambda p: 0.1,
    )


def assert_explodes_as_step_loop(model, x0, alpha0):
    """The simulator raises ExplosionError at exactly the grid time where the
    per-step loop does, a step strictly inside the grid. Scalar starts run the
    simulator's one-path (numpy scalar) rows; the loop takes them as a batch
    of one."""
    grid = TimeGrid(np.linspace(0.0, 5.0, 501))
    with pytest.raises(ExplosionError) as ref:
        euler_paths_reference(model, model.make_params(), x0, alpha0, grid, RandomStream(0))
    with pytest.raises(ExplosionError) as got:
        _euler_paths(model, model.make_params(), x0, alpha0, grid, RandomStream(0))
    k = int(np.searchsorted(grid.times, ref.value.time))
    assert 1 < k < len(grid) - 1
    assert got.value.time == ref.value.time == grid.times[k]


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
        assert np.sum(np.diff(x.values) ** 2) == pytest.approx(10.0, rel=0.1)
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
        model = blowup_model(drift_x=lambda t, x, a, p: np.asarray(x, dtype=float) ** 3 * 1e6)
        assert_explodes_as_step_loop(model, [1.0], [0.0])
        assert_explodes_as_step_loop(model, 1.0, 0.0)

    def test_explosion_time_of_latent_drift(self):
        # X ignores alpha, so it stays finite: only the latent path blows up
        model = blowup_model(drift_alpha=lambda a, p: np.asarray(a, dtype=float) ** 3 * 1e4)
        assert_explodes_as_step_loop(model, [0.0], [1.0])
        assert_explodes_as_step_loop(model, 0.0, 1.0)

    def test_explosion_time_of_one_path_in_a_batch(self):
        # paths from 0 with volatility 0.1 stay far below 2 on [0, 5]; the
        # one from 3 sits where the drift explodes
        model = blowup_model(
            drift_x=lambda t, x, a, p: np.where(x > 2.0, np.asarray(x, dtype=float) ** 3, 0.0),
            vol_x=lambda a, p: np.full(np.shape(a), 0.1),
        )
        assert_explodes_as_step_loop(model, [0.0, 3.0, 0.0], [0.0, 0.0, 0.0])
        assert_explodes_as_step_loop(model, 3.0, 0.0)

    @pytest.mark.parametrize("x0,alpha0", [(np.nan, 0.0), (np.inf, 0.0), (0.0, -np.inf),
                                           ([0.0, np.nan], [0.0, 0.0])])
    def test_nonfinite_start_rejected(self, x0, alpha0):
        # a bad start is an input error, not an explosion at the first step
        model = get_model("ou-sv-leverage")
        grid = TimeGrid(np.linspace(0.0, 1.0, 11))
        with pytest.raises(ValidationError, match="start values"):
            _euler_paths(model, model.make_params(), x0, alpha0, grid, RandomStream(0))

    @pytest.mark.parametrize("rho", [1.5, -1.0000001])
    def test_correlation_outside_unit_interval_rejected(self, rho):
        # with |rho| > 1 the leverage factor used to be clamped to 0, which
        # gave dB_total the variance rho^2 dt
        model = get_model("ou-sv-leverage")
        params = model.make_params().replace(rho=rho)
        grid = TimeGrid(np.linspace(0.0, 1.0, 11))
        with pytest.raises(ValidationError, match="outside"):
            euler_simulate(model, params, 0.1, -0.2, grid, RandomStream(0))

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
        qv = np.sum(np.diff(x.values) ** 2)
        integral = float(np.sum(np.exp(a.values[:-1]) * np.diff(grid.times)))
        assert qv == pytest.approx(integral, rel=0.05)


def simulated_models():
    cases = [pytest.param(get_model(n), {}, id=n) for n in model_names()]
    cases += [pytest.param(get_model("ou-sv-leverage"), {"rho": r}, id=f"ou-sv-rho{r:+.0f}")
              for r in (1.0, -1.0)]
    cases += [pytest.param(scalar_ou_model(), {}, id="scalar-ou"),
              pytest.param(decoupled_sv_model(), {}, id="decoupled-sv")]
    return cases


class TestEulerOracle:
    """``_euler_paths`` against the per-step loop it replaced
    (``euler_paths_reference``): the same bits, the same random numbers."""

    @pytest.mark.parametrize("batch,n_points", [((1,), 300), ((3,), 300), ((3,), 1), ((), 300)],
                             ids=["one-path", "batch", "one-point", "scalar"])
    @pytest.mark.parametrize("model,updates", simulated_models())
    def test_bit_identical(self, model, updates, batch, n_points):
        # starts are Python floats or lists of them; a float, as
        # euler_simulate passes it, steps on numpy scalars, and the loop takes
        # it as a batch of one
        params = model.make_params().replace(**updates)  # rho = +-1 bypasses support
        k = np.arange(math.prod(batch)).reshape(batch)
        x0 = ((np.log(10.0) if model.obs_transform else 0.1) + 0.01 * k).tolist()
        a0 = ((params["alpha0"] if "alpha0" in params else 0.0) - 0.1 * k).tolist()
        grid = uneven_grid(n_points)
        ref_rng, rng = RandomStream(9), RandomStream(9)
        want = euler_paths_reference(model, params, x0, a0, grid, ref_rng)
        got = _euler_paths(model, params, x0, a0, grid, rng)
        for g, w in zip(got, want):
            assert g.shape == batch + (n_points,)
            assert g.tobytes() == w.tobytes()
        assert rng.normal() == ref_rng.normal()


class TestLatentTransforms:
    """alpha = alpha0 + scale * gamma (``ModelSpec.latent_values``)."""

    def test_constant_latent_maps_to_zero(self):
        model = get_model("ou-sv-leverage")
        params = model.make_params()
        assert np.all(model.latent_values(np.zeros(3), params) == params["alpha0"])

    def test_hand_values(self):
        model = get_model("ou-sv-leverage")
        params = model.make_params({"sigma": 0.4, "alpha0": 0.0})
        alpha = model.latent_values([0.0, 1.0, 2.0], params)
        assert np.allclose(alpha, [0.0, 0.4, 0.8], atol=1e-14)

    def test_inverse_hand_values(self):
        model = get_model("ou-sv-leverage")
        params = model.make_params({"sigma": 0.4, "alpha0": -0.2})
        assert np.allclose(model.latent_values([0.0, 1.0], params), [-0.2, 0.2], atol=1e-15)

    def test_zero_scale_collapses(self):
        model = get_model("ou-sv-leverage")
        params = model.make_params({"sigma": 0.0, "alpha0": 0.7})
        assert np.all(model.latent_values([0.0, 3.0, -1.0], params) == 0.7)

    @given(
        st.lists(st.floats(-3, 3), min_size=2, max_size=12),
        st.floats(0.05, 5.0),
        st.floats(-2.0, 2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, alphas, sigma, alpha0):
        # gamma = (alpha - alpha0) / scale, then back through latent_values
        model = get_model("ou-sv-leverage")
        params = model.make_params({"sigma": sigma, "alpha0": alpha0})
        a = np.array([alpha0] + alphas[1:])
        back = model.latent_values((a - alpha0) / sigma, params)
        assert np.allclose(back, a, rtol=1e-12, atol=1e-12)


class TestLamperti:
    """The unit-state-volatility transform of the observations."""

    def test_identity_without_obs_transform(self):
        model = get_model("ou-sv-leverage")
        y, jac = _transform_observations(model, np.array([1.7, -0.4]))
        assert y.tolist() == [1.7, -0.4] and jac.tolist() == [0.0]

    def test_log_transform_at_e(self):
        model = get_model("tbill-logsv")
        y, jac = _transform_observations(model, np.array([1.0, np.e]))
        assert y[1] == pytest.approx(1.0, abs=1e-15)
        assert jac[0] == pytest.approx(-1.0, abs=1e-15)

    @pytest.mark.parametrize(
        "name", [n for n in model_names() if get_model(n).obs_transform is not None]
    )
    def test_jacobian_matches_transform_derivative(self, name):
        # exp(obs_log_jacobian) == d obs_transform / dy by central differences,
        # and obs_transform_inv undoes obs_transform
        model = get_model(name)
        y = np.array([0.1, 0.5, 2.0, 8.0])
        h = 1e-6 * y
        deriv = (model.obs_transform(y + h) - model.obs_transform(y - h)) / (2.0 * h)
        assert np.allclose(np.exp(model.obs_log_jacobian(y)), deriv, rtol=1e-6, atol=0.0)
        assert np.allclose(model.obs_transform_inv(model.obs_transform(y)), y,
                           rtol=1e-12, atol=0.0)

    def test_nonpositive_state_rejected(self, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text("time,value\n0,0.5\n1,-1.0\n")
        model = get_model("tbill-logsv")
        with pytest.raises(ValidationError, match="must be positive"):
            ingest_csv(data, require_positive=model.obs_transform is not None)


def leverage_round_trip(model, params, times, x, gamma):
    """``x`` to the leverage-free path U = x - adjustment, then back through
    the engine's path stage; returns (adjustment, path values)."""
    w = warp_stage(model, params, times[None, :], gamma[None, :])
    U = x - w.adj[0]
    z = centre_on_chord(U[:-1], w.u[0, :-1], w.total[0], x[0], U[-1])
    q = path_stage(w, z[None, :], x[:1], x[-1:])
    return w.adj[0], q.X[0]


class TestLeverageAdjust:
    """The cumulative leverage adjustment of the engine's warp stage
    (``cumulative_leverage``) and its inverse in the path stage."""

    def _setup(self, rho=-0.5):
        model = get_model("ou-sv-leverage")
        params = model.make_params({"rho": rho})
        rng = RandomStream(6)
        times = np.linspace(0.0, 2.0, 9)
        gamma = np.concatenate(([0.0], np.cumsum(rng.normal(8) * 0.5)))
        x = np.cumsum(rng.normal(9))
        return model, params, times, x, gamma

    def test_zero_correlation_identity(self):
        model, params, times, x, gamma = self._setup(rho=0.0)
        adj, _ = leverage_round_trip(model, params, times, x, gamma)
        assert np.all(adj == 0.0)

    def test_round_trip_exact(self):
        model, params, times, x, gamma = self._setup()
        adj, back = leverage_round_trip(model, params, times, x, gamma)
        assert np.any(adj != 0.0)
        assert np.allclose(back, x, rtol=1e-12, atol=1e-14)

    def test_constant_vol_closed_form(self):
        # constant vol c: adjustment at t is rho * c * gamma_t
        model = get_model("ou-sv-leverage")
        c = 1.0  # exp(alpha/2) with alpha pinned at 0
        params = model.make_params({"rho": -0.4, "sigma": 1e-300, "alpha0": 0.0})
        times = np.linspace(0.0, 1.0, 6)
        gamma = np.array([0.0, 1.0, -0.5, 2.0, 0.3, 1.1])
        adj, _ = leverage_round_trip(model, params, times, np.zeros(6), gamma)
        assert np.allclose(adj, -0.4 * c * gamma, atol=1e-12)

    def test_interpolates_finer_observed_grid(self):
        # the latent path interpolated onto a finer grid of knots
        model, params, times, _, gamma = self._setup()
        fine = np.linspace(0.0, 2.0, 33)
        x = np.zeros(33)
        _, back = leverage_round_trip(model, params, fine, x, np.interp(fine, times, gamma))
        assert np.allclose(back, x, rtol=1e-12, atol=1e-14)
