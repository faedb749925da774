import math
from dataclasses import fields

import numpy as np
import pytest
from scipy import integrate, stats

from timechange_sv.errors import NumericsError, ValidationError
from timechange_sv.likelihood import (
    IntervalQuantities,
    girsanov_sum,
    interval_quantities,
    log_end_gaussian,
    path_stage,
    warp_stage,
)
from timechange_sv.mcmc import AugmentedState, PriorSpec
from timechange_sv.models import get_model, euler_simulate, model_names
from timechange_sv.paths import Path, RandomStream, TimeGrid
from timechange_sv.timechange import refine_rows
from timechange_sv.diagnostics import simulate_discrete_skeleton

from _support import (
    euler_loglik,
    log_bm_fdd,
    log_bridge_fdd,
    reflected_path,
    scalar_ou_model,
    subsample_path,
)


def engine_log_g(model, params, path):
    """The engine's Girsanov term for one interval whose observed skeleton
    is ``path`` (evenly spaced knots, a model without a latent path)."""
    state = AugmentedState(
        model, params, path.times[[0, -1]], path.values[None, :], np.zeros((1, len(path))),
        PriorSpec.from_model(model),
    )
    return float(state.cache.log_g[0])


def engine_log_gamma(model, params, times, gamma):
    """The engine's latent-marginal term for one interval with knots ``times``."""
    steps = np.diff(times)[None, :]
    q = interval_quantities(
        model, params, steps, warp_stage(model, params, steps, gamma[None, :]), [0.0], [0.0],
        np.zeros((1, times.size - 1)),
    )
    return float(q.log_gamma[0])


class TestGirsanov:
    def test_driftless_is_zero(self):
        t, v = np.array([0.0, 0.3, 1.0]), np.array([0.0, 0.4, -0.2])
        assert girsanov_sum(np.zeros(2), np.diff(v), np.diff(t)) == 0.0

    @pytest.mark.parametrize("n_knots", [2, 5, 40])
    def test_constant_drift_closed_form(self, n_knots):
        # unit drift and vol, y0=0, y1=1, T=1: exactly 0.5 on any grid
        times = np.linspace(0.0, 1.0, n_knots)
        vals = np.linspace(0.0, 1.0, n_knots) ** 2  # any interior shape
        vals[0], vals[-1] = 0.0, 1.0
        got = girsanov_sum(np.ones(n_knots - 1), np.diff(vals), np.diff(times))
        assert got == pytest.approx(0.5, abs=1e-14)

    def test_constant_drift_matches_gaussian_ratio(self):
        # closed form: log N(y1; y0 + mu T, T) - log N(y1; y0, T)
        mu, y0, y1, T = 1.0, 0.0, 1.0, 1.0
        expected = stats.norm.logpdf(y1, y0 + mu * T, math.sqrt(T)) - stats.norm.logpdf(
            y1, y0, math.sqrt(T)
        )
        assert expected == pytest.approx(0.5, abs=1e-12)

    def test_ou_gap_to_fine_oracle_shrinks(self):
        # ratio functional at m knots vs the fine-grid transition-product
        # oracle: the gap decreases monotonically in m and vanishes at the
        # oracle's own resolution
        model = scalar_ou_model()
        params = model.make_params()
        sig = params["sigma"]
        fine = 1000
        grid = TimeGrid(np.linspace(0.0, 1.0, fine + 1))
        x, a = euler_simulate(model, params, 0.2, 0.0, grid, RandomStream(5))
        x2 = reflected_path(x)

        def ratio_at(m):
            d = 0.0
            for sign, path in ((1.0, x), (-1.0, x2)):
                d += sign * engine_log_g(model, params, subsample_path(path, fine // m))
            return d

        def oracle(path):
            return euler_loglik(path, Path(path.grid, np.zeros(len(path))), params, model) \
                - log_bridge_fdd(path.times, path.values, sig**2)

        target = oracle(x) - oracle(x2)
        gaps = [abs(ratio_at(m) - target) for m in (10, 100, 1000)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-9 * abs(target)


class TestEndDensity:
    def test_standard_normal_at_zero(self):
        assert log_end_gaussian(0.0, 0.0, 1.0) == pytest.approx(-0.9189385, abs=1e-6)

    def test_one_sigma(self):
        T = 2.7
        got = log_end_gaussian(1.0 + math.sqrt(T), 1.0, T)
        assert got == pytest.approx(-0.5 * math.log(2 * math.pi * T) - 0.5, abs=1e-13)

    def test_doubling_scale(self):
        a = log_end_gaussian(0.3, 0.3, 1.0)
        b = log_end_gaussian(0.3, 0.3, 2.0)
        assert a - b == pytest.approx(0.5 * math.log(2.0), abs=1e-13)

    def test_normalizes(self):
        val, _err = integrate.quad(
            lambda y: math.exp(log_end_gaussian(y, 0.7, 1.9)), -np.inf, np.inf
        )
        assert val == pytest.approx(1.0, abs=1e-6)


class TestLatentMarginal:
    def test_driftless_latent_zero(self):
        model = get_model("ou-sv-leverage")
        params = model.make_params({"kappa_alpha": 1e-300})
        t, g = np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.7, -0.4])
        assert engine_log_gamma(model, params, t, g) == pytest.approx(0.0, abs=1e-290)

    def test_must_start_at_zero(self):
        model = get_model("ou-sv-leverage")
        x_values = np.array([[0.0, 0.2, 0.1]])
        with pytest.raises(ValidationError, match="start at zero"):
            AugmentedState(model, model.make_params(), [0.0, 1.0], x_values,
                           np.array([[0.5, 0.7, 0.6]]), PriorSpec.from_model(model))

    def test_euler_oracle_identity(self):
        # exp(latent marginal) * BM density of the unit-diffusion path equals
        # the transition-product density of the latent skeleton divided by
        # the per-step volatility Jacobian (exact for constant latent vol)
        model = get_model("ou-sv-leverage")
        params = model.make_params()
        sig = params["sigma"]
        rng = RandomStream(21)
        times = np.linspace(0.0, 5.0, 41)
        steps = np.diff(times)
        gam = np.concatenate(([0.0], np.cumsum(np.sqrt(steps) * rng.normal(40))))
        alpha = params["alpha0"] + sig * gam

        lhs = engine_log_gamma(model, params, times, gam) + log_bm_fdd(times, gam)
        drift_a = params["kappa_alpha"] * (params["mu_alpha"] - alpha[:-1])
        res = np.diff(alpha) - drift_a * steps
        euler_alpha = np.sum(
            -0.5 * np.log(2 * np.pi * sig**2 * steps) - res**2 / (2 * sig**2 * steps)
        )
        rhs = euler_alpha + 40 * math.log(sig)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_refinement_stability(self):
        # adding bridge-interpolated knots barely moves the value at m = 200
        model = get_model("ou-sv-leverage")
        params = model.make_params()
        rng = RandomStream(33)
        times = np.linspace(0.0, 1.0, 201)
        steps = np.diff(times)
        gam = np.concatenate(([0.0], np.cumsum(np.sqrt(steps) * rng.normal(200))))
        mid_t = 0.5 * (times[:-1] + times[1:])
        mid_v = 0.5 * (gam[:-1] + gam[1:]) + np.sqrt(steps / 4.0) * rng.normal(200)
        all_t = np.sort(np.concatenate((times, mid_t)))
        all_v = np.empty_like(all_t)
        all_v[0::2] = gam
        all_v[1::2] = mid_v
        a = engine_log_gamma(model, params, times, gam)
        b = engine_log_gamma(model, params, all_t, all_v)
        assert abs(a - b) < 1e-2


class TestEulerLoglik:
    def test_single_step_standard_bivariate(self):
        model = get_model("ou-sv-leverage")
        params = model.make_params(
            {"kappa_x": 1e-300, "kappa_alpha": 1e-300, "sigma": 1.0,
             "rho": 0.0, "alpha0": 0.0}
        )
        x = Path.from_arrays([0.0, 1.0], [0.0, 0.3])
        a = Path.from_arrays([0.0, 1.0], [0.0, -0.6])
        got = euler_loglik(x, a, params, model)
        expected = stats.norm.logpdf(0.3) + stats.norm.logpdf(-0.6)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_matches_exact_ou_product(self):
        model = scalar_ou_model(kappa=1.2, mu=0.0, sigma=0.6)
        params = model.make_params()
        gaps = []
        for n in (16, 64, 256):
            grid = TimeGrid(np.linspace(0.0, 2.0, n + 1))
            x, a = euler_simulate(model, params, 0.5, 0.0, grid, RandomStream(10))
            approx = euler_loglik(x, a, params, model)
            dt = 2.0 / n
            mean = params["mu"] + (x.values[:-1] - params["mu"]) * np.exp(-1.2 * dt)
            var = 0.6**2 * (1 - np.exp(-2 * 1.2 * dt)) / (2 * 1.2)
            exact = np.sum(stats.norm.logpdf(x.values[1:], mean, np.sqrt(var)))
            gaps.append(abs(approx - exact))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_sorted_construction_invariance(self):
        # building the skeleton from scrambled records gives the same value
        model = scalar_ou_model()
        params = model.make_params()
        times = np.linspace(0.0, 1.0, 9)
        vals = np.cos(np.arange(9.0))
        order = np.array([0, 4, 2, 7, 1, 8, 3, 5, 6])
        rec_t, rec_v = times[order], vals[order]
        sort_idx = np.argsort(rec_t)
        a = Path.from_arrays(times, vals)
        b = Path.from_arrays(rec_t[sort_idx], rec_v[sort_idx])
        az = Path.from_arrays(times, np.zeros(9))
        assert euler_loglik(a, az, params, model) == euler_loglik(b, az, params, model)

    def test_singular_correlation_rejected(self):
        model = get_model("ou-sv-leverage")
        params = {**model.make_params({"rho": 0.0}), "rho": 1.0}
        x = Path.from_arrays([0.0, 1.0], [0.0, 0.3])
        a = Path.from_arrays([0.0, 1.0], [0.0, -0.6])
        with pytest.raises(NumericsError):
            euler_loglik(x, a, params, model)

    def test_grid_mismatch_rejected(self):
        model = get_model("ou-sv-leverage")
        x = Path.from_arrays([0.0, 1.0], [0.0, 0.3])
        a = Path.from_arrays([0.0, 2.0], [0.0, -0.6])
        with pytest.raises(ValidationError):
            euler_loglik(x, a, model.make_params(), model)


class TestRatioConsistency:
    def test_girsanov_ratio_matches_euler_bridge_ratio(self):
        # two paths with shared endpoints: the warped-scale Girsanov ratio
        # equals (Euler ratio) - (bridge ratio), with the gap to the finest
        # grid decreasing in m
        model = scalar_ou_model()
        params = model.make_params()
        sig = params["sigma"]
        fine = 800
        grid = TimeGrid(np.linspace(0.0, 1.0, fine + 1))
        x, _a = euler_simulate(model, params, 0.2, 0.0, grid, RandomStream(5))
        x2 = reflected_path(x)
        az = Path(grid, np.zeros(fine + 1))

        target = (
            euler_loglik(x, az, params, model) - euler_loglik(x2, az, params, model)
        ) - (
            log_bridge_fdd(x.times, x.values, sig**2)
            - log_bridge_fdd(x2.times, x2.values, sig**2)
        )
        gaps = []
        for m in (50, 200, 800):
            d = engine_log_g(model, params, subsample_path(x, fine // m)) \
                - engine_log_g(model, params, subsample_path(x2, fine // m))
            gaps.append(abs(d - target))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-10 * max(1.0, abs(target))


class TestAugmentedPosterior:
    def _state(self, model, params, n_obs=4, m=6, seed=2):
        prior = PriorSpec.from_model(model)
        obs_times = np.arange(n_obs + 1, dtype=float)
        xv, gam = simulate_discrete_skeleton(
            model, params, obs_times, m, 0.0, RandomStream(seed)
        )
        return AugmentedState(model, params, obs_times, xv, gam, prior), obs_times

    def test_driftless_flat_prior_reduces_to_endpoints(self):
        model = get_model("ou-sv-leverage")
        params = model.make_params(
            {"kappa_x": 1e-300, "kappa_alpha": 1e-300, "rho": 0.0}
        )
        state, _ = self._state(model, params)
        q = state.quantities(state.warps())
        assert state.log_likelihood(q) == pytest.approx(
            float(np.sum(q.log_f + state.log_jac)), abs=1e-12
        )

    def test_additive_over_intervals(self):
        model = get_model("ou-sv-leverage")
        params = model.make_params()
        state, obs_times = self._state(model, params, n_obs=2)
        cache = state.cache
        per_interval = cache.log_g + cache.log_f + cache.log_gamma
        assert state.log_likelihood() == pytest.approx(float(per_interval.sum()), abs=1e-10)

        # rebuild each interval as its own one-interval state: same pieces
        for k in range(2):
            steps = state.x_steps[k: k + 1]
            q = interval_quantities(
                model, params, steps, warp_stage(model, params, steps, cache.gamma[k: k + 1]),
                state.y[k: k + 1], state.y[k + 1: k + 2], cache.z[k: k + 1],
            )
            assert q.log_g[0] == pytest.approx(cache.log_g[k], abs=1e-12)
            assert q.log_f[0] == pytest.approx(cache.log_f[k], abs=1e-12)

    def test_finite_for_study_model_at_truth(self):
        model = get_model("ou-sv-leverage")
        params = model.make_params()
        state, _ = self._state(model, params, n_obs=10, m=30)
        assert np.isfinite(state.log_likelihood())

    def test_total_ignores_path_beyond_last_knot(self):
        # drawing doubly-warped knots past the last stored one, from the
        # state's own arrays, leaves every cached array bit-identical
        model = get_model("ou-sv-leverage")
        params = model.make_params()
        state, _ = self._state(model, params)
        cached = {f.name: getattr(state.cache, f.name) for f in fields(IntervalQuantities)}
        before = {name: arr.copy() for name, arr in cached.items()}
        total = state.log_likelihood()
        new_times = state.cache.z_times[:, -1:] + np.array([1.0, 10.0])
        drawn = refine_rows(state.cache.z_times, state.cache.z, new_times, RandomStream(50))
        assert drawn.shape == new_times.shape and np.all(np.isfinite(drawn))
        for name, arr in cached.items():
            assert np.array_equal(arr, before[name]), name
        assert state.log_likelihood() == total  # bit-for-bit


class TestReparametrisationInvariance:
    def test_direct_log_scale_vs_observation_transform(self):
        # same rate data fed as raw levels through the model's observation
        # transform, or pre-logged into a transform-free clone: identical
        # totals once the Jacobian is accounted for
        model = get_model("tbill-logsv")
        params = model.make_params()
        prior = PriorSpec.from_model(model)
        rng = RandomStream(60)
        n_obs, m = 6, 5
        obs_times = (5.0 / 252.0) * np.arange(n_obs + 1)
        xv, gam = simulate_discrete_skeleton(model, params, obs_times, m, np.log(4.0), rng)

        state_a = AugmentedState(model, params, obs_times, xv, gam, prior)
        raw = np.exp(state_a.y)
        jac = np.asarray(model.obs_log_jacobian(raw[1:]))
        state_b = AugmentedState(
            model, params, obs_times, xv, gam, prior, log_jac=jac
        )
        total_direct = state_a.log_likelihood()
        total_transformed = state_b.log_likelihood()
        assert total_transformed == pytest.approx(
            total_direct + float(jac.sum()), rel=1e-12
        )

        # the ingestion path computes the identical Jacobian
        from timechange_sv.mcmc import _transform_observations

        y2, jac2 = _transform_observations(model, raw)
        assert np.allclose(y2, state_a.y, rtol=1e-12, atol=1e-12)
        assert np.allclose(jac2, jac, rtol=1e-12, atol=1e-12)


WARP_FIELDS = ("alpha", "veff2", "u", "adj", "z_times")


def drift_params(model):
    return [p for p in model.param_names if p not in model.timescale_params]


def moved_params(model, params, p, step=0.7):
    """``params`` with ``p`` moved by ``step`` on its unconstrained scale."""
    sup = model.supports[p]
    return {**params, p: sup.from_unconstrained(sup.to_unconstrained(params[p]) + step)}


def _skeleton_state(name, seed=8):
    """A state of model ``name`` on a simulated skeleton (nonzero latent path)."""
    model = get_model(name)
    params = model.make_params()
    obs_times = (5.0 / 252.0) * np.arange(7)
    x0 = math.log(10.0) if model.obs_transform is not None else 0.0
    xv, gam = simulate_discrete_skeleton(model, params, obs_times, 4, x0, RandomStream(seed))
    prior = PriorSpec.from_model(model)
    return model, params, AugmentedState(model, params, obs_times, xv, gam, prior)


@pytest.mark.parametrize("name", model_names())
class TestEngineStages:
    def test_stages_compose_to_the_engine(self, name):
        # the engine is the warp stage, the path stage, then the densities;
        # run on warp_stage's output it gives the bits of the state's pass
        model, params, state = _skeleton_state(name)
        steps, gamma, y0, y1 = state.x_steps, state.cache.gamma, state.y[:-1], state.y[1:]
        w = warp_stage(model, params, steps, gamma)
        z = state.cache.z
        q = path_stage(w, z, y0, y1)
        full = interval_quantities(model, params, steps, w, y0, y1, z)
        own = state.quantities(state.warps())
        for f in fields(full):
            if f.name not in full.terms():
                assert np.array_equal(getattr(q, f.name), getattr(full, f.name)), f.name
            assert np.array_equal(getattr(own, f.name), getattr(full, f.name)), f.name

    def test_drift_parameters_move_only_their_term(self, name):
        # a drift move recomputes only the density terms it moves and keeps
        # the cached bits of the others: a latent-drift parameter must be
        # listed in latent_drift_params and moves log_gamma, and with
        # leverage log_g too (U's drift holds the latent drift); every other
        # drift parameter moves log_g alone
        model, params, state = _skeleton_state(name)
        before = state.quantities(state.warps())
        for p in drift_params(model):
            moved = moved_params(model, params, p)
            after = state.quantities(state.warps(params=moved), params=moved)
            declared = {"log_g"}
            if p in model.latent_drift_params:
                declared = {"log_gamma"} | ({"log_g"} if model.rho(params) != 0.0 else set())
            for term in ("log_g", "log_f", "log_gamma"):
                same = np.array_equal(getattr(after, term), getattr(before, term))
                assert same == (term not in declared), (p, term)

    def test_only_timescale_parameters_move_the_warps(self, name):
        # drift moves reuse the cached warps: a parameter that moves them
        # must be listed in timescale_params
        model, params, state = _skeleton_state(name)
        before = warp_stage(model, params, state.x_steps, state.cache.gamma)
        for p in model.param_names:
            after = warp_stage(model, moved_params(model, params, p), state.x_steps,
                               state.cache.gamma)
            same = all(np.array_equal(getattr(after, f), getattr(before, f)) for f in WARP_FIELDS)
            assert same == (p not in model.timescale_params), p


@pytest.mark.parametrize("name,p", [(name, p) for name in model_names()
                                    for p in drift_params(get_model(name))])
def test_drift_moves_match_the_euler_oracle(name, p):
    # the engine scores the Euler scheme on the knots, the one that
    # simulate_discrete_skeleton draws from: moving a drift parameter changes
    # the augmented log likelihood by exactly the change of the Euler
    # transition density, leverage included (X couples to dW, not dgamma)
    model, params, state = _skeleton_state(name, seed=3)
    moved = moved_params(model, params, p)
    grid = TimeGrid(state.x_flat)
    X = state.cache.U + state.cache.adj  # the path on the observation coordinate
    x = Path(grid, np.append(X[:, :-1].ravel(), X[-1, -1]))
    gamma = np.append(state.cache.gamma[:, :-1].ravel(), state.cache.gamma[-1, -1])
    alpha = Path(grid, model.latent_values(gamma, params) if model.has_latent
                 else np.zeros(len(grid)))
    moved_q = state.quantities(state.warps(params=moved), params=moved)
    engine = state.log_likelihood(moved_q) - state.log_likelihood()
    euler = euler_loglik(x, alpha, moved, model) - euler_loglik(x, alpha, params, model)
    assert engine != 0.0
    assert engine == pytest.approx(euler, rel=1e-9)
