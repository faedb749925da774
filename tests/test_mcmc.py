import importlib
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import timechange_sv
from timechange_sv.errors import ValidationError
from timechange_sv.likelihood import log_end_gaussian
from timechange_sv.mcmc import (
    PriorSpec,
    SamplerConfig,
    _gamma_anchored_pass,
    _update_param,
    _update_z_rows,
    _windows,
    gamma_block_plan,
    init_state,
    run_chain,
    state_from_skeleton,
    sweep,
    update_gamma_block,
)
from timechange_sv.models import euler_simulate, get_model
from timechange_sv.paths import RandomStream, TimeGrid
from timechange_sv.timechange import refine_rows
from timechange_sv.diagnostics import simulate_discrete_skeleton

from _support import decoupled_sv_model, scalar_ou_model


def arrays(state):
    """The latent path and every cached engine output, by name."""
    return {"gamma_flat": state.gamma_flat} | {
        f.name: getattr(state.cache, f.name) for f in fields(state.cache)
    }


def snapshot(state):
    return {name: arr.copy() for name, arr in arrays(state).items()} | {
        "params": dict(state.params.values)
    }


def assert_state_equal(state, snap):
    for name, arr in arrays(state).items():
        assert np.array_equal(arr, snap[name]), name
    assert dict(state.params.values) == snap["params"]


def z_move(state, k, rng):
    """The path kernel on interval ``k`` alone."""
    rows = np.zeros(state.n_intervals, dtype=bool)
    rows[k] = True
    return bool(_update_z_rows(state, rows, rng)[0])


def anchored_block(state, first, n_block, rng):
    """The anchored latent-block kernel on one block."""
    return bool(_gamma_anchored_pass(state, np.array([first]), n_block, rng)[0])


def drift_moves(state, rng, scales):
    """The parameter kernel on every free parameter that leaves the time
    scales alone, in model order."""
    return {
        name: _update_param(state, name, rng, scales.get(name, 0.25))
        for name in state.free_names if name not in state.model.timescale_params
    }


def sv_state(model=None, params=None, n_obs=5, m=4, seed=2, prior=None, fixed=()):
    model = model or get_model("ou-sv-leverage")
    params = params or model.make_params()
    prior = prior or PriorSpec.from_model(model)
    obs_times = np.arange(n_obs + 1, dtype=float)
    xv, gam = simulate_discrete_skeleton(
        model, params, obs_times, m, 0.0, RandomStream(seed)
    )
    return state_from_skeleton(model, params, obs_times, xv, gam, prior, fixed)


class TestZUpdate:
    def test_zero_drift_always_accepts(self):
        model = get_model("const-vol-scalar")
        params = model.make_params({"theta": 0.0, "sigma": 0.8})
        state = sv_state(model, params)
        rng = RandomStream(4)
        assert all(z_move(state, k, rng) for k in range(5) for _ in range(20))

    def test_rejection_leaves_state_bit_identical(self):
        state = sv_state()
        rng = RandomStream(11)
        rejections = 0
        for _ in range(200):
            snap = snapshot(state)
            accepted = z_move(state, 2, rng)
            if not accepted:
                rejections += 1
                assert_state_equal(state, snap)
        assert rejections > 0

    def test_acceptance_changes_only_that_interval(self):
        state = sv_state()
        rng = RandomStream(3)
        snap = snapshot(state)
        while not z_move(state, 1, rng):
            pass
        now = arrays(state)
        for name in ("z", "U", "X", "log_g"):
            arr, old = now[name], snap[name]
            assert not np.array_equal(arr[1], old[1])
            assert np.array_equal(arr[0], old[0]) and np.array_equal(arr[2:], old[2:])
        # times, endpoint terms and latent terms are untouched by value moves
        for name in ("z_times", "u", "total", "log_f", "log_gamma", "gamma_flat"):
            assert np.array_equal(now[name], snap[name]), name


class TestTimescaleUpdate:
    def test_zero_step_always_accepted(self):
        state = sv_state()
        rng = RandomStream(9)
        for _ in range(30):
            assert _update_param(state, "sigma", rng, 0.0)

    def test_out_of_support_proposal_auto_rejects(self):
        model = get_model("ou-sv-leverage")
        prior = PriorSpec.from_model(model, {"sigma": (0.39, 0.41)})
        state = sv_state(model, prior=prior)
        rng = RandomStream(5)
        rejected_without_touching = 0
        for _ in range(50):
            snap = snapshot(state)
            if not _update_param(state, "sigma", rng, 60.0):
                assert_state_equal(state, snap)
                rejected_without_touching += 1
        assert rejected_without_touching >= 45

    def test_endpoints_only_reduction(self):
        # zero drift, no interior knots: the likelihood part of the ratio is
        # exactly the endpoint-density change
        model = get_model("const-vol-scalar")
        params = model.make_params({"theta": 0.0, "sigma": 1.0})
        prior = PriorSpec.from_model(model)
        obs_times = np.array([0.0, 1.0, 2.0])
        x_values = np.array([[0.0, 0.9], [0.9, -0.4]])
        gamma = np.zeros(3)
        state = state_from_skeleton(model, params, obs_times, x_values, gamma, prior)
        assert state.m == 0
        assert np.all(state.cache.log_g == 0.0)
        rng = RandomStream(14)
        accepted = False
        while not accepted:
            accepted = _update_param(state, "sigma", rng, 0.3)
        sig = state.params["sigma"]
        assert np.all(state.cache.log_g == 0.0)
        expected_f = [
            log_end_gaussian(x_values[k, 1], x_values[k, 0], sig**2 * 1.0)
            for k in range(2)
        ]
        assert np.allclose(state.cache.log_f, expected_f, rtol=1e-12)

    def test_timescale_move_changes_times_consistently(self):
        state = sv_state()
        rng = RandomStream(21)
        snap = snapshot(state)
        while not _update_param(state, "sigma", rng, 0.4):
            pass
        assert not np.array_equal(state.cache.z_times, snap["z_times"])
        state.validate_cache()


class TestGammaBlockUpdate:
    def test_decoupled_model_touches_only_latent_terms(self):
        # vol and observed drift ignore the latent path: the observed-path
        # caches and warped times must stay bit-identical
        model = decoupled_sv_model()
        state = sv_state(model, model.make_params(), seed=6)
        rng = RandomStream(17)
        for first, anchored in ((0, True), (2, True), (3, False)):
            snap = snapshot(state)
            if anchored:
                anchored_block(state, first, 2, rng)
            else:
                update_gamma_block(state, first, 2, rng)
            now = arrays(state)
            for name in ("z", "z_times", "u", "total", "U", "X", "log_g", "log_f"):
                assert np.array_equal(now[name], snap[name]), name

    def test_rejection_restores_caches(self):
        state = sv_state(seed=8)
        rng = RandomStream(2)
        rejections = 0
        for _ in range(300):
            snap = snapshot(state)
            if not anchored_block(state, 1, 2, rng):
                rejections += 1
                assert_state_equal(state, snap)
        assert rejections > 0

    def test_anchors_never_move(self):
        state = sv_state(seed=12)
        rng = RandomStream(13)
        m = state.m
        for _ in range(100):
            left = state.gamma_flat[1 * (m + 1)]
            right = state.gamma_flat[3 * (m + 1)]
            anchored_block(state, 1, 2, rng)
            assert state.gamma_flat[1 * (m + 1)] == left
            assert state.gamma_flat[3 * (m + 1)] == right

    def test_terminal_block_moves_last_knot(self):
        state = sv_state(seed=3)
        rng = RandomStream(19)
        end_before = state.gamma_flat[-1]
        moved = False
        for _ in range(50):
            if update_gamma_block(state, 3, 2, rng):
                moved = state.gamma_flat[-1] != end_before
                if moved:
                    break
        assert moved
        state.validate_cache()


class TestGammaWindows:
    """``state.gamma_windows``: the (n, m+2) latent windows, a view built once
    over ``gamma_flat`` that every in-place write keeps current."""

    def test_view_follows_skeleton_and_sweeps(self):
        state = sv_state()
        skeleton = state.gamma_flat.copy()
        assert np.any(skeleton != 0.0)
        assert np.array_equal(state.gamma_windows, _windows(state.gamma_flat, state.m))
        rng = RandomStream(5)
        for _ in range(20):
            sweep(state, rng, {})
        assert not np.array_equal(state.gamma_flat, skeleton)
        assert np.array_equal(state.gamma_windows, _windows(state.gamma_flat, state.m))


class TestBlockPlan:
    @pytest.mark.parametrize("n,block_len", [(5, 2), (10, 3), (400, 10), (2, 2), (7, 7), (1, 1)])
    def test_every_interior_knot_is_interior_to_a_block(self, n, block_len):
        plan = gamma_block_plan(n, block_len)
        covered = set()
        for first, length, anchored in plan:
            if anchored:
                covered.update(range(first + 1, first + length))
            else:
                covered.update(range(first + 1, first + length + 1))
        assert covered == set(range(1, n + 1))

    def test_terminal_block_is_free(self):
        plan = gamma_block_plan(8, 3)
        assert plan[-1] == (5, 3, False)
        assert all(anchored for _f, _l, anchored in plan[:-1])

    def test_block_longer_than_data_rejected(self):
        with pytest.raises(ValidationError):
            gamma_block_plan(3, 4)

    @pytest.mark.parametrize("n", [2, 5])
    def test_one_interval_blocks_rejected(self, n):
        # anchored at both observation knots, they would pin the latent path
        # at every interior observation knot
        with pytest.raises(ValidationError):
            gamma_block_plan(n, 1)


class TestDriftUpdate:
    def test_zero_step_accepts(self):
        state = sv_state()
        rng = RandomStream(30)
        flags = drift_moves(state, rng, {n: 0.0 for n in state.free_names})
        assert all(flags[n] for n in ("kappa_x", "mu_x", "kappa_alpha", "mu_alpha"))

    def test_drift_update_never_moves_paths(self):
        state = sv_state()
        rng = RandomStream(31)
        snap = snapshot(state)
        drift_moves(state, rng, {n: 0.5 for n in state.free_names})
        now = arrays(state)
        for name in ("z", "z_times", "u", "total", "U", "X", "gamma_flat"):
            assert np.array_equal(now[name], snap[name]), name
        state.validate_cache()

    def test_conjugate_posterior(self):
        # dX = theta dt + dW, sigma fixed at 1: theta | data ~ N(dX/T, 1/T)
        model = get_model("const-vol-scalar")
        rng = RandomStream(9)
        fine = TimeGrid(np.linspace(0.0, 4.0, 4001))
        xp, _ = euler_simulate(model, model.make_params({"theta": 0.7}), 0.0, 0.0, fine, rng)
        data = type("D", (), {"times": np.linspace(0.0, 4.0, 5),
                              "values": xp.values[::1000]})()
        cfg = SamplerConfig(m=8, n_iter=6000, n_burn=1000, seed=21,
                            fixed=("sigma",), rw_scales={"theta": 1.2})
        tr = run_chain(cfg, data, model, init_params={"theta": 0.0, "sigma": 1.0})
        th = tr.column("theta")
        post_mean = (data.values[-1] - data.values[0]) / 4.0
        ks = stats.kstest(th[::10], lambda v: stats.norm.cdf(v, post_mean, 0.5))
        assert ks.pvalue > 0.01

    def test_flat_prior_shift_symmetry(self):
        # relabeling (mu_alpha, alpha0) -> (+c) leaves every log-posterior
        # difference unchanged when the observed diffusion ignores the latent
        model = decoupled_sv_model()
        base = model.make_params()
        c = 0.83
        shifted = base.replace(
            mu_alpha=base["mu_alpha"] + c, alpha0=base["alpha0"] + c
        )
        prior = PriorSpec.from_model(model)
        obs_times = np.arange(6.0)
        xv, gam = simulate_discrete_skeleton(
            model, base, obs_times, 4, 0.0, RandomStream(40)
        )
        s_base = state_from_skeleton(model, base, obs_times, xv, gam, prior)
        s_shift = state_from_skeleton(model, shifted, obs_times, xv, gam, prior)
        for d_mu, d_a0 in ((0.1, 0.0), (0.0, -0.2), (0.3, 0.3), (-0.5, 0.2)):
            p_base = base.replace(
                mu_alpha=base["mu_alpha"] + d_mu, alpha0=base["alpha0"] + d_a0
            )
            p_shift = shifted.replace(
                mu_alpha=shifted["mu_alpha"] + d_mu, alpha0=shifted["alpha0"] + d_a0
            )
            r_base = state_from_skeleton(
                model, p_base, obs_times, xv, gam, prior
            ).log_likelihood() - s_base.log_likelihood()
            r_shift = state_from_skeleton(
                model, p_shift, obs_times, xv, gam, prior
            ).log_likelihood() - s_shift.log_likelihood()
            assert r_shift == pytest.approx(r_base, abs=1e-10)


class TestRunChain:
    def _data(self, n=30, seed=7):
        model = get_model("ou-sv-leverage")
        rng = RandomStream(seed)
        fine = TimeGrid(0.001 * np.arange(n * 1000 + 1))
        xp, _ = euler_simulate(model, model.make_params(), 0.1, -0.2, fine, rng)
        return type("D", (), {"times": fine.times[::1000], "values": xp.values[::1000]})()

    def test_single_row_trace(self):
        data = self._data(5)
        cfg = SamplerConfig(m=3, n_iter=3, n_burn=2, thin=1, seed=1)
        tr = run_chain(cfg, data, get_model("ou-sv-leverage"))
        assert tr.n_rows == 1

    def test_row_count_with_thinning(self):
        data = self._data(5)
        cfg = SamplerConfig(m=3, n_iter=23, n_burn=3, thin=5, seed=1)
        tr = run_chain(cfg, data, get_model("ou-sv-leverage"))
        assert tr.n_rows == 4
        assert np.array_equal(tr.iters, [3, 8, 13, 18])

    def test_fixed_seed_bit_identical(self):
        data = self._data(8)
        cfg = SamplerConfig(m=4, n_iter=40, n_burn=10, seed=5)
        a = run_chain(cfg, data, get_model("ou-sv-leverage"))
        b = run_chain(cfg, data, get_model("ou-sv-leverage"))
        assert np.array_equal(a.draws, b.draws)
        assert np.array_equal(a.logliks, b.logliks)
        assert a.acceptance == b.acceptance

    def test_acceptance_rates_in_unit_interval(self):
        data = self._data(8)
        cfg = SamplerConfig(m=4, n_iter=40, n_burn=10, seed=5)
        tr = run_chain(cfg, data, get_model("ou-sv-leverage"))
        assert set(tr.acceptance) >= {"z", "gamma", "sigma", "rho"}
        assert all(0.0 <= v <= 1.0 for v in tr.acceptance.values())

    def test_cache_coherent_through_sweeps(self):
        data = self._data(8)
        cfg = SamplerConfig(m=4, n_iter=60, n_burn=10, seed=6, validate_every=5)
        run_chain(cfg, data, get_model("ou-sv-leverage"))  # raises on drift

    @pytest.mark.parametrize("name", ["tbill-logsv", "ou-sv-leverage", "const-vol-scalar"])
    def test_stage_caches_coherent_every_sweep(self, name):
        # z and drift moves reuse cached warps and paths; every sweep checks
        # the caches against a fresh engine pass and raises on drift
        model = get_model(name)
        params = model.make_params()
        obs_times = (5.0 / 252.0) * np.arange(9)
        x0 = math.log(10.0) if model.obs_transform is not None else 0.0
        xv, _ = simulate_discrete_skeleton(model, params, obs_times, 1, x0, RandomStream(4))
        y = np.append(xv[:, 0], xv[-1, -1])
        values = model.obs_transform_inv(y) if model.obs_transform_inv is not None else y
        data = type("D", (), {"times": obs_times, "values": values})()
        cfg = SamplerConfig(m=3, n_iter=40, n_burn=10, seed=9, validate_every=1)
        run_chain(cfg, data, model)

    def test_nonfinite_initial_posterior_rejected(self):
        data = type("D", (), {"times": np.array([0.0, 1.0, 2.0]),
                              "values": np.array([0.0, 1e200, -1e200])})()
        cfg = SamplerConfig(m=3, n_iter=5, n_burn=1, seed=1, block_len=2)
        with pytest.raises(ValidationError):
            run_chain(cfg, data, get_model("ou-sv-leverage"))

    def test_block_len_must_fit_data(self):
        data = self._data(3)
        cfg = SamplerConfig(m=3, n_iter=5, n_burn=1, seed=1, block_len=9)
        with pytest.raises(ValidationError):
            run_chain(cfg, data, get_model("ou-sv-leverage"))

    def test_unknown_fixed_name_rejected(self):
        data = self._data(3)
        cfg = SamplerConfig(m=3, n_iter=5, n_burn=1, seed=1, fixed=("sigmaa",))
        with pytest.raises(ValidationError, match="sigmaa"):
            run_chain(cfg, data, get_model("ou-sv-leverage"))
        with pytest.raises(ValidationError, match="sigmaa"):
            sv_state(fixed=("sigmaa",))

    def test_bad_config_rejected(self):
        with pytest.raises(ValidationError):
            SamplerConfig(m=0, n_iter=10, n_burn=1)
        with pytest.raises(ValidationError):
            SamplerConfig(m=3, n_iter=10, n_burn=10)
        with pytest.raises(ValidationError):
            SamplerConfig(m=3, n_iter=10, n_burn=1, block_len=1)

    def test_prior_midpoint_init(self):
        data = self._data(5)
        model = get_model("ou-sv-leverage")
        prior = PriorSpec.from_model(model, {
            "kappa_x": (0.1, 0.5), "mu_x": (-1, 1), "kappa_alpha": (0.1, 0.5),
            "mu_alpha": (-1, 1), "sigma": (0.2, 0.6), "rho": (-0.9, 0.9),
            "alpha0": (-1, 1),
        })
        cfg = SamplerConfig(m=3, n_iter=3, n_burn=1, seed=1)
        tr = run_chain(cfg, data, model, prior, init_params="prior-midpoint")
        assert tr.n_rows == 2


class TestRefinementInvariance:
    def test_transient_refinement_does_not_shift_posterior(self):
        # interleaving retrospective refinements between sweeps only re-times
        # the random stream; the distribution of the volatility draws is
        # unchanged (draws thinned well past their autocorrelation time)
        model = get_model("const-vol-scalar")
        data_rng = RandomStream(70)
        fine = TimeGrid(0.001 * np.arange(40_001))
        xp, _ = euler_simulate(
            model, model.make_params({"theta": 0.3, "sigma": 0.7}),
            0.0, 0.0, fine, data_rng,
        )
        obs_times = fine.times[::1000]
        values = xp.values[::1000]
        prior = PriorSpec.from_model(model, {"theta": (-3, 3), "sigma": (0.05, 3.0)})
        params = model.make_params({"theta": 0.3, "sigma": 0.7})
        scales = {"theta": 0.5, "sigma": 0.5}

        def chain(seed, refine):
            state = init_state(model, params, obs_times, values, 6, prior)
            rng = RandomStream(seed)
            out = []
            for it in range(4200):
                sweep(state, rng, scales, block_len=1)
                if refine:
                    new_times = state.cache.z_times[0, -1] * np.array([1.1, 2.0])
                    refine_rows(state.cache.z_times[0], state.cache.z[0], new_times, rng)
                if it >= 200 and it % 40 == 0:
                    out.append(state.params["sigma"])
            return np.asarray(out)

        a = chain(101, refine=False)
        b = chain(101, refine=True)
        assert stats.ks_2samp(a, b).pvalue > 0.01


def test_benchmark_hooks_find_every_kernel(monkeypatch):
    # bench/tracing.py wraps the sampler's kernels by attribute name: a
    # renamed kernel would silently read 0 in its per-layer metrics
    import timechange_sv.cli  # noqa: F401  (the hooks wrap the CLI commands too)

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        assert tracing.install_layers(tracer, timechange_sv) == set()
    finally:
        tracer.restore()
