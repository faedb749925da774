import importlib
import math
import os
import re
import warnings
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

import timechange_sv
from timechange_sv.errors import ValidationError
from timechange_sv.likelihood import IntervalQuantities, log_end_gaussian
from timechange_sv.mcmc import (
    AugmentedState,
    PriorSpec,
    SamplerConfig,
    _gamma_anchored_pass,
    _metropolis,
    _scalar_update_order,
    _update_param,
    _update_z_rows,
    init_state,
    latent_blocks,
    run_chain,
    run_jobs,
    sweep,
    update_gamma_block,
)
from timechange_sv.models import euler_simulate, get_model, model_names
from timechange_sv.paths import RandomStream, TimeGrid
from timechange_sv.timechange import refine_rows
from timechange_sv.diagnostics import simulate_discrete_skeleton

from _support import decoupled_sv_model, scalar_ou_model, set_cpus


def arrays(state):
    """The latent windows and every cached engine output, by name."""
    return {f.name: getattr(state.cache, f.name) for f in fields(state.cache)}


def snapshot(state):
    return {name: arr.copy() for name, arr in arrays(state).items()} | {
        "params": dict(state.params)
    }


def assert_state_equal(state, snap):
    for name, arr in arrays(state).items():
        assert np.array_equal(arr, snap[name]), name
    assert dict(state.params) == snap["params"]


PATH_FIELDS = ("z", "U", "log_g")  # what the path kernel writes


def anchored_block(state, first, n_block, rng):
    """The anchored latent-block kernel on one block."""
    blocks = latent_blocks(state, np.array([first]), n_block, True)
    return bool(_gamma_anchored_pass(state, blocks, rng)[0])


def terminal_block(state, first, n_block, rng):
    """The terminal latent-block kernel on the ``n_block`` intervals from
    ``first`` to the end."""
    return update_gamma_block(state, latent_blocks(state, np.array([first]), n_block, False),
                              rng)


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
    return AugmentedState(model, params, obs_times, xv, gam, prior, fixed)


class TestZUpdate:
    def test_zero_drift_always_accepts(self):
        model = get_model("const-vol-scalar")
        params = model.make_params({"theta": 0.0, "sigma": 0.8})
        state = sv_state(model, params)
        rng = RandomStream(4)
        assert all(_update_z_rows(state, rng).all() for _ in range(20))

    def test_rejection_leaves_state_bit_identical(self):
        state = sv_state()
        rng = RandomStream(11)
        rejections = 0
        for _ in range(200):
            snap = snapshot(state)
            acc = _update_z_rows(state, rng)
            rejections += np.count_nonzero(~acc)
            for f in fields(state.cache):
                arr = getattr(state.cache, f.name)
                assert np.array_equal(arr[~acc], snap[f.name][~acc]), f.name
        assert rejections > 0

    def test_acceptance_changes_only_that_interval(self):
        # an accepted interval changes its path fields and nothing else
        state = sv_state()
        rng = RandomStream(3)
        for _ in range(20):
            snap = snapshot(state)
            acc = _update_z_rows(state, rng)
            assert acc.any()
            now = arrays(state)
            for name in PATH_FIELDS:
                assert not np.any(np.all(now[name][acc] == snap[name][acc], axis=-1)), name
            # times, endpoint terms and latent terms are untouched by value moves
            for name in set(now) - set(PATH_FIELDS):
                assert np.array_equal(now[name], snap[name]), name
        state.validate_cache()


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
        gamma = np.zeros((2, 2))
        state = AugmentedState(model, params, obs_times, x_values, gamma, prior)
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
                terminal_block(state, first, 2, rng)
            now = arrays(state)
            for name in ("z", "z_times", "u", "U", "log_g", "log_f"):
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
        for _ in range(100):
            left = state.cache.gamma[1, 0]
            right = state.cache.gamma[3, 0]
            anchored_block(state, 1, 2, rng)
            assert state.cache.gamma[1, 0] == left
            assert state.cache.gamma[3, 0] == right

    def test_terminal_block_moves_last_knot(self):
        state = sv_state(seed=3)
        rng = RandomStream(19)
        end_before = state.cache.gamma[-1, -1]
        moved = False
        for _ in range(50):
            if terminal_block(state, 3, 2, rng):
                moved = state.cache.gamma[-1, -1] != end_before
                if moved:
                    break
        assert moved
        state.validate_cache()

    def test_whole_data_block_leaves_the_latent_cache_writeable(self):
        # a terminal block over every interval is accepted whole, so the
        # cache adopts its latent windows; a later anchored pass still
        # writes single rows of them
        state = sv_state(seed=3)
        rng = RandomStream(23)
        assert any(terminal_block(state, 0, state.n_intervals, rng) for _ in range(100))
        assert state.cache.gamma.flags.writeable
        for _ in range(20):
            anchored_block(state, 1, 2, rng)
        assert np.array_equal(state.cache.gamma[1:, 0], state.cache.gamma[:-1, -1])
        state.validate_cache()


def capped_vol_state(n_obs=4, m=3, cap=1.0):
    """A state of ``decoupled_sv_model`` whose observed volatility is 1 while
    alpha < ``cap`` and infinite beyond, so an interval whose latent path
    reaches ``cap`` has non-finite warps. The latent path is -1 on the first
    interval and +1 after it; alpha stays below ``cap`` at the defaults
    (alpha0 -0.3, sigma 0.5), and first crosses it after the first
    interval."""
    model = replace(decoupled_sv_model(), name="capped-vol",
                    vol_x=lambda a, p: np.where(np.asarray(a) < cap, 1.0, np.inf))
    params = model.make_params()
    obs_times = np.arange(n_obs + 1, dtype=float)
    xv, _ = simulate_discrete_skeleton(model, params, obs_times, m, 0.0, RandomStream(5))
    gamma = np.ones((n_obs, m + 2))
    gamma[0] = -1.0
    gamma[0, 0] = 0.0
    gamma[0, -1] = 1.0
    return AugmentedState(model, params, obs_times, xv, gamma, PriorSpec.from_model(model))


class TestNonFiniteWarps:
    """A move whose new warped times are not finite on some intervals is
    rejected: the state stays bit-identical, and no RuntimeWarning is
    raised on the way."""

    @pytest.mark.parametrize("move", [
        lambda state, rng: _update_param(state, "sigma", rng, 1.0),
        lambda state, rng: _update_param(state, "alpha0", rng, 1.0),
        lambda state, rng: terminal_block(state, 2, 2, rng),
        lambda state, rng: anchored_block(state, 1, 2, rng),
    ], ids=["sigma", "alpha0", "terminal-block", "anchored-block"])
    def test_rejected_without_a_trace(self, move):
        state = capped_vol_state()
        bad_rows = []
        warps = state.warps

        def spy(*args, **kwargs):
            w = warps(*args, **kwargs)
            bad_rows.append(~np.isfinite(w.z_times).all(axis=1))
            return w

        state.warps = spy
        rng = RandomStream(8)
        partial = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for _ in range(80):
                snap = snapshot(state)
                bad_rows.clear()
                accepted = move(state, rng)
                (bad,) = bad_rows
                if bad.any():
                    assert not accepted
                    assert_state_equal(state, snap)
                    partial += not bad.all()
        assert partial >= 3
        state.validate_cache()


def terms_state(n):
    """A state of ``n`` intervals whose cache holds only the three density
    terms, all zero."""
    return SimpleNamespace(n_intervals=n, cache=IntervalQuantities(
        *[None] * 6, log_g=np.zeros(n), log_f=np.zeros(n), log_gamma=np.zeros(n)))


def uniforms_drawn(rng, seed):
    """How many uniforms ``rng``, made as ``RandomStream(seed)``, has drawn,
    up to 10."""
    ahead = rng.uniform()
    replay = RandomStream(seed).uniform(11)
    return int(np.flatnonzero(replay == ahead)[0])


class TestMetropolis:
    """``_metropolis``: the ratio, the two uniform rules and the write."""

    def test_nonfinite_row_reads_minus_inf(self):
        # so that a sum over rows is -inf, never inf - inf, and nothing warns
        new = {"log_g": np.array([np.inf, 1.0, np.nan]),
               "log_f": np.array([-np.inf, 0.5, 0.0]), "log_gamma": np.zeros(3)}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            state = terms_state(3)
            acc = _metropolis(state, RandomStream(1), new, group=1)
            assert acc.tolist() == [False, True, False]
            assert state.cache.log_g.tolist() == [0.0, 1.0, 0.0]
            rng = RandomStream(1)
            assert not _metropolis(state, rng, new)[0]
            assert uniforms_drawn(rng, 1) == 0

    @pytest.mark.parametrize("delta,log_jac,drawn", [
        (0.0, 0.0, 0), (0.2, -0.1, 0), (-0.3, 0.0, 1), (0.0, -2.0, 1), (-np.inf, 0.0, 0),
    ])
    def test_whole_move_draws_only_for_a_finite_negative_ratio(self, delta, log_jac, drawn):
        state = terms_state(2)
        rng = RandomStream(3)
        _metropolis(state, rng, {"log_g": np.array([delta, 0.0])}, log_jac=log_jac)
        assert uniforms_drawn(rng, 3) == drawn

    @pytest.mark.parametrize("group,drawn", [(1, 6), (2, 3), (3, 2), (6, 1)])
    def test_batched_move_draws_one_uniform_per_group(self, group, drawn):
        state = terms_state(6)
        rng = RandomStream(4)
        acc = _metropolis(state, rng, {"log_g": np.full(6, 5.0)}, group=group)
        assert acc.shape == (drawn,) and acc.all()
        assert uniforms_drawn(rng, 4) == drawn

    @pytest.mark.parametrize("rows", [slice(None), slice(1, 5), np.array([0, 1, 4, 5])])
    def test_rejected_rows_stay_and_accepted_rows_equal_the_proposal(self, rows):
        # rows in pairs: the pairs whose ratio is +10 are accepted, -inf rejected
        state = sv_state(n_obs=6)
        snap = snapshot(state)
        chosen = np.arange(state.n_intervals)[rows]
        sign = np.resize([10.0, 10.0, -np.inf, -np.inf], chosen.size)
        new = {name: snap[name][chosen] + 1.0 for name in ("z", "U", "log_f")}
        new["log_g"] = snap["log_g"][chosen] + sign
        acc = _metropolis(state, RandomStream(5), new, rows, group=2)
        assert acc.tolist() == np.isfinite(sign[::2]).tolist()
        keep = np.repeat(acc, 2)
        now = arrays(state)
        for name, value in new.items():
            assert np.array_equal(now[name][chosen[keep]], value[keep]), name
            assert np.array_equal(now[name][chosen[~keep]], snap[name][chosen[~keep]]), name
            others = np.setdiff1d(np.arange(state.n_intervals), chosen)
            assert np.array_equal(now[name][others], snap[name][others]), name
        for name in set(now) - set(new):
            assert np.array_equal(now[name], snap[name]), name

    def test_accepted_whole_move_adopts_the_proposal(self):
        state = sv_state()
        log_g = state.cache.log_g + 1.0
        assert _metropolis(state, RandomStream(6), {"log_g": log_g})[0]
        assert state.cache.log_g is log_g

    @pytest.mark.parametrize("rows", [slice(None), np.array([1, 2, 4])],
                             ids=["slice", "index-rows"])
    def test_partial_accept_writes_only_the_accepted_rows(self, rows):
        state = terms_state(5)
        cached = state.cache.log_g
        chosen = np.arange(5)[rows]
        sign = np.where(np.arange(chosen.size) % 2 == 0, 1.0, -np.inf)
        acc = _metropolis(state, RandomStream(7), {"log_g": sign}, rows, group=1)
        assert acc.tolist() == (sign > 0.0).tolist()
        expected = np.zeros(5)
        expected[chosen[acc]] = 1.0
        assert state.cache.log_g is cached and state.cache.log_g.tolist() == expected.tolist()

    @pytest.mark.parametrize("rows,group", [(slice(None), 1), (slice(None), None),
                                            (np.arange(4), 2), (np.arange(4), None)],
                             ids=["every-row", "whole", "index-groups", "index-whole"])
    def test_move_accepted_on_every_interval_adopts_the_proposal(self, rows, group):
        # rows that cover every interval are in ascending order, so the
        # accepted proposal's arrays become the cache's own
        state = terms_state(4)
        new = {"log_g": np.full(4, 1.0), "log_f": np.full(4, 2.0)}
        assert _metropolis(state, RandomStream(8), new, rows, group).all()
        assert state.cache.log_g is new["log_g"] and state.cache.log_f is new["log_f"]
        assert state.cache.log_gamma.tolist() == [0.0] * 4


def test_sweep_calls_metropolis_once_per_kernel_call(monkeypatch):
    # the path move, each anchored pass, the terminal block and each free
    # parameter: every proposal of the model's own prior is in its support
    state = sv_state(get_model("tbill-logsv"), n_obs=7)
    calls = []
    metropolis = timechange_sv.mcmc._metropolis

    def spy(state, rng, new, rows=slice(None), group=None, log_jac=0.0, **kwargs):
        calls.append(group)
        return metropolis(state, rng, new, rows, group, log_jac, **kwargs)

    monkeypatch.setattr(timechange_sv.mcmc, "_metropolis", spy)
    *anchored, terminal = state.block_passes(2)
    rng = RandomStream(9)
    for _ in range(3):
        calls.clear()
        sweep(state, rng, {}, block_len=2)
        assert calls == [1, *(2 for _ in anchored), None, *(None for _ in state.free_names)]


@pytest.mark.parametrize("block_len", [2, 3])
@pytest.mark.parametrize("name", ["tbill-logsv", "ou-sv-leverage"])
def test_only_metropolis_writes_the_state(monkeypatch, name, block_len):
    # the cache's arrays are read-only except inside _metropolis, so any
    # other write to them raises; between two _metropolis calls neither the
    # cache, its arrays nor the parameters may be replaced or changed. A
    # rejected move leaves the parameters as they were; an accepted move
    # that carries parameters makes them the state's
    model = get_model(name)
    obs_times = (5.0 / 252.0) * np.arange(8)
    x0 = math.log(10.0) if model.obs_transform is not None else 0.0
    xv, gam = simulate_discrete_skeleton(model, model.make_params(), obs_times, 3, x0,
                                         RandomStream(4))
    state = AugmentedState(model, model.make_params(), obs_times, xv, gam,
                           PriorSpec.from_model(model))
    cache, metropolis = state.cache, timechange_sv.mcmc._metropolis
    left = {}  # the arrays and parameters the last _metropolis left

    def cached():
        return {f.name: getattr(cache, f.name) for f in fields(cache)}

    def lock(writeable):
        for arr in cached().values():
            arr.flags.writeable = writeable

    def remember():
        left.update(arrays=cached(), params=state.params, values=dict(state.params))

    def untouched():
        assert state.cache is cache
        assert all(arr is left["arrays"][k] for k, arr in cached().items())
        assert state.params is left["params"] and state.params == left["values"]

    def guarded(state_, rng, new, *args, params=None, **kwargs):
        untouched()
        lock(True)
        try:
            acc = metropolis(state_, rng, new, *args, params=params, **kwargs)
        finally:
            lock(False)
        if not acc.any():
            assert state.params is left["params"] and state.params == left["values"]
        elif params is not None:
            assert state.params is params
        remember()
        return acc

    lock(False)
    remember()
    monkeypatch.setattr(timechange_sv.mcmc, "_metropolis", guarded)
    start, rng, accepted = cached()["gamma"].copy(), RandomStream(block_len), {}
    for _ in range(20):
        for kernel, (acc, _att) in sweep(state, rng, {}, block_len=block_len).items():
            accepted[kernel] = accepted.get(kernel, 0) + acc
        untouched()
    assert all(accepted.values()), accepted
    assert not np.array_equal(cache.gamma, start)


@pytest.mark.parametrize("name,fixed", [
    ("tbill-logsv", "kappa"), ("ou-sv-leverage", "rho"), ("const-vol-scalar", "sigma"),
])
def test_sweep_counts_every_move(name, fixed):
    # one path move per interval, one latent move per block of the block
    # plan (const-vol-scalar has no latent path), one move per free
    # parameter; fixed parameters make none
    state = sv_state(get_model(name), n_obs=6, fixed=(fixed,))
    attempts = {"z": state.n_intervals, **{p: 1 for p in state.free_names}}
    if name != "const-vol-scalar":
        attempts["gamma"] = sum(len(blocks.frac) for blocks in state.block_passes(2))
    rng = RandomStream(8)
    for _ in range(5):
        moves = sweep(state, rng, {}, block_len=2)
        assert {kernel: att for kernel, (_, att) in moves.items()} == attempts
        assert fixed not in moves
        assert all(0 <= acc <= att for acc, att in moves.values())


def block_state(n, m=2):
    """A state of ``n`` intervals with ``m`` imputed points each, on a flat
    path, enough for its block passes."""
    model = get_model("ou-sv-leverage")
    return AugmentedState(model, model.make_params(), np.arange(n + 1.0),
                          np.zeros((n, m + 2)), np.zeros((n, m + 2)),
                          PriorSpec.from_model(model))


def block_knots(state, blocks):
    """(blocks, length (m+1) + 1) indices of each block's knots on the flat
    knot grid."""
    firsts = np.arange(state.n_intervals)[blocks.rows][:: blocks.length]
    return (firsts * (state.m + 1))[:, None] + np.arange(blocks.length * (state.m + 1) + 1)


class TestBlockPlan:
    """``AugmentedState.block_passes``: the latent-block schedule of a sweep."""

    @pytest.mark.parametrize("n,block_len", [(5, 2), (10, 3), (400, 10), (2, 2), (7, 7), (1, 1)])
    def test_every_interior_knot_is_interior_to_a_block(self, n, block_len):
        state = block_state(n)
        passes = state.block_passes(block_len)
        moved = set()  # the flat knot indices that some block resamples
        for blocks in passes:
            seg = block_knots(state, blocks)
            moved.update(seg[:, 1:-1 if blocks.anchored else None].ravel().tolist())
        knots = state.m + 1
        assert {k * knots for k in range(1, n + 1)} <= moved
        terminal = passes[-1]
        assert not terminal.anchored and block_knots(state, terminal)[-1, -1] == n * knots
        assert all(blocks.anchored for blocks in passes[:-1])

    def test_terminal_block_is_free(self):
        state = block_state(8)
        *anchored, terminal = state.block_passes(3)
        assert (len(terminal.frac), terminal.length, terminal.anchored) == (1, 3, False)
        assert terminal.rows.tolist() == [5, 6, 7]
        # anchored blocks from intervals 0, 2, 4, run as two parity classes
        assert [(block_knots(state, b)[:, 0] // 3).tolist() for b in anchored] == [[0, 4], [2]]

    @pytest.mark.parametrize("n,block_len", [(3, 4), (5, 9), (1, 2)])
    def test_block_longer_than_data_gives_whole_data_blocks(self, n, block_len):
        long, whole = block_state(n).block_passes(block_len), block_state(n).block_passes(n)
        assert len(long) == len(whole)
        for a, b in zip(long, whole):
            assert (a.length, a.anchored) == (b.length, b.anchored)
            for name in ("rows", "sqrt_steps", "frac"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name

    @pytest.mark.parametrize("n", [2, 5])
    def test_one_interval_blocks_rejected(self, n):
        # anchored at both observation knots, they would pin the latent path
        # at every interior observation knot
        with pytest.raises(ValidationError):
            block_state(n).block_passes(1)


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
        for name in ("z", "z_times", "u", "U", "gamma"):
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
        shifted = {**base, "mu_alpha": base["mu_alpha"] + c, "alpha0": base["alpha0"] + c}
        prior = PriorSpec.from_model(model)
        obs_times = np.arange(6.0)
        xv, gam = simulate_discrete_skeleton(
            model, base, obs_times, 4, 0.0, RandomStream(40)
        )
        s_base = AugmentedState(model, base, obs_times, xv, gam, prior)
        s_shift = AugmentedState(model, shifted, obs_times, xv, gam, prior)
        for d_mu, d_a0 in ((0.1, 0.0), (0.0, -0.2), (0.3, 0.3), (-0.5, 0.2)):
            p_base = {**base, "mu_alpha": base["mu_alpha"] + d_mu,
                      "alpha0": base["alpha0"] + d_a0}
            p_shift = {**shifted, "mu_alpha": shifted["mu_alpha"] + d_mu,
                       "alpha0": shifted["alpha0"] + d_a0}
            r_base = AugmentedState(
                model, p_base, obs_times, xv, gam, prior
            ).log_likelihood() - s_base.log_likelihood()
            r_shift = AugmentedState(
                model, p_shift, obs_times, xv, gam, prior
            ).log_likelihood() - s_shift.log_likelihood()
            assert r_shift == pytest.approx(r_base, abs=1e-10)


def skeleton_data(model, n_obs, seed):
    """Observations at weekly spacing, simulated by Euler on the sampler's knots."""
    params = model.make_params()
    obs_times = (5.0 / 252.0) * np.arange(n_obs + 1)
    x0 = math.log(10.0) if model.obs_transform is not None else 0.0
    xv, _ = simulate_discrete_skeleton(model, params, obs_times, 1, x0, RandomStream(seed))
    y = np.append(xv[:, 0], xv[-1, -1])
    values = model.obs_transform_inv(y) if model.obs_transform_inv is not None else y
    return type("D", (), {"times": obs_times, "values": values})()


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
        cfg = SamplerConfig(m=3, n_iter=40, n_burn=10, seed=9, validate_every=1)
        run_chain(cfg, skeleton_data(model, 8, 4), model)

    @pytest.mark.parametrize("block_len", [2, 3])
    @pytest.mark.parametrize("name", model_names())
    def test_cache_is_a_fresh_engine_pass_bit_for_bit(self, name, block_len):
        # every move keeps the cached bits of what it leaves alone and adopts
        # or writes what it changes: after each kernel of a sweep, with one
        # parameter fixed, the cache equals a fresh engine pass exactly
        model = get_model(name)
        data = skeleton_data(model, 24, 4)
        prior = PriorSpec.from_model(model)
        state = init_state(model, model.make_params(), data.times, data.values, 3, prior,
                           fixed=model.param_names[:1])
        rng = RandomStream(block_len)
        start = dict(state.params)
        kernels = [lambda: _update_z_rows(state, rng)]
        if model.has_latent:
            *anchored, terminal = state.block_passes(block_len)
            kernels += [lambda b=b: _gamma_anchored_pass(state, b, rng) for b in anchored]
            kernels.append(lambda: update_gamma_block(state, terminal, rng))
        kernels += [lambda p=p: _update_param(state, p, rng, 0.1)
                    for p in _scalar_update_order(state)]
        for _ in range(30):
            for kernel in kernels:  # one sweep
                kernel()
                fresh = state.quantities(state.warps())
                for f in fields(fresh):
                    assert np.array_equal(getattr(state.cache, f.name),
                                          getattr(fresh, f.name)), f.name
        # neighbouring latent windows still share their observation knot
        assert np.array_equal(state.cache.gamma[1:, 0], state.cache.gamma[:-1, -1])
        assert all(state.params[p] != start[p] for p in state.free_names)

    def test_nonfinite_initial_posterior_rejected(self):
        data = type("D", (), {"times": np.array([0.0, 1.0, 2.0]),
                              "values": np.array([0.0, 1e200, -1e200])})()
        cfg = SamplerConfig(m=3, n_iter=5, n_burn=1, seed=1, block_len=2)
        with pytest.raises(ValidationError):
            run_chain(cfg, data, get_model("ou-sv-leverage"))

    @pytest.mark.parametrize("times,values", [
        ([0.0, 1.0, 2.0], [0.1, 0.2]),
        ([0.0, 2.0, 1.0], [0.1, 0.2, 0.3]),
        ([0.0, 1.0, 2.0], [0.1, np.nan, 0.3]),
    ], ids=["lengths-differ", "unsorted-times", "nan-value"])
    def test_bad_data_rejected_before_any_sweep(self, monkeypatch, times, values):
        def no_sweep(*args, **kwargs):
            raise AssertionError("swept on bad data")

        monkeypatch.setattr(timechange_sv.mcmc, "sweep", no_sweep)
        cfg = SamplerConfig(m=2, n_iter=5, n_burn=1, seed=1)
        with pytest.raises(ValidationError):
            run_chain(cfg, SimpleNamespace(times=times, values=values),
                      get_model("ou-sv-leverage"))

    @pytest.mark.parametrize("value", [-0.02, 0.0])
    def test_nonpositive_value_of_a_transformed_model_rejected(self, value):
        # tbill-logsv logs its data: a value <= 0 is named before any log,
        # so no RuntimeWarning is raised on the way
        data = SimpleNamespace(times=[0.0, 0.02, 0.04, 0.06], values=[0.05, value, 0.04, 0.05])
        cfg = SamplerConfig(m=2, n_iter=5, n_burn=1, seed=1)
        with pytest.raises(ValidationError, match=rf"observation 1 is {value}"):
            run_chain(cfg, data, get_model("tbill-logsv"))

    def test_two_observation_latent_fit_runs(self):
        # one interval: the block length 2 that SamplerConfig requires is
        # clamped to the one interval there is, a terminal block alone
        cfg = SamplerConfig(m=3, n_iter=20, n_burn=5, seed=1)
        tr = run_chain(cfg, self._data(1), get_model("ou-sv-leverage"))
        assert tr.n_rows == 15 and np.all(np.isfinite(tr.draws))
        assert tr.acceptance["gamma"] > 0.0

    def test_block_longer_than_data_gives_whole_data_draws(self):
        data, model = self._data(3), get_model("ou-sv-leverage")
        long, whole = (run_chain(SamplerConfig(m=3, n_iter=20, n_burn=5, seed=1, block_len=b),
                                 data, model) for b in (9, 3))
        assert np.array_equal(long.draws, whole.draws)
        assert np.array_equal(long.logliks, whole.logliks)

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

    @pytest.mark.parametrize("kwargs,message", [
        # a string is a sequence of one-letter names: "unknown fixed
        # parameters ... ['a', 'g', 'i', 'm', 's']" came only later
        ({"fixed": "sigma"}, "fixed must be a list or tuple of names, got 'sigma'"),
        ({"fixed": ("sigma", 3)}, "fixed must be a list or tuple of names"),
        # numpy rejected it only when the chain made its RandomStream
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ], ids=["fixed-string", "fixed-number", "negative-seed"])
    def test_bad_value_rejected_by_the_config(self, kwargs, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            SamplerConfig(m=3, n_iter=10, n_burn=1, **kwargs)

    def test_start_outside_the_prior_names_each_parameter(self):
        model = get_model("ou-sv-leverage")
        prior = PriorSpec.from_model(model, {"sigma": (0.5, 2.0), "rho": (-0.5, 0.5),
                                             "mu_x": (-1.0, 1.0)})
        cfg = SamplerConfig(m=2, n_iter=5, n_burn=1, seed=1)
        with pytest.raises(ValidationError) as err:
            run_chain(cfg, self._data(3), model, prior,
                      init_params={"sigma": 3.0, "rho": -0.5, "mu_x": 0.0})
        assert str(err.value) == ("initial parameters violate the prior support: "
                                  "sigma = 3.0 not in (0.5, 2.0); rho = -0.5 not in (-0.5, 0.5)")

    def test_state_as_the_gate_builds_it_rejects_a_start_outside_the_prior(self):
        # the exactness gate builds its states from simulated skeletons, not
        # through run_chain; the state makes the same check of its start
        model = get_model("ou-sv-leverage")
        prior = PriorSpec.from_model(model, {"sigma": (0.5, 2.0)})
        theta = model.make_params({"sigma": 3.0})
        obs_times = np.arange(4.0)
        xv, gam = simulate_discrete_skeleton(model, theta, obs_times, 2, 0.0, RandomStream(1))
        with pytest.raises(ValidationError) as err:
            AugmentedState(model, theta, obs_times, xv, gam, prior)
        assert str(err.value) == ("initial parameters violate the prior support: "
                                  "sigma = 3.0 not in (0.5, 2.0)")

    def test_prior_midpoint_init(self):
        # the midpoints of the named parameters only, so a parameter left
        # out (a fixed one) may have an improper box; a chain starts there
        data = self._data(5)
        model = get_model("ou-sv-leverage")
        prior = PriorSpec.from_model(model, {
            "mu_x": (-1, 1), "kappa_alpha": (0.1, 0.5), "mu_alpha": (-1, 1),
            "sigma": (0.2, 0.6), "rho": (-0.9, 0.9), "alpha0": (-1, 1),
        })
        free = [p for p in model.param_names if p != "kappa_x"]
        mid = prior.midpoint(free)
        assert list(mid) == free
        assert (mid["sigma"], mid["mu_x"]) == (0.4, 0.0)
        with pytest.raises(ValidationError, match="improper"):
            prior.midpoint(model.param_names)
        cfg = SamplerConfig(m=3, n_iter=3, n_burn=1, seed=1, fixed=("kappa_x",))
        tr = run_chain(cfg, data, model, prior, init_params={**mid, "kappa_x": 0.2})
        assert tr.n_rows == 2 and tr.param_names == tuple(free)


# Small chains whose last draw, log-likelihood sum and acceptance rates are
# pinned: a change that claims the same draws is checked against these
# numbers. Each case is (model, n_obs, SamplerConfig arguments, last draw,
# sum of the trace's log likelihoods, Trace.acceptance). The last one runs
# the bench's sampler settings: block length 2, default step sizes, adapted
# during burn-in.
PINNED_CHAINS = [
    pytest.param(
        "tbill-logsv", 9, dict(m=3, n_iter=30, n_burn=6, thin=4, block_len=3, seed=1),
        [13.077619822486291, 1.5424671956862746, 28.282487263004818, -4.3022794552404395,
         6.410500940386137, -5.0263100858192], 2.6325789425282045,
        {"z": 0.8981481481481481, "gamma": 0.5, "sigma": 0.25, "theta0": 0.875,
         "theta1": 0.5416666666666666, "kappa": 0.4583333333333333, "mu": 0.6666666666666666,
         "alpha0": 0.625}, id="tbill-logsv"),
    pytest.param(
        "ou-sv-leverage", 7, dict(m=2, n_iter=30, n_burn=5, fixed=("rho",), seed=2),
        [0.4573269432247769, 7.462018468962397, 5.127009115922363, 1.4389487251578736,
         2.842430243859785, -0.7381589884353148], 138.82051675744847,
        {"z": 0.9885714285714285, "gamma": 0.7, "sigma": 0.68, "kappa_x": 0.72, "mu_x": 1.0,
         "kappa_alpha": 0.84, "mu_alpha": 0.72, "alpha0": 0.56}, id="ou-sv-leverage"),
    pytest.param(
        "const-vol-scalar", 5, dict(m=4, n_iter=40, n_burn=10, thin=3, seed=3),
        [-6.357072345545669, 2.0704072748269904], 35.5937397579539,
        {"z": 1.0, "sigma": 0.4, "theta": 0.7}, id="const-vol-scalar"),
    pytest.param(
        "tbill-logsv", 30, dict(m=6, n_iter=30, n_burn=10, seed=5),
        [-2.5654916875346787, -0.27796180666613446, 20.81178740899504, -3.8861866774974922,
         1.4436879944276602, -3.498996600887107], 223.78488028635738,
        {"z": 0.9866666666666667, "gamma": 0.8844827586206897, "sigma": 0.6, "theta0": 0.75,
         "theta1": 0.5, "kappa": 0.5, "mu": 0.15, "alpha0": 0.35}, id="tbill-logsv-adapted"),
]


@pytest.mark.parametrize("name,n_obs,kwargs,last_draw,loglik_sum,acceptance", PINNED_CHAINS)
def test_pinned_draws(name, n_obs, kwargs, last_draw, loglik_sum, acceptance):
    model = get_model(name)
    tr = run_chain(SamplerConfig(**kwargs), skeleton_data(model, n_obs, 4), model)
    assert np.allclose(tr.draws[-1], last_draw, rtol=1e-9, atol=0)
    assert math.isclose(tr.logliks.sum(), loglik_sum, rel_tol=1e-9)
    assert tr.acceptance.keys() == acceptance.keys()
    for kernel, rate in acceptance.items():
        assert math.isclose(tr.acceptance[kernel], rate, rel_tol=1e-12), kernel


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
                    new_times = state.cache.z_times[:1, -1:] * np.array([1.1, 2.0])
                    refine_rows(state.cache.z_times[:1], state.cache.z[:1], new_times, rng)
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
    model = get_model("tbill-logsv")
    try:
        assert tracing.install_layers(tracer, timechange_sv) == set()
        # and each kernel is reached through its wrapped name: a kernel that
        # sweep called some other way would read 0 as well
        timechange_sv.mcmc.run_chain(SamplerConfig(m=2, n_iter=3, n_burn=1),
                                     skeleton_data(model, 5, 4), model)
    finally:
        tracer.restore()
    for span in ("mcmc.z_paths", "mcmc.gamma_anchored", "mcmc.gamma_terminal",
                 "mcmc.timescale_param", "mcmc.drift_param", "mcmc.sweep"):
        assert tracer.calls(span) > 0, span


class TestRunJobs:
    def test_outcomes_in_job_order(self, monkeypatch):
        # on 2 CPUs jobs 0, 2, 4 run here and 1, 3, 5 in a forked worker, and
        # each process stops at its own first failure; the job is a closure,
        # which reaches the worker through the fork
        failures = {2: ValueError, 3: ZeroDivisionError}

        def job(k):
            if k in failures:
                raise failures[k](k)
            return k, os.getpid()

        set_cpus(monkeypatch, 2)
        out = run_jobs(job, 6)
        assert out[0] == (0, os.getpid()) and out[1][0] == 1 and out[1][1] != os.getpid()
        assert [type(o) for o in out[2:]] == [ValueError, ZeroDivisionError, type(None), type(None)]
        set_cpus(monkeypatch, 1)
        out = run_jobs(job, 6)
        assert out[:2] == [(0, os.getpid()), (1, os.getpid())]
        assert isinstance(out[2], ValueError) and out[3:] == [None] * 3

    def test_without_fork_jobs_run_in_this_process(self, monkeypatch):
        import multiprocessing

        def no_fork(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        set_cpus(monkeypatch, 2)
        assert run_jobs(lambda k: os.getpid(), 3) == [os.getpid()] * 3

    def test_usable_cpus_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        pids = run_jobs(lambda k: os.getpid(), 3)
        assert pids[0] == pids[2] == os.getpid() != pids[1]
