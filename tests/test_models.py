
import collections
import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timechange_sv import models
from timechange_sv.cli import ingest_csv
from timechange_sv.errors import ExplosionError, ValidationError
from timechange_sv.likelihood import path_stage, warp_stage
from timechange_sv.mcmc import PriorSpec, _transform_observations
from timechange_sv.models import (
    ModelSpec,
    POSITIVE,
    REAL,
    ParamSupport,
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
        drift_x=drift_x or (lambda x, a, p: np.zeros(np.shape(x))),
        vol_x=vol_x or (lambda a, p: np.ones(np.shape(a))),
        drift_alpha=drift_alpha,
        vol_alpha=lambda p: 0.1,
    )


def assert_explodes_as_step_loop(model, x0, alpha0):
    """The simulator raises ExplosionError at exactly the grid time where the
    per-step loop does, a step strictly inside the grid. The loop takes the
    float starts as a batch of one."""
    grid = TimeGrid(np.linspace(0.0, 5.0, 501))
    with pytest.raises(ExplosionError) as ref:
        euler_paths_reference(model, model.make_params(), x0, alpha0, grid, RandomStream(0))
    with pytest.raises(ExplosionError) as got:
        euler_simulate(model, model.make_params(), x0, alpha0, grid, RandomStream(0))
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
            model = get_model(name)
            assert PriorSpec.from_model(model).outside(model.make_params()) == []

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValidationError):
            get_model("const-vol-scalar").make_params({"bogus": 1.0})

    def test_support_violation_detected(self):
        model = get_model("ou-sv-leverage")
        params = model.make_params({"sigma": -1.0})
        assert PriorSpec.from_model(model).outside(params) == ["sigma = -1.0 not in (0.0, inf)"]

    def test_make_params_floats_in_declared_order(self):
        model = get_model("const-vol-scalar")
        params = model.make_params({"sigma": 1})
        assert list(params.items()) == [("theta", 0.0), ("sigma", 1.0)]
        assert all(type(v) is float for v in params.values())


SUPPORTS = [pytest.param(REAL, id="real"), pytest.param(POSITIVE, id="positive"),
            pytest.param(ParamSupport(-1.0, 1.0), id="interval")]


def inside(sup, x):
    """Whether ``x`` is inside ``sup``, by the prior box that
    ``PriorSpec.from_model`` makes of a parameter's support."""
    return not PriorSpec({"x": (sup.lo, sup.hi)}).outside({"x": x})


class TestParamSupport:
    def test_positive_is_log_and_exp(self):
        # the (0, inf) transforms must give the bits of log and exp, so that
        # draws on a positive parameter do not depend on how its support is
        # written down
        xs = [5e-324, 1e-300, 1e-8, 0.3, 1.0, 2.764, 1e8, 1e300]
        xs += np.exp(RandomStream(3).normal(200) * 5.0).tolist()
        for x in xs:
            assert POSITIVE.to_unconstrained(x) == math.log(x)
            assert POSITIVE.log_jacobian(x) == math.log(x)
        for phi in [-745.0, -700.0, -1.5, 0.0, 0.25, 700.0] + RandomStream(4).normal(200).tolist():
            assert POSITIVE.from_unconstrained(phi) == math.exp(phi)

    @pytest.mark.parametrize("sup", SUPPORTS)
    def test_round_trip(self, sup):
        for phi in np.linspace(-6.0, 6.0, 49).tolist():
            x = sup.from_unconstrained(phi)
            assert inside(sup, x)
            assert sup.to_unconstrained(x) == pytest.approx(phi, rel=1e-9, abs=1e-9)
            assert sup.from_unconstrained(sup.to_unconstrained(x)) == pytest.approx(x, rel=1e-12)

    @pytest.mark.parametrize("sup", SUPPORTS)
    def test_contains_is_open_and_finite(self, sup):
        for x in (sup.lo, sup.hi, -math.inf, math.inf, math.nan):
            assert not inside(sup, x)

    @pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (2.0, 1.0), (-math.inf, 1.0),
                                       (math.nan, math.inf), (0.0, math.nan)])
    def test_empty_or_unbounded_below_rejected(self, lo, hi):
        with pytest.raises(ValidationError):
            ParamSupport(lo, hi)

    @pytest.mark.parametrize("name", model_names())
    def test_default_prior_is_the_support(self, name):
        model = get_model(name)
        prior = PriorSpec.from_model(model)
        params = model.make_params()
        assert prior.outside(params) == []
        for k in model.param_names:
            sup = model.supports[k]
            outside = [-math.inf, math.inf, math.nan]
            outside += [sup.lo, sup.lo - 0.5] if math.isfinite(sup.lo) else []
            outside += [sup.hi, sup.hi + 0.5] if math.isfinite(sup.hi) else []
            for x in outside:
                assert prior.outside({**params, k: x}) == [f"{k} = {x} not in "
                                                           f"({sup.lo}, {sup.hi})"], (k, x)


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
        params = {**model.make_params({"rho": 0.0}), "rho": rho}  # bypass support check
        grid = TimeGrid(np.linspace(0.0, 50.0, 50_001))
        x, a = euler_simulate(model, params, 0.0, -0.2, grid, RandomStream(8))
        dx = np.diff(x.values) / np.exp(0.5 * a.values[:-1])
        da = np.diff(a.values) / params["sigma"]
        corr = np.corrcoef(dx, da)[0, 1]
        assert corr == pytest.approx(rho, abs=0.02)

    def test_explosion_reports_time(self):
        model = blowup_model(drift_x=lambda x, a, p: np.asarray(x, dtype=float) ** 3 * 1e6)
        assert_explodes_as_step_loop(model, 1.0, 0.0)

    def test_explosion_time_of_latent_drift(self):
        # X ignores alpha, so it stays finite: only the latent path blows up
        model = blowup_model(drift_alpha=lambda a, p: np.asarray(a, dtype=float) ** 3 * 1e4)
        assert_explodes_as_step_loop(model, 0.0, 1.0)

    def test_explosion_time_of_a_piecewise_drift(self):
        # the drift explodes above 2 only, through np.where, which gives a
        # 0-d array on a numpy scalar; the path from 3 starts where it does
        model = blowup_model(
            drift_x=lambda x, a, p: np.where(x > 2.0, np.asarray(x, dtype=float) ** 3, 0.0),
            vol_x=lambda a, p: np.full(np.shape(a), 0.1),
        )
        assert_explodes_as_step_loop(model, 3.0, 0.0)

    @pytest.mark.parametrize("x0,alpha0", [(np.nan, 0.0), (np.inf, 0.0), (0.0, -np.inf)])
    def test_nonfinite_start_rejected(self, x0, alpha0):
        # a bad start is an input error, not an explosion at the first step
        model = get_model("ou-sv-leverage")
        grid = TimeGrid(np.linspace(0.0, 1.0, 11))
        with pytest.raises(ValidationError, match="start values"):
            euler_simulate(model, model.make_params(), x0, alpha0, grid, RandomStream(0))

    @pytest.mark.parametrize("rho", [1.5, -1.0000001])
    def test_correlation_outside_unit_interval_rejected(self, rho):
        # with |rho| > 1 the leverage factor used to be clamped to 0, which
        # gave dB_total the variance rho^2 dt
        model = get_model("ou-sv-leverage")
        params = {**model.make_params(), "rho": rho}
        grid = TimeGrid(np.linspace(0.0, 1.0, 11))
        with pytest.raises(ValidationError, match="outside"):
            euler_simulate(model, params, 0.1, -0.2, grid, RandomStream(0))

    def test_ou_endpoint_distribution(self):
        # dX = -X dt + dW on [0,1] from 1: endpoint ~ N(e^-1, (1-e^-2)/2);
        # the per-step loop that TestEulerOracle pins the simulator to bit for
        # bit runs the 100k paths as one batch, keeping only their ends
        model = scalar_ou_model(kappa=1.0, mu=0.0, sigma=1.0)
        grid = TimeGrid(np.linspace(0.0, 1.0, 1001))
        ends, _ = euler_paths_reference(
            model, model.make_params(), np.ones(100_000), np.zeros(100_000),
            grid, RandomStream(17), ends_only=True,
        )
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


def simulated_cases():
    """(id, model, parameter updates) of the registered and test models."""
    cases = [(n, get_model(n), {}) for n in model_names()]
    cases += [(f"ou-sv-rho{r:+.0f}", get_model("ou-sv-leverage"), {"rho": r}) for r in (1.0, -1.0)]
    cases += [("scalar-ou", scalar_ou_model(), {}), ("decoupled-sv", decoupled_sv_model(), {})]
    return cases


def simulated_models():
    return [pytest.param(model, updates, id=name) for name, model, updates in simulated_cases()]


def assert_simulates_as_step_loop(model, params, x0, alpha0, grid, seed, simulated=None):
    """``euler_simulate`` gives the per-step loop's paths bit for bit and
    leaves the stream where the loop does, or both raise ``ExplosionError``
    at the same grid time; returns that time, or None. ``simulated``, if
    given, is the same model as ``model`` for ``euler_simulate`` alone."""
    simulated = simulated or model
    ref_rng, rng = RandomStream(seed), RandomStream(seed)
    try:
        want = np.errstate(divide="ignore")(euler_paths_reference)(
            model, params, x0, alpha0, grid, ref_rng)
    except ExplosionError as exc:
        with pytest.raises(ExplosionError) as got:
            euler_simulate(simulated, params, x0, alpha0, grid, rng)
        assert got.value.time == exc.time
        return exc.time
    got = euler_simulate(simulated, params, x0, alpha0, grid, rng)
    for g, w in zip(got, want):
        assert g.values.tobytes() == w[0].tobytes()
    assert rng.normal() == ref_rng.normal()
    return None


def counting_drifts(model, monkeypatch):
    """``model`` with drifts that count their calls by kind and coordinate:
    ``calls["x", "newton"]`` counts the observed drift's calls on arrays
    made by the windows' Newton solves (``models._newton``), ``calls["x",
    "sweep"]`` its other calls on arrays (one per fixed-point sweep),
    ``calls["x", "step"]`` those on scalars (one per single step); likewise
    ``"alpha"`` for the latent drift."""
    calls = collections.Counter()
    stage = ["sweep"]
    newton = models._newton

    def counted_newton(*args):
        stage[0] = "newton"
        try:
            return newton(*args)
        finally:
            stage[0] = "sweep"

    def counted(name, f):
        def g(x, *rest):
            calls[name, stage[0] if np.ndim(x) else "step"] += 1
            return f(x, *rest)
        return g

    monkeypatch.setattr(models, "_newton", counted_newton)
    return dataclasses.replace(
        model, drift_x=counted("x", model.drift_x),
        drift_alpha=model.drift_alpha and counted("alpha", model.drift_alpha),
    ), calls


# the bench's tbill grids: weekly observations, 50 steps each for the sampler's
# workload, 100 each for the CLI's simulate
BENCH_TBILL_GRID = TimeGrid(5.0 / 252.0 / 50 * np.arange(24_951))
CLI_TBILL_GRID = TimeGrid(5.0 / 252.0 / 100 * np.arange(25_001))
# ou-sv-leverage whose drifts change by half the state's change per step
STIFF_UPDATES = {"kappa_x": 2.0, "kappa_alpha": 3.0}
STIFF_GRID = TimeGrid(0.25 * np.arange(2001))


def stiffening_model(rate=np.exp):
    """Latent alpha rising at 0.3 per unit time, observed drift -rate(alpha) x:
    with the default rate, on a step of 1e-3 the drift moves with x by 1e-3
    per step at first and by 6e-3 after 6 time units."""
    return ModelSpec(
        name="stiffening", param_names=("c",), supports={"c": REAL}, defaults={"c": 0.3},
        drift_x=lambda x, a, p: -rate(a) * x,
        vol_x=lambda a, p: np.ones(np.shape(a)),
        drift_alpha=lambda a, p: p["c"] + 0.0 * a,
        vol_alpha=lambda p: 0.1,
    )


class TestEulerOracle:
    """``euler_simulate`` against the per-step loop it replaced
    (``euler_paths_reference``): the same bits, the same random numbers."""

    @pytest.mark.parametrize("n_points", [300, 1], ids=["scalar", "scalar-one-point"])
    @pytest.mark.parametrize("model,updates", simulated_models())
    def test_bit_identical(self, model, updates, n_points):
        # the loop takes the float starts as a batch of one
        params = {**model.make_params(), **updates}  # rho = +-1 bypasses support
        x0 = np.log(10.0) if model.obs_transform else 0.1
        a0 = params["alpha0"] if "alpha0" in params else 0.0
        grid = uneven_grid(n_points)
        assert assert_simulates_as_step_loop(model, params, x0, a0, grid, 9) is None

    def test_numpy_properties_the_sweeps_rest_on(self):
        # a sweep reads the drifts on whole windows and adds the steps by
        # cumsum: a ufunc gives an element the bits it gives it alone, as in
        # a single step, whatever the array's length and alignment, and
        # cumsum adds left to right as the step loop does
        w = models._WINDOW
        v = 5.0 * RandomStream(4).normal(2 * w + 8)
        for f in (np.exp, np.expm1, np.tanh, lambda u: np.log(np.abs(u))):
            alone = [float(f(u)) for u in v.tolist()]
            for lo, hi in ((0, 1), (1, 8), (3, 67), (0, w - 1), (5, w + 5), (1, w + 2),
                           (7, 2 * w + 8)):
                assert f(v[lo:hi]).tolist() == alone[lo:hi]
        assert np.cumsum(v).tolist() == list(itertools.accumulate(v.tolist()))

    @pytest.mark.parametrize("name,updates,x0,grid", [
        ("tbill-logsv", {}, np.log(10.0), BENCH_TBILL_GRID),
        ("ou-sv-leverage", {"rho": -0.7}, 0.1, TimeGrid(1e-3 * np.arange(20_001))),
        ("const-vol-scalar", {"theta": 0.3}, 0.1, TimeGrid(1e-3 * np.arange(20_001))),
        ("ou-sv-leverage", STIFF_UPDATES, 0.1, STIFF_GRID),
        # one window, shorter than _WINDOW
        ("const-vol-scalar", {}, 0.1, TimeGrid(1e-3 * np.arange(2001))),
    ], ids=["tbill-bench-grid", "ou-sv-leverage", "const-vol-scalar", "stiff",
            "const-vol-scalar-short-last-window"])
    def test_long_one_path(self, name, updates, x0, grid):
        # over grids as long as the bench's, which sweep, and a stiff one,
        # which takes single steps
        model = get_model(name)
        params = model.make_params(updates)
        a0 = params["alpha0"] if "alpha0" in params else 0.0
        assert assert_simulates_as_step_loop(model, params, x0, a0, grid, 21) is None

    @staticmethod
    def assert_windows_hand_off(rate, dt, n_steps, monkeypatch):
        # the observed drift -rate(alpha) x moves with x by rate(alpha) dt
        # per step, which does not depend on x: each window sweeps up to its
        # first step where that slope exceeds _SLOW_CONTRACTION, then goes on
        # in single steps on numpy scalars to the window's end
        model = stiffening_model(rate)
        counted, calls = counting_drifts(model, monkeypatch)
        grid = TimeGrid(dt * np.arange(n_steps + 1))
        assert assert_simulates_as_step_loop(model, model.make_params(), 1.0, 0.0, grid, 3,
                                             counted) is None
        _, alpha = euler_simulate(model, model.make_params(), 1.0, 0.0, grid, RandomStream(3))
        steep = rate(alpha.values[:-1]) * grid.steps > models._SLOW_CONTRACTION
        windows = [steep[lo:lo + models._WINDOW] for lo in range(0, n_steps, models._WINDOW)]
        assert calls["x", "sweep"] > 0 and steep.any()
        assert calls["x", "step"] == sum(len(w) - int(w.argmax()) for w in windows if w.any())

    def test_sweeps_hand_off_to_float_steps(self, monkeypatch):
        # steep from some 2700 steps in, to the end of the path: the second
        # window hands off at its first step
        self.assert_windows_hand_off(np.exp, 2e-3, 8000, monkeypatch)

    @pytest.mark.parametrize("rate,dt,n_steps", [
        # steep from some 6700 steps in, in the second window
        (np.exp, 1e-3, 12_000),
        # steep for some 900 steps in the first window only: the later
        # windows sweep again
        (lambda a: 20.0 * np.exp(-32.0 * (a - 1.0) ** 2), 1e-3, 12_000),
    ], ids=["in-a-later-window", "spike"])
    def test_each_window_hands_off_apart(self, rate, dt, n_steps, monkeypatch):
        self.assert_windows_hand_off(rate, dt, n_steps, monkeypatch)

    @pytest.mark.parametrize("coefs,coord", [
        # a drift of 1 below 5, nan above: the path crosses 5 some 5000 steps in
        ({"drift_x": lambda x, a, p: np.where(x < 5.0, 1.0, np.nan)}, "x"),
        ({"drift_alpha": lambda a, p: np.where(a < 5.0, 1.0, np.inf)}, "alpha"),
    ], ids=["observed", "latent"])
    def test_late_explosion(self, coefs, coord, monkeypatch):
        # a path that turns non-finite in the middle of a sweep's window
        model = blowup_model(**coefs)
        counted, calls = counting_drifts(model, monkeypatch)
        grid = TimeGrid(1e-3 * np.arange(20_001))
        time = assert_simulates_as_step_loop(model, model.make_params(), 0.0, 0.0, grid, 5,
                                             counted)
        assert time is not None and 2.0 < time < 6.0
        assert calls["x", "step"] + calls["alpha", "step"] == 0
        # the sweeps stop there: a few reach it, and none runs on the 15 000
        # steps after it
        assert calls[coord, "sweep"] <= 12
        # one Newton solve in each window up to the one where the path turns
        # non-finite: at most two steps of two calls each
        windows = round(time / 1e-3) // models._WINDOW + 1
        assert calls[coord, "newton"] <= 4 * windows

    @given(
        st.sampled_from(simulated_cases()),
        st.floats(1e-4, 0.3),
        # across the boundaries of the windows too
        st.one_of(st.integers(1, 3000), st.sampled_from(
            [models._WINDOW - 1, models._WINDOW, models._WINDOW + 1, 2 * models._WINDOW + 1])),
        st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_newton_start_decides_no_bit(self, case, dt, n_steps, seed):
        # the sweeps carry the step loop's bits from any start: with Newton
        # solves that leave the drift-free guess and never hand off, the
        # paths, the stream after them and the explosion time are the same
        _, model, updates = case
        params = {**model.make_params(), **updates}
        x0 = np.log(10.0) if model.obs_transform else 0.1
        a0 = params["alpha0"] if "alpha0" in params else 0.0
        grid = TimeGrid(dt * np.arange(n_steps + 1))

        def simulate():
            rng = RandomStream(seed)
            try:
                paths = euler_simulate(model, params, x0, a0, grid, rng)
            except ExplosionError as exc:
                return exc.time, rng.normal()
            return [p.values.tobytes() for p in paths], rng.normal()

        shipped = simulate()
        with mock.patch.object(models, "_newton", lambda x, drift, incs, dts, lo, hi: hi):
            assert simulate() == shipped

    @given(
        st.sampled_from(simulated_cases()),
        st.floats(1e-4, 0.3),
        # n_points: steps across the boundaries of the windows too
        st.one_of(st.integers(1, 3000), st.sampled_from(
            [models._WINDOW, models._WINDOW + 1, models._WINDOW + 2, 2 * models._WINDOW + 2])),
        st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_step_and_length(self, case, dt, n_points, seed):
        _, model, updates = case
        params = {**model.make_params(), **updates}
        x0 = np.log(10.0) if model.obs_transform else 0.1
        a0 = params["alpha0"] if "alpha0" in params else 0.0
        grid = TimeGrid(dt * np.arange(n_points))
        assert_simulates_as_step_loop(model, params, x0, a0, grid, seed)

    @pytest.mark.parametrize("coefs,x0,alpha0,explodes", [
        # x ** 3 overflows a float (OverflowError) as the path explodes
        ({"drift_x": lambda x, a, p: x ** 3 * 1e6}, 1.0, 0.0, True),
        # 1.0 / 0.0 is a ZeroDivisionError, numpy's inf an explosion at the first step
        ({"drift_x": lambda x, a, p: 1.0 / x}, 0.0, 0.0, True),
        # numpy's x ** 3 = inf gives a drift 1.0 / inf = 0: the path stays finite
        ({"drift_x": lambda x, a, p: x + 1.0 / x ** 3}, 1e102, 0.0, False),
        ({"drift_alpha": lambda a, p: a ** 3 * 1e4}, 0.0, 1.0, True),
    ], ids=["cube-overflow", "reciprocal-at-zero", "inverse-cube", "latent-cube-overflow"])
    def test_coefficients_that_raise_on_floats(self, coefs, x0, alpha0, explodes):
        # where Python floats would raise, numpy scalars give inf or nan: the
        # path goes on as the loop's arrays do, to the same bits or the same
        # explosion
        model = blowup_model(**coefs)
        grid = TimeGrid(np.linspace(0.0, 5.0, 501))
        params = model.make_params()
        ref_rng, rng = RandomStream(0), RandomStream(0)
        # the loop silences only over and invalid
        reference = np.errstate(divide="ignore")(euler_paths_reference)
        if explodes:
            with pytest.raises(ExplosionError) as want:
                reference(model, params, x0, alpha0, grid, ref_rng)
            with pytest.raises(ExplosionError) as got:
                euler_simulate(model, params, x0, alpha0, grid, rng)
            assert got.value.time == want.value.time
        else:
            want = reference(model, params, x0, alpha0, grid, ref_rng)
            got = euler_simulate(model, params, x0, alpha0, grid, rng)
            for g, w in zip(got, want):
                assert g.values.tobytes() == w[0].tobytes()
            assert rng.normal() == ref_rng.normal()


class TestEulerRegimes:
    """Which paths ``euler_simulate`` sweeps and which it takes step by
    step, counted by the drift calls rather than timed."""

    @pytest.mark.parametrize("grid", [BENCH_TBILL_GRID, CLI_TBILL_GRID],
                             ids=["tbill-n500-m16", "cli-tbill"])
    def test_bench_grid_sweeps(self, grid, monkeypatch):
        # the benchmark's simulated paths are swept to the end, and the
        # Newton solves save more sweeps than they make drift calls
        def count():
            model, calls = counting_drifts(get_model("tbill-logsv"), monkeypatch)
            params = model.make_params()
            euler_simulate(model, params, np.log(10.0), params["alpha0"], grid, RandomStream(1))
            return calls

        calls = count()
        monkeypatch.setattr(models, "_newton", lambda x, drift, incs, dts, lo, hi: hi)
        drift_free = count()
        windows = -(-(len(grid) - 1) // models._WINDOW)
        for coord in ("x", "alpha"):
            assert calls[coord, "step"] == 0
            assert 0 < calls[coord, "sweep"] < 400
            assert 0 < calls[coord, "newton"] <= 4 * windows
            assert calls[coord, "newton"] + calls[coord, "sweep"] < drift_free[coord, "sweep"]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_start_far_from_equilibrium(self, seed, monkeypatch):
        # simulate's default: tbill-logsv from x0 = 0, far below the observed
        # drift's equilibrium near 1.75, where Newton's first corrections
        # reach 0.35. Each window solves from its final first state, so no
        # window inherits the error of the ones before it
        model, calls = counting_drifts(get_model("tbill-logsv"), monkeypatch)
        params = model.make_params()
        grid = TimeGrid(1e-3 * np.arange(20_001))
        euler_simulate(model, params, 0.0, params["alpha0"], grid, RandomStream(seed))
        assert calls["x", "step"] == 0
        assert calls["x", "newton"] + calls["x", "sweep"] <= 66

    def test_stiff_grid_stops_sweeping(self, monkeypatch):
        model, calls = counting_drifts(get_model("ou-sv-leverage"), monkeypatch)
        params = model.make_params(STIFF_UPDATES)
        euler_simulate(model, params, 0.1, params["alpha0"], STIFF_GRID, RandomStream(1))
        for coord in ("x", "alpha"):
            assert calls[coord, "sweep"] <= 3
            assert calls[coord, "step"] > 0.99 * (len(STIFF_GRID) - 1)
            # the first window's Newton solve finds every step steep and
            # hands off at once; its slope product underflows
            assert calls[coord, "newton"] <= 2


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
    w = warp_stage(model, params, np.diff(times)[None, :], gamma[None, :])
    U = x - w.adj[0]
    z = centre_on_chord(U[:-1], w.u[0, :-1], w.u[0, -1], x[0], U[-1])
    q = path_stage(w, z[None, :], x[:1], x[-1:])
    return w.adj[0], q.U[0] + w.adj[0]


class TestLeverageAdjust:
    """The cumulative leverage adjustment of the engine's warp stage
    (``warp_stage``'s ``adj``) and its inverse in the path stage."""

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
