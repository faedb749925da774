import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timechange_sv.errors import ValidationError
from timechange_sv.likelihood import warp_stage
from timechange_sv.models import get_model
from timechange_sv.paths import RandomStream, TimeGrid
from timechange_sv.timechange import (
    centre_on_chord,
    refine_rows,
    second_warp,
    uncentre_from_chord,
)

from _support import refine_rows_reference, scalar_ou_model


def first_warp_of(model, params, times, gamma=None):
    """The engine's warp stage on one interval with knots ``times``."""
    times = np.atleast_2d(np.asarray(times, dtype=float))
    gamma = np.zeros_like(times) if gamma is None else np.atleast_2d(gamma)
    return warp_stage(model, params, np.diff(times, axis=1), gamma)


class TestBuildEta:
    def test_constant_vol_sqrt2(self):
        model = scalar_ou_model(sigma=np.sqrt(2.0))
        w = first_warp_of(model, model.make_params(), [0.0, 0.5, 1.0])
        assert w.u[0, -1] == pytest.approx(2.0, abs=1e-15)
        assert w.u[0, 1] == pytest.approx(1.0, abs=1e-15)

    def test_unit_vol_is_identity_shift(self):
        model = scalar_ou_model(sigma=1.0)
        t = np.linspace(2.0, 5.0, 7)
        w = first_warp_of(model, model.make_params(), t)
        assert w.u[0, -1] == pytest.approx(3.0)
        assert np.allclose(w.u[0], t - 2.0, atol=1e-14)

    def test_flat_latent_unit_vol(self):
        # log-vol model with alpha pinned at 0 has unit volatility
        model = get_model("tbill-logsv")
        params = model.make_params({"alpha0": 0.0, "sigma": 1.0})
        times = np.linspace(1.0, 2.0, 12)
        w = first_warp_of(model, params, times, np.zeros(12))
        assert np.allclose(w.u[0], times - 1.0, atol=1e-14)

    def test_monotone_for_random_latents(self):
        model = get_model("ou-sv-leverage")
        params = model.make_params()
        rng = RandomStream(4)
        times = np.tile(np.linspace(0.0, 1.0, 9), (25, 1))
        gamma = np.array(
            [np.concatenate(([0.0], np.cumsum(0.4 * rng.normal(8)))) for _ in range(25)]
        )
        w = warp_stage(model, params, np.diff(times, axis=1), gamma)
        assert np.all(w.u[:, 0] == 0.0)
        assert np.all(np.diff(w.u, axis=1) > 0)


class TestTimeWarps:
    def test_fig1_knot_mapping(self):
        # vol sqrt(2), 7 imputed points on [0,1]: times double, values fixed
        # (without leverage the adjustment removed from the values is zero)
        model = scalar_ou_model(sigma=np.sqrt(2.0))
        w = first_warp_of(model, model.make_params(), np.arange(9) / 8.0)
        assert np.allclose(w.u[0], 2.0 * np.arange(9) / 8.0, atol=1e-15)
        assert np.all(w.adj == 0.0)

    def test_identity_warp(self):
        model = scalar_ou_model(sigma=1.0)
        t = np.array([0.0, 0.25, 1.0])
        w = first_warp_of(model, model.make_params(), t)
        assert np.allclose(w.u[0], t, atol=1e-15)

    def test_round_trip(self):
        # constant vol: u = vol^2 (x - x_0), so x = x_0 + u / vol^2
        model = scalar_ou_model(sigma=0.37)
        x = np.linspace(1.0, 3.0, 11)
        w = first_warp_of(model, model.make_params(), x)
        back = 1.0 + w.u[0] / 0.37**2
        assert np.allclose(back, x, rtol=1e-12, atol=1e-14)

    def test_z_time_values(self):
        assert second_warp(0.0, 2.0) == 0.0
        assert second_warp(0.25, 2.0) == pytest.approx(1.0 / 14.0, abs=1e-15)

    def test_z_time_monotone_diverging(self):
        T = 1.7
        t = np.linspace(0.0, T * (1 - 1e-6), 500)
        s = second_warp(t, T)
        assert np.all(np.diff(s) > 0)
        assert s[-1] > 1e4

    def test_u_time_inverse(self):
        # the inverse of the second warp is s -> T^2 s / (1 + T s)
        T = 3.3
        t = np.linspace(0.1, 0.9, 9) * T
        s = second_warp(t, T)
        assert np.allclose(T * T * s / (1.0 + T * s), t, rtol=1e-12, atol=1e-13)


class TestSecondWarp:
    def test_chord_maps_to_zero(self):
        T, y0, y1 = 2.0, 1.0, -3.0
        ut = np.array([0.0, 0.5, 1.2])
        z = centre_on_chord(y0 + ut / T * (y1 - y0), ut, T, y0, y1)
        assert np.allclose(z, 0.0, atol=1e-15)
        assert second_warp(ut[0], T) == 0.0 and z[0] == 0.0

    def test_single_knot_formula(self):
        # one interior knot at the doubly-warped time 1/14 with value c
        T, y0, y1, c = 2.0, 0.5, 1.5, 0.8
        s = 1.0 / 14.0
        t = T * T * s / (1.0 + T * s)
        assert t == pytest.approx(0.25, abs=1e-15)
        chord = y0 + 0.25 / T * (y1 - y0)
        assert uncentre_from_chord(c, t, T, y0, y1) == pytest.approx(1.75 * c + chord, abs=1e-14)
        assert uncentre_from_chord(0.0, 0.0, T, y0, y1) == y0

    def test_zero_path_maps_to_chord(self):
        T, y0, y1 = 1.3, 2.0, 0.5
        s = np.array([0.0, 0.1, 5.0])
        t = T * T * s / (1.0 + T * s)
        vals = uncentre_from_chord(np.zeros(3), t, T, y0, y1)
        assert np.allclose(vals, y0 + t / T * (y1 - y0), atol=1e-14)

    def test_round_trip_exact(self):
        rng = RandomStream(12)
        T, y0, y1 = 0.7, -1.0, 2.5
        ut = np.concatenate(([0.0], np.sort(rng.uniform(6)) * 0.95 * T, [T]))
        vals = np.concatenate(([y0], rng.normal(6), [y1]))
        _assert_round_trip(ut, vals, T, rtol=1e-12, atol_t=1e-14, atol_v=1e-13)

    def test_bridge_statistics_through_inverse_warp(self):
        # standard BM pushed through the inverse warp is a Brownian bridge
        T, y0, y1, n_rep = 2.0, 1.0, -2.0, 100_000
        rng = RandomStream(3)
        ut = np.linspace(0.0, T, 9)[1:-1]
        s = np.concatenate(([0.0], second_warp(ut, T)))
        steps = np.diff(s)
        z = np.cumsum(np.sqrt(steps)[None, :] * rng.normal((n_rep, steps.size)), axis=1)
        vals = uncentre_from_chord(z, ut, T, y0, y1)
        chord = y0 + ut / T * (y1 - y0)
        se_mean = np.sqrt(ut * (T - ut) / T / n_rep)
        assert np.all(np.abs(vals.mean(axis=0) - chord) < 4.0 * se_mean)
        cov_th = np.minimum.outer(ut, ut) * (T - np.maximum.outer(ut, ut)) / T
        cov_emp = np.cov(vals.T)
        se_cov = np.sqrt(
            (np.outer(np.diag(cov_th), np.diag(cov_th)) + cov_th**2) / n_rep
        )
        assert np.all(np.abs(cov_emp - cov_th) < 4.0 * se_cov)

    def test_bridge_input_gives_brownian_increments(self):
        # inverse direction: bridge values at the knots -> unit-variance-rate
        # increments on the doubly-warped times
        T, y0, y1, n_rep = 1.5, 0.3, 1.1, 100_000
        rng = RandomStream(8)
        ut = np.linspace(0.0, T, 8)
        inner = ut[1:-1]
        w = np.cumsum(np.sqrt(np.diff(ut))[None, :] * rng.normal((n_rep, 7)), axis=1)
        bridge = (
            y0
            + w[:, :-1]
            - (inner / T)[None, :] * w[:, -1:]
            + (inner / T)[None, :] * (y1 - y0)
        )
        s = second_warp(inner, T)
        zvals = centre_on_chord(bridge, inner, T, y0, y1)
        zvals = np.concatenate((np.zeros((n_rep, 1)), zvals), axis=1)
        dz = np.diff(zvals, axis=1)
        ds = np.diff(np.concatenate(([0.0], s)))
        var = dz.var(axis=0, ddof=1)
        se = ds * np.sqrt(2.0 / n_rep)
        assert np.all(np.abs(var - ds) < 4.0 * se)


class TestRefineRetrospective:
    def _zpath(self, seed=5, n=6):
        """Times and values of a Brownian path from 0: every time after the
        first is past the only stored knot, so each draw is an increment."""
        rng = RandomStream(seed)
        times = np.concatenate(([0.0], np.cumsum(rng.uniform(n - 1) + 0.05)))
        first = refine_rows(times[None, :1], [[0.0]], times[None, 1:], rng)[0]
        return times, np.concatenate(([0.0], first))

    def test_subset_is_identity_no_randomness(self):
        zt, zv = self._zpath()
        rng = RandomStream(1)
        before = rng._gen.bit_generator.state
        out = refine_rows(zt[None], zv[None], zt[None, [1, 3]], rng)[0]
        assert np.array_equal(out, zv[[1, 3]])
        assert rng._gen.bit_generator.state == before

    def test_single_point_moments(self):
        # marginal of one refined point matches the conditional bridge
        # one row per draw: the same normals, in order, as one call per draw
        n = 100_000
        zt, zv = np.tile([0.0, 1.0, 3.0], (n, 1)), np.tile([0.0, 1.0, -1.0], (n, 1))
        draws = refine_rows(zt, zv, np.full((n, 1), 1.5), RandomStream(31))[:, 0]
        mean_th = (0.5 * (-1.0) + 1.5 * 1.0) / 2.0
        var_th = 0.5 * 1.5 / 2.0
        assert abs(draws.mean() - mean_th) < 4.0 * np.sqrt(var_th / draws.size)
        assert abs(draws.var(ddof=1) - var_th) < 4.0 * var_th * np.sqrt(2.0 / draws.size)

    def test_refinement_preserves_stored_knots(self):
        # stored times requested among new ones come back with their values
        zt, zv = self._zpath(seed=9)
        rng = RandomStream(2)
        new_times = np.concatenate((zt[:-1] + 1e-3, [zt[-1] + 5.0]))
        requested = np.sort(np.concatenate((zt, new_times)))
        out = refine_rows(zt[None], zv[None], requested[None], rng)[0]
        assert np.array_equal(out[np.isin(requested, zt)], zv)

    def test_extension_beyond_last_is_brownian(self):
        n = 50_000
        zt, zv = np.tile([0.0, 1.0], (n, 1)), np.tile([0.0, 2.0], (n, 1))
        draws = refine_rows(zt, zv, np.full((n, 1), 4.0), RandomStream(77))[:, 0]
        assert abs(draws.mean() - 2.0) < 4.0 * np.sqrt(3.0 / draws.size)
        assert abs(draws.var(ddof=1) - 3.0) < 4.0 * 3.0 * np.sqrt(2.0 / draws.size)

    def test_multiple_points_in_one_bracket_joint_law(self):
        # two new points in a single bracket: the pair must have the joint
        # bridge covariance, not independent marginals
        zt, zv = np.array([[0.0, 3.0]]), np.array([[0.0, 0.0]])
        rng = RandomStream(13)
        pair = np.empty((60_000, 2))
        for i in range(pair.shape[0]):
            pair[i] = refine_rows(zt, zv, np.array([[1.0, 2.0]]), rng)[0]
        cov = np.cov(pair.T)
        # bridge on [0,3] pinned at 0: Cov(s,t) = s(3-t)/3
        th = np.array([[1.0 * 2.0 / 3.0, 1.0 * 1.0 / 3.0], [1.0 / 3.0, 2.0 * 1.0 / 3.0]])
        assert np.allclose(cov, th, atol=0.02)

    def test_rejects_negative_times(self):
        zt, zv = self._zpath()
        with pytest.raises(ValidationError):
            refine_rows(zt[None], zv[None], np.array([[-0.5]]), RandomStream(0))


# -- inverse-pair property tests (randomised) --------------------------------

finite_vals = st.floats(-100.0, 100.0)

# Smallest gap, relative to the warped length T, between consecutive knots
# that the property tests generate. Scaling fractions by T rounds, and so
# does the second warp: at T = 21.0 the adjacent doubles 3.0261217800584848
# and 3.026121780058485 share a z-time, and no floating-point map that
# shrinks intervals can keep every pair of adjacent doubles apart. 1e-9 is
# far above rounding and above the round-trip atol of 1e-12 * T, below which
# two knots cannot be told apart by the assertion anyway.
MIN_GAP = 1e-9


def _knot_times(total, fracs):
    """Times 0 < t_1 < ... < total from fractions of the interval.

    A scaled knot closer than ``MIN_GAP * total`` to the previous kept knot
    (0 for the first) or to ``total`` is dropped.
    """
    gap = MIN_GAP * total
    kept = [0.0]
    for t in np.sort(np.asarray(fracs, dtype=float)) * total:
        if t - kept[-1] >= gap and total - t >= gap:
            kept.append(float(t))
    return np.array(kept + [total])


def _assert_round_trip(times, values, total, rtol=1e-12, atol_t=None, atol_v=None):
    """The knots before ``total`` through the second warp and the chord
    centring, then back through s -> T^2 s / (1 + T s) and the uncentring."""
    y0, y1 = float(values[0]), float(values[-1])
    s = TimeGrid(second_warp(times[:-1], total)).times  # merged knots raise
    z = centre_on_chord(values[:-1], times[:-1], total, y0, y1)
    back_t = total * total * s / (1.0 + total * s)
    back_v = uncentre_from_chord(z, back_t, total, y0, y1)
    scale = 1.0 + np.max(np.abs(values))
    atol_t = 1e-12 * total if atol_t is None else atol_t
    atol_v = 1e-12 * scale if atol_v is None else atol_v
    assert np.allclose(back_t, times[:-1], rtol=rtol, atol=atol_t)
    assert np.allclose(back_v, values[:-1], rtol=rtol, atol=atol_v)


@st.composite
def warped_paths(draw):
    n_inner = draw(st.integers(0, 10))
    total = draw(st.floats(0.05, 50.0))
    y0 = draw(finite_vals)
    y1 = draw(finite_vals)
    fracs = draw(
        st.lists(st.floats(1e-4, 0.999), min_size=n_inner, max_size=n_inner,
                 unique=True)
    )
    times = _knot_times(total, fracs)
    inner_v = draw(
        st.lists(finite_vals, min_size=times.size - 2, max_size=times.size - 2)
    )
    return times, np.concatenate(([y0], inner_v, [y1])), total


def _merged_case():
    """Recorded falsifying draw: both fractions scale to 0.0021000000000000003."""
    times = _knot_times(21.0, [1e-4, np.nextafter(1e-4, 1.0)])
    return times, np.linspace(1.0, -2.0, times.size), 21.0


@given(warped_paths())
@example(_merged_case())
@settings(max_examples=250, deadline=None)
def test_second_warp_round_trip_property(case):
    times, vals, total = case
    _assert_round_trip(times, vals, total)


def test_second_warp_merges_adjacent_doubles():
    # Below the generator's gap: the second warp rounds two adjacent doubles
    # onto one z-time, and the z grid rejects the repeat.
    total = 21.0
    a = 3.0261217800584848
    b = np.nextafter(a, total)
    assert b == 3.026121780058485
    assert second_warp(a, total) == second_warp(b, total)
    with pytest.raises(ValidationError):
        _assert_round_trip(np.array([0.0, a, b, total]), np.array([0.0, 1.0, -1.0, 2.0]), total)


def test_second_warp_round_trip_at_min_gap():
    total = 21.0
    a = 3.0261217800584848
    times = np.array([0.0, a, a + MIN_GAP * total, total])
    _assert_round_trip(times, np.array([0.0, 1.0, -1.0, 2.0]), total)


@given(
    st.floats(0.01, 30.0),
    st.lists(st.floats(0.001, 0.999), min_size=1, max_size=12, unique=True),
)
@settings(max_examples=250, deadline=None)
def test_time_warp_scalar_round_trip_property(total, fracs):
    t = np.sort(np.array(fracs)) * total
    s = second_warp(t, total)
    assert np.allclose(total * total * s / (1.0 + total * s), t, rtol=1e-12, atol=1e-14)


# -- refine_rows against the O(m^2) reference ----------------------------------


@st.composite
def refine_cases(draw):
    """Sorted rows of stored and new times on a grid of eighths, scaled.

    Stored knots sit on quarters, so new times often hit one exactly, fall
    several to a bracket, repeat, or lie past the last stored knot.
    """
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 6))
    j = draw(st.integers(0, 12))
    steps = draw(st.lists(st.integers(1, 4), min_size=n * k, max_size=n * k))
    steps = np.reshape(steps, (n, k))
    stored = (np.cumsum(steps, axis=1) - steps[:, :1]) * 2  # from 0, in eighths
    new = np.sort(np.reshape(
        draw(st.lists(st.integers(0, 8 * k + 4), min_size=n * j, max_size=n * j)), (n, j)
    ), axis=1)
    scale = draw(st.floats(1e-3, 1e3))
    values = draw(st.lists(finite_vals, min_size=n * k, max_size=n * k))
    S, Tn = stored * 0.125 * scale, new * 0.125 * scale
    V = np.reshape(values, (n, k))
    return S, V, Tn


@given(refine_cases(), st.integers(0, 2**32 - 1))
@example(  # four new times in one bracket, the first after an exact hit
    (np.array([[0.0, 1.0, 3.0]]), np.array([[0.0, 2.0, -1.0]]),
     np.array([[1.0, 1.25, 1.5, 1.5, 2.75, 3.0, 4.0, 5.0]])), 3)
@example(  # a hit between pending times, several rows
    (np.array([[0.0, 2.0], [0.0, 1.0]]), np.array([[0.0, 1.0], [0.0, -1.0]]),
     np.array([[0.5, 2.0, 2.5], [0.25, 0.5, 1.0]])), 4)
@example(  # every row: ranks 0-2 inside a bracket and ranks 0-2 past the last knot
    (np.array([[0.0, 1.0, 2.0], [0.0, 2.0, 4.0], [0.0, 0.5, 1.5]]),
     np.array([[0.0, 1.0, -1.0], [0.0, -2.0, 3.0], [0.5, 0.25, -0.75]]),
     np.array([[0.25, 0.5, 0.75, 2.5, 3.0, 3.5, 3.5],
               [2.0, 2.5, 3.0, 3.5, 5.0, 6.0, 7.0],
               [0.5, 0.75, 1.0, 1.25, 1.75, 2.0, 2.25]])), 5)
@example(  # a new time repeated at rank 1 and 2 in a bracket, and at rank 1 past it
    (np.array([[0.0, 2.0]]), np.array([[0.0, 1.0]]),
     np.array([[0.5, 1.0, 1.0, 1.0, 1.5, 3.0, 3.0, 3.25]])), 6)
@settings(max_examples=300, deadline=None)
def test_refine_rows_matches_reference(case, seed):
    S, V, Tn = case
    ours, theirs = RandomStream(seed), RandomStream(seed)
    got = refine_rows(S, V, Tn, ours)
    want = refine_rows_reference(S, V, Tn, theirs)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert ours._gen.bit_generator.state == theirs._gen.bit_generator.state


@pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf, -np.inf])
def test_refine_rows_rejects_early_or_nonfinite_times(bad):
    S = np.array([[0.0, 1.0, 2.0]])
    V = np.array([[0.0, 1.0, -1.0]])
    for Tn in (np.array([[bad]]), np.sort(np.array([[0.5, bad]]), axis=1)):
        with pytest.raises(ValidationError):
            refine_rows(S, V, Tn, RandomStream(0))
