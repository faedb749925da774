import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from timechange_sv.errors import ValidationError
from timechange_sv.paths import Path, RandomStream, TimeGrid, cumulative_left_riemann
from timechange_sv.timechange import refine_rows


def brownian(times, start, rng, rows=1):
    """``rows`` Brownian paths on ``times`` from ``start``, one per row:
    every later time is past the one stored knot, so ``refine_rows`` draws
    it as an increment."""
    t = np.tile(np.asarray(times, dtype=float), (rows, 1))
    first = np.full((rows, 1), float(start))
    return np.hstack((first, refine_rows(t[:, :1], first, t[:, 1:], rng)))


def bridge_draws(times, values, t_b, rng, rows=1):
    """``rows`` draws at ``t_b`` of a Brownian path pinned at ``values`` at
    the two ``times``, one per row of a ``refine_rows`` batch."""
    return refine_rows(np.tile(times, (rows, 1)), np.tile(values, (rows, 1)),
                       np.full((rows, 1), t_b), rng)[:, 0]


class TestTimeGrid:
    def test_rejects_unsorted(self):
        with pytest.raises(ValidationError):
            TimeGrid(np.array([0.0, 2.0, 1.0]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            TimeGrid(np.array([0.0, np.inf]))

    def test_single_point_allowed(self):
        assert len(TimeGrid(np.array([0.0]))) == 1

    def test_path_length_mismatch(self):
        with pytest.raises(ValidationError):
            Path(TimeGrid(np.array([0.0, 1.0])), np.array([1.0]))


@pytest.mark.parametrize("seed,stream", [(-1, 0), (0, -2)])
def test_random_stream_rejects_negative_ids(seed, stream):
    with pytest.raises(ValidationError, match="non-negative"):
        RandomStream(seed, stream)


@pytest.mark.parametrize("seed,stream", [(2.7, 0), (0, 1.5), (True, 0), (0, False)],
                         ids=["float-seed", "float-stream", "bool-seed", "bool-stream"])
def test_random_stream_rejects_non_integer_ids(seed, stream):
    # int() would have drawn from seed 2 for 2.7
    with pytest.raises(ValidationError, match="must be non-negative integers"):
        RandomStream(seed, stream)


def test_random_stream_takes_numpy_integers():
    assert RandomStream(np.int64(2), np.uint8(1)).normal() == RandomStream(2, 1).normal()


class TestBrownianMotion:
    def test_degenerate_single_point(self):
        assert brownian([0.0], 0.0, RandomStream(1)).tolist() == [[0.0]]

    def test_start_anchoring(self):
        for seed in range(20):
            assert brownian([0.0, 1.0], 5.0, RandomStream(seed))[0, 0] == 5.0

    def test_increment_variance(self):
        # 1e5 replications on the grid {0,1,2}: unit-variance increments
        rng = RandomStream(2024)
        incs = np.diff(brownian([0.0, 1.0, 2.0], 0.0, rng, rows=100_000), axis=1)
        var = incs.var(axis=0, ddof=1)
        se = np.sqrt(2.0 / incs.shape[0])  # var of sample variance of N(0,1)
        assert np.all(np.abs(var - 1.0) < 3.0 * se)

    def test_reproducible(self):
        times = np.linspace(0.0, 3.0, 50)
        a = brownian(times, 1.0, RandomStream(7, 3))
        b = brownian(times, 1.0, RandomStream(7, 3))
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        times = np.linspace(0.0, 1.0, 10)
        a = brownian(times, 0.0, RandomStream(7, 0))
        b = brownian(times, 0.0, RandomStream(7, 1))
        assert not np.array_equal(a, b)

    def test_refined_then_restricted_matches_coarse(self):
        # endpoint of a refined-grid path vs direct coarse sampling
        n = 10_000
        rng = RandomStream(99)
        ends_fine = brownian(np.linspace(0.0, 1.0, 101), 0.0, rng, rows=n)[:, -1]
        ends_coarse = brownian([0.0, 1.0], 0.0, rng, rows=n)[:, -1]
        assert stats.ks_2samp(ends_fine, ends_coarse).pvalue > 0.01


class ConstantNormals:
    """Random stream whose every standard normal draw is ``c``."""

    def __init__(self, c):
        self.c = c

    def normal(self, size=None):
        return np.full(size, self.c)


class TestBridgePoint:
    def test_centered_moments(self):
        draws = bridge_draws([0.0, 1.0], [0.0, 0.0], 0.5, RandomStream(11), rows=100_000)
        assert abs(draws.mean()) < 4.0 * 0.5 / np.sqrt(draws.size)
        assert abs(draws.var(ddof=1) - 0.25) < 4.0 * 0.25 * np.sqrt(2.0 / draws.size)

    def test_constant_endpoint_mean_exact(self):
        assert bridge_draws([0.0, 2.0], [3.0, 3.0], 1.3, ConstantNormals(0.0))[0] == 3.0

    def test_closed_form_moments(self):
        # a draw is mean + c * sd when every normal is c: mean 2, variance 0.75
        at_mean = bridge_draws([0.0, 4.0], [1.0, 5.0], 1.0, ConstantNormals(0.0))[0]
        one_sd = bridge_draws([0.0, 4.0], [1.0, 5.0], 1.0, ConstantNormals(1.0))[0]
        assert at_mean == pytest.approx(2.0, abs=1e-15)
        assert (one_sd - at_mean) ** 2 == pytest.approx(0.75, abs=1e-15)

    def test_degenerate_times_return_endpoints(self):
        rng = RandomStream(0)
        before = rng._gen.bit_generator.state
        assert bridge_draws([1.0, 3.0], [2.5, 4.0], 1.0, rng)[0] == 2.5
        assert bridge_draws([1.0, 3.0], [2.5, 4.0], 3.0, rng)[0] == 4.0
        assert rng._gen.bit_generator.state == before  # no randomness consumed


class TestQuadraticVariation:
    """Sum of squared increments, written out in each test."""

    def test_constant_path(self):
        assert np.sum(np.diff([3.0, 3.0, 3.0]) ** 2) == 0.0

    def test_hand_sum(self):
        assert np.sum(np.diff([0.0, 1.0, 0.0, 1.0]) ** 2) == 3.0

    def test_matches_integrated_squared_vol(self):
        # driftless path with vol 0.4 over [0, 10] at step 1e-4
        rng = RandomStream(5)
        p = 0.4 * brownian(np.linspace(0.0, 10.0, 100_001), 0.0, rng)[0]
        assert np.sum(np.diff(p) ** 2) == pytest.approx(0.4**2 * 10.0, rel=0.05)

    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=30),
        st.floats(-100, 100),
    )
    @settings(max_examples=200, deadline=None)
    def test_invariant_under_reversal_and_shift(self, values, shift):
        def qv(v):
            return np.sum(np.diff(v) ** 2)

        values = np.array(values)
        assert qv(values[::-1]) == pytest.approx(qv(values), rel=1e-12, abs=1e-12)
        assert qv(values + shift) == pytest.approx(qv(values), rel=1e-9, abs=1e-9)


class TestLeftRiemann:
    """The left-point integral of ``cumulative_left_riemann`` at the last knot."""

    def test_constant_integrand(self):
        t = np.array([0.0, 0.5, 2.0])
        assert cumulative_left_riemann(np.diff(t), np.ones(3))[-1] == 2.0

    def test_linear_integrand_hand_value(self):
        t = np.array([0.0, 1.0, 2.0])
        assert cumulative_left_riemann(np.diff(t), t)[-1] == 1.0

    def test_refinement_converges(self):
        # integral of t^2 over [0, 3] = 9
        errs = []
        for n in (10, 100, 1000):
            t = np.linspace(0.0, 3.0, n + 1)
            errs.append(abs(cumulative_left_riemann(np.diff(t), t**2)[-1] - 9.0))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.02
