import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from timechange_sv.errors import ValidationError
from timechange_sv.paths import (
    Path,
    RandomStream,
    TimeGrid,
    integrate_left_riemann,
    quadratic_variation,
    sample_brownian_motion,
)
from timechange_sv.timechange import sample_bridge_point


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


class TestBrownianMotion:
    def test_degenerate_single_point(self):
        p = sample_brownian_motion(TimeGrid(np.array([0.0])), 0.0, RandomStream(1))
        assert p.values.tolist() == [0.0]

    def test_start_anchoring(self):
        for seed in range(20):
            p = sample_brownian_motion(
                TimeGrid(np.array([0.0, 1.0])), 5.0, RandomStream(seed)
            )
            assert p.values[0] == 5.0

    def test_increment_variance(self):
        # 1e5 replications on the grid {0,1,2}: unit-variance increments
        rng = RandomStream(2024)
        grid = TimeGrid(np.array([0.0, 1.0, 2.0]))
        incs = np.empty((100_000, 2))
        for i in range(incs.shape[0]):
            p = sample_brownian_motion(grid, 0.0, rng)
            incs[i] = np.diff(p.values)
        var = incs.var(axis=0, ddof=1)
        se = np.sqrt(2.0 / incs.shape[0])  # var of sample variance of N(0,1)
        assert np.all(np.abs(var - 1.0) < 3.0 * se)

    def test_reproducible(self):
        grid = TimeGrid(np.linspace(0.0, 3.0, 50))
        a = sample_brownian_motion(grid, 1.0, RandomStream(7, 3))
        b = sample_brownian_motion(grid, 1.0, RandomStream(7, 3))
        assert np.array_equal(a.values, b.values)

    def test_distinct_streams_differ(self):
        grid = TimeGrid(np.linspace(0.0, 1.0, 10))
        a = sample_brownian_motion(grid, 0.0, RandomStream(7, 0))
        b = sample_brownian_motion(grid, 0.0, RandomStream(7, 1))
        assert not np.array_equal(a.values, b.values)

    def test_refined_then_restricted_matches_coarse(self):
        # endpoint of a refined-grid path vs direct coarse sampling
        n = 10_000
        fine = TimeGrid(np.linspace(0.0, 1.0, 101))
        coarse = TimeGrid(np.array([0.0, 1.0]))
        rng = RandomStream(99)
        ends_fine = np.array(
            [sample_brownian_motion(fine, 0.0, rng).values[-1] for _ in range(n)]
        )
        ends_coarse = np.array(
            [sample_brownian_motion(coarse, 0.0, rng).values[-1] for _ in range(n)]
        )
        assert stats.ks_2samp(ends_fine, ends_coarse).pvalue > 0.01


class ConstantNormals:
    """Random stream whose every standard normal draw is ``c``."""

    def __init__(self, c):
        self.c = c

    def normal(self, size=None):
        return np.full(size, self.c)


class TestBridgePoint:
    def test_centered_moments(self):
        rng = RandomStream(11)
        draws = np.array(
            [sample_bridge_point(0.0, 0.0, 1.0, 0.0, 0.5, rng) for _ in range(100_000)]
        )
        assert abs(draws.mean()) < 4.0 * 0.5 / np.sqrt(draws.size)
        assert abs(draws.var(ddof=1) - 0.25) < 4.0 * 0.25 * np.sqrt(2.0 / draws.size)

    def test_constant_endpoint_mean_exact(self):
        assert sample_bridge_point(0.0, 3.0, 2.0, 3.0, 1.3, ConstantNormals(0.0)) == 3.0

    def test_closed_form_moments(self):
        # a draw is mean + c * sd when every normal is c: mean 2, variance 0.75
        at_mean = sample_bridge_point(0.0, 1.0, 4.0, 5.0, 1.0, ConstantNormals(0.0))
        one_sd = sample_bridge_point(0.0, 1.0, 4.0, 5.0, 1.0, ConstantNormals(1.0))
        assert at_mean == pytest.approx(2.0, abs=1e-15)
        assert (one_sd - at_mean) ** 2 == pytest.approx(0.75, abs=1e-15)

    def test_degenerate_times_return_endpoints(self):
        rng = RandomStream(0)
        before = rng._gen.bit_generator.state
        assert sample_bridge_point(1.0, 2.5, 3.0, 4.0, 1.0, rng) == 2.5
        assert sample_bridge_point(1.0, 2.5, 3.0, 4.0, 3.0, rng) == 4.0
        assert rng._gen.bit_generator.state == before  # no randomness consumed

    def test_conflicting_degenerate_bracket(self):
        with pytest.raises(ValidationError):
            sample_bridge_point(1.0, 0.0, 1.0, 2.0, 1.0, RandomStream(0))

    def test_time_outside_bracket(self):
        with pytest.raises(ValidationError):
            sample_bridge_point(0.0, 0.0, 1.0, 1.0, 2.0, RandomStream(0))


class TestQuadraticVariation:
    def test_constant_path(self):
        p = Path.from_arrays([0.0, 1.0, 2.0], [3.0, 3.0, 3.0])
        assert quadratic_variation(p) == 0.0

    def test_hand_sum(self):
        p = Path.from_arrays([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.0, 1.0])
        assert quadratic_variation(p) == 3.0

    def test_matches_integrated_squared_vol(self):
        # driftless path with vol 0.4 over [0, 10] at step 1e-4
        rng = RandomStream(5)
        grid = TimeGrid(np.linspace(0.0, 10.0, 100_001))
        bm = sample_brownian_motion(grid, 0.0, rng)
        p = Path(grid, 0.4 * bm.values)
        assert quadratic_variation(p) == pytest.approx(0.4**2 * 10.0, rel=0.05)

    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=30),
        st.floats(-100, 100),
    )
    @settings(max_examples=200, deadline=None)
    def test_invariant_under_reversal_and_shift(self, values, shift):
        times = np.arange(len(values), dtype=float)
        p = Path.from_arrays(times, values)
        rev = Path.from_arrays(times, values[::-1])
        shifted = Path.from_arrays(times, np.array(values) + shift)
        qv = quadratic_variation(p)
        assert quadratic_variation(rev) == pytest.approx(qv, rel=1e-12, abs=1e-12)
        assert quadratic_variation(shifted) == pytest.approx(qv, rel=1e-9, abs=1e-9)


class TestLeftRiemann:
    def test_constant_integrand(self):
        grid = TimeGrid(np.array([0.0, 0.5, 2.0]))
        assert integrate_left_riemann(grid, np.ones(3)) == 2.0

    def test_linear_integrand_hand_value(self):
        grid = TimeGrid(np.array([0.0, 1.0, 2.0]))
        assert integrate_left_riemann(grid, grid.times) == 1.0

    def test_refinement_converges(self):
        # integral of t^2 over [0, 3] = 9
        errs = []
        for n in (10, 100, 1000):
            grid = TimeGrid(np.linspace(0.0, 3.0, n + 1))
            val = integrate_left_riemann(grid, grid.times**2)
            errs.append(abs(val - 9.0))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.02
