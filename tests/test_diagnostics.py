import functools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, signal, stats

from timechange_sv import diagnostics, mcmc
from timechange_sv.diagnostics import acf, iact, kde_export, prior_recovery_test, summarize
from timechange_sv.errors import ValidationError
from timechange_sv.mcmc import PriorSpec, SamplerConfig, Trace, run_chain, sweep
from timechange_sv.models import get_model
from timechange_sv.paths import RandomStream

from _support import set_cpus

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

    @pytest.mark.parametrize("x", [
        np.resize([1e308, -1e308], 300),  # the mean overflows
        np.resize([1e154, -1e154], 300),  # the sum of squares overflows
        np.resize([4e151, -4e151], 1000),  # the sum of squares is finite, the transform is not
    ], ids=["mean", "sum-of-squares", "transform"])
    def test_overflowing_series_rejected(self, x):
        # finite values used to give nan autocorrelations after RuntimeWarnings
        with pytest.raises(ValidationError, match="autocorrelations are not finite"):
            acf(x, 10)


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

    @pytest.mark.parametrize("x", [
        np.resize([1e308, -1e308], 300),  # the mean overflows
        np.resize([1e200, -1e200], 300),  # the variance overflows
        np.resize([5e-324, 0.0], 100),  # the bandwidth underflows to zero
    ], ids=["mean", "variance", "zero-bandwidth"])
    def test_non_finite_density_rejected(self, x):
        with pytest.raises(ValidationError, match="density estimate is not finite"):
            kde_export(x)


def repeated_normals(seed, n_runs=120, longest=8):
    """Normal draws, each repeated 1 to ``longest`` times, as a Metropolis
    chain repeats its last draw at each rejection."""
    rng = RandomStream(seed)
    lengths = 1 + (longest * rng.uniform(n_runs)).astype(int)
    return np.repeat(rng.normal(n_runs), lengths)


@functools.cache
def chain_draws() -> np.ndarray:
    """The (300, 2) draws of theta and sigma of a short const-vol-scalar chain."""
    data = type("D", (), {"times": np.arange(21.0),
                          "values": np.cumsum(RandomStream(5).normal(21))})()
    config = SamplerConfig(m=2, n_iter=350, n_burn=50, seed=3)
    draws = run_chain(config, data, get_model("const-vol-scalar")).draws
    draws.setflags(write=False)  # one array for every test that asks
    return draws


RUN_SERIES = {
    "repeat-1": lambda: repeated_normals(1),
    "repeat-2": lambda: 3e-3 * repeated_normals(2, n_runs=40, longest=30) ** 2,
    "chain-theta": lambda: chain_draws()[:, 0],
    "chain-sigma": lambda: chain_draws()[:, 1],
}


class TestKdeOfRuns:
    """``kde_export`` sums one kernel per run of equal consecutive draws,
    weighted by its length: the density of one kernel per draw."""

    @pytest.mark.parametrize("name", RUN_SERIES)
    def test_matches_scipy_silverman(self, name):
        x = RUN_SERIES[name]()
        runs = 1 + np.count_nonzero(x[1:] != x[:-1])
        assert runs < 0.7 * x.size  # the series has runs to collapse
        grid = kde_export(x)
        kde = stats.gaussian_kde(x, bw_method="silverman")
        bw = np.sqrt(kde.covariance[0, 0])
        expected = np.linspace(x.min() - 5.0 * bw, x.max() + 5.0 * bw, 256)
        assert np.allclose(grid[:, 0], expected, rtol=0.0, atol=1e-12 * np.abs(expected).max())
        assert np.allclose(grid[:, 1], kde(grid[:, 0]), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("name", RUN_SERIES)
    def test_matches_one_kernel_per_draw(self, name):
        x = RUN_SERIES[name]()
        grid = kde_export(x)
        bw = np.std(x, ddof=1) * (0.75 * x.size) ** -0.2
        kernels = np.exp(-0.5 * (grid[:, :1] / bw - x / bw) ** 2)
        expected = kernels.sum(axis=1) / (x.size * bw * math.sqrt(2.0 * math.pi))
        assert np.allclose(grid[:, 1], expected, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("name", RUN_SERIES)
    def test_integrates_to_one(self, name):
        # one kernel per run without its length would integrate to runs/draws
        grid = kde_export(RUN_SERIES[name]())
        assert integrate.trapezoid(grid[:, 1], grid[:, 0]) == pytest.approx(1.0, abs=1e-3)


def iact_oracle(rho) -> float:
    """``iact`` from the autocorrelations, as the loop over the pairs that
    it was before it summed them with one ``cumsum``."""
    n_pairs = rho.size // 2
    pair = rho[: 2 * n_pairs].reshape(n_pairs, 2).sum(axis=1)
    total = 0.0
    for g in pair:
        if g <= 0.0:
            break
        total += g
    return float(2.0 * total - 1.0)


class TestIactSum:
    @pytest.mark.parametrize("column", [0, 1], ids=["theta", "sigma"])
    def test_chain_column_bit_for_bit(self, column):
        x = chain_draws()[:, column]
        assert iact(x) == iact_oracle(acf(x, x.size - 1))

    @pytest.mark.parametrize("rho", [
        # a biased sample acf always has rho(0) + rho(1) > 0, so these are
        # handed to iact in place of acf's
        np.r_[1.0, -1.0, 0.5 * RandomStream(6).uniform(198)],
        np.r_[1.0, -1.5, 0.5 * RandomStream(6).uniform(198)],
        # every pair positive, of many magnitudes: a pairwise sum would
        # differ in the last bits
        np.r_[1.0, RandomStream(7).uniform(999) * np.logspace(0, -12, 999)],
        # an odd count: the last lag has no pair
        0.97 ** np.arange(301),
    ], ids=["first-pair-zero", "first-pair-negative", "all-positive", "odd-length"])
    def test_pairs_bit_for_bit(self, monkeypatch, rho):
        monkeypatch.setattr(diagnostics, "acf", lambda x, max_lag: rho)
        tau = iact(np.zeros(rho.size))
        assert tau == iact_oracle(rho)
        if rho[1] <= -1.0:
            assert tau == -1.0


@pytest.mark.parametrize("call,message", [
    (lambda x: acf(x, -3), "max_lag must be a non-negative integer, got -3"),
    (lambda x: acf(x, 2.5), "max_lag must be a non-negative integer, got 2.5"),
    (lambda x: acf(x, True), "max_lag must be a non-negative integer, got True"),
    (lambda x: acf(x.reshape(20, 10), 3), "series must be one-dimensional, got shape (20, 10)"),
    (lambda x: acf(x[0], 0), "series must be one-dimensional, got shape ()"),
    (lambda x: iact(x.reshape(20, 10)), "series must be one-dimensional, got shape (20, 10)"),
    (lambda x: kde_export(x.reshape(2, 100)), "series must be one-dimensional, got shape (2, 100)"),
    (lambda x: kde_export(x, 8.5), "grid_points must be an integer, got 8.5"),
    (lambda x: kde_export(x, "256"), "grid_points must be an integer, got '256'"),
    (lambda x: kde_export(x[:0]), "density estimate needs at least two distinct values"),
], ids=["acf-negative-lag", "acf-fractional-lag", "acf-bool-lag", "acf-2d", "acf-0d", "iact-2d",
        "kde-2d", "kde-fractional-points", "kde-string-points", "kde-empty"])
def test_bad_arguments_rejected(call, message):
    # acf(x, -3) returned 510 values; the others raised a raw ValueError,
    # TypeError or IndexError
    with pytest.raises(ValidationError, match=re.escape(message)):
        call(ar1(200))


def test_summarize_matches_numpy():
    draws = RandomStream(8).normal((500, 2)) * [1.0, 3.0] + [0.0, 5.0]
    trace = Trace(
        param_names=("a", "b"), draws=draws, logliks=np.zeros(500),
        iters=np.arange(500), acceptance={},
    )
    table = summarize(trace)
    assert list(table) == ["a", "b"]
    for j, name in enumerate(("a", "b")):
        col = draws[:, j]
        expected = (np.mean(col), np.std(col, ddof=1), *np.percentile(col, [2.5, 50.0, 97.5]))
        assert table[name] == pytest.approx(expected, rel=1e-12)


class TestPriorRecovery:
    """The joint-distribution harness on const-vol-scalar passes the real
    sweep, catches a sweep that does not preserve the posterior, and rejects
    what ``run_chain`` rejects."""

    MODEL = get_model("const-vol-scalar")
    PRIOR = PriorSpec.from_model(MODEL, {"theta": (-1, 1), "sigma": (0.3, 2)})
    CONFIG = SamplerConfig(m=3, n_iter=30, n_burn=0, seed=1,
                           rw_scales={"theta": 0.5, "sigma": 0.5})
    SCALE = {"x0": 0.0, "spacing": 1.0}

    def test_sweep_recovers_the_prior(self):
        p = prior_recovery_test(self.MODEL, self.PRIOR, self.CONFIG, 300, **self.SCALE)
        assert min(p.values()) > 0.01, p

    def test_broken_transition_is_caught(self, monkeypatch):
        def inflate_sigma(state, rng, scales, block_len):
            # a sweep, then a deterministic push of sigma up, capped in the box
            moves = sweep(state, rng, scales, block_len)
            sigma = min(1.05 * state.params["sigma"], 1.999)
            state.params = {**state.params, "sigma": sigma}
            state.cache = state.quantities(state.warps())
            return moves

        monkeypatch.setattr(mcmc, "sweep", inflate_sigma)
        p = prior_recovery_test(self.MODEL, self.PRIOR, replace(self.CONFIG, n_iter=10, seed=2),
                                100, **self.SCALE)
        assert p["sigma"] < 1e-3, p

    def test_p_values_do_not_depend_on_the_cpu_count(self, monkeypatch):
        # replication k draws from stream k, wherever it runs
        p = {}
        for n_cpu in (1, 2):
            set_cpus(monkeypatch, n_cpu)
            p[n_cpu] = prior_recovery_test(self.MODEL, self.PRIOR,
                                           replace(self.CONFIG, n_iter=5, seed=3), 40,
                                           **self.SCALE)
        assert p[1] == p[2]
        # the Euler skeleton, the state built on it and one stream per
        # replication: a change of the gate's random numbers changes these
        assert p[1] == pytest.approx({"theta": 0.5186395615854529, "sigma": 0.5948264872283433},
                                     rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("kwargs,replications,message", [
        ({"rw_scales": {"theta": 0.5, "sigmaa": 0.5}}, 2, "rw_scales names no free parameter"),
        ({"fixed": ("theta", "sigma")}, 2, "nothing to draw"),
        ({"n_burn": 1}, 2, "without burn-in"),
        # an IndexError from the KS step at 0 replications
        ({}, 0, "needs a replication, got replications=0"),
        ({}, -3, "needs a replication, got replications=-3"),
        # True ran one replication, and 2.5 ended in a TypeError from run_jobs
        ({}, True, "needs a replication, got replications=True"),
        ({}, 2.5, "needs a replication, got replications=2.5"),
    ], ids=["rw-scales", "all-fixed", "burn-in", "no-replications", "negative-replications",
            "bool-replications", "float-replications"])
    def test_rejects_what_the_chain_rejects(self, kwargs, replications, message):
        with pytest.raises(ValidationError, match=message):
            prior_recovery_test(self.MODEL, self.PRIOR, replace(self.CONFIG, n_iter=2, **kwargs),
                                replications, **self.SCALE)

    def test_improper_prior_rejected(self):
        prior = PriorSpec.from_model(self.MODEL, {"theta": (-1, 1)})
        with pytest.raises(ValidationError, match="sigma"):
            prior.sample(RandomStream(0), ["theta", "sigma"])
        assert set(prior.sample(RandomStream(0), ["theta"])) == {"theta"}


@pytest.mark.parametrize("name", ["tbill-logsv", "ou-sv-leverage"])
class TestPriorRecoveryLatent:
    """The harness on both latent models, each at the scale of its data:
    every kernel, the latent blocks among them, passes, and a sampler whose
    time-scale and latent-block moves leave the latent term out of their
    ratio fails. The k parameters' p-values are tested at once, so each is
    held to 0.01 / k."""

    # the prior boxes of the benchmark's workloads, the start value and the
    # observation spacing: weekly T-bill rates, and ou-sv-leverage at unit
    # spacing (at weekly spacing the sampler without the latent term read
    # p = 0.025 at seed 9, a pass)
    CASES = {
        "tbill-logsv": ({
            "theta0": (0.0, 0.5), "theta1": (-0.1, 0.2), "kappa": (0.5, 10.0),
            "mu": (-6.0, -2.0), "sigma": (1.0, 5.0), "alpha0": (-7.0, -1.0),
        }, math.log(10.0), 5.0 / 252.0),
        "ou-sv-leverage": ({
            "kappa_x": (0.02, 2.0), "mu_x": (-2.0, 2.0), "kappa_alpha": (0.03, 3.0),
            "mu_alpha": (-2.0, 1.5), "sigma": (0.1, 1.5), "rho": (-0.95, 0.95),
            "alpha0": (-2.0, 1.5),
        }, 0.0, 1.0),
    }
    CONFIG = SamplerConfig(m=3, n_iter=30, n_burn=0, seed=7, block_len=2)

    def p_values(self, name, config=CONFIG, replications=300):
        box, x0, spacing = self.CASES[name]
        model = get_model(name)
        return prior_recovery_test(model, PriorSpec.from_model(model, box), config,
                                   replications, x0=x0, spacing=spacing)

    # 20 replications of 5 sweeps: the Euler skeleton on the knots, the state
    # built on it and one stream per replication; a change of the gate's
    # random numbers changes these
    PINNED = {
        "tbill-logsv": {
            "theta0": 0.8192472867399847, "theta1": 0.7636817056514609,
            "kappa": 0.6295807092481163, "mu": 0.6574788111724883,
            "sigma": 0.6826844595633033, "alpha0": 0.892911365801993,
        },
        "ou-sv-leverage": {
            "kappa_x": 0.037518729195435196, "mu_x": 0.14736110384964207,
            "kappa_alpha": 0.39410307937262723, "mu_alpha": 0.5576577754103423,
            "sigma": 0.7719330171580365, "rho": 0.7258517011627332, "alpha0": 0.5505216988232176,
        },
    }

    def test_sweep_recovers_the_prior(self, name):
        p = self.p_values(name)
        assert min(p.values()) > 0.01 / len(p), p

    def test_p_values_pinned(self, name):
        p = self.p_values(name, replace(self.CONFIG, n_iter=5), 20)
        assert p == pytest.approx(self.PINNED[name], rel=1e-9, abs=0.0)

    def test_ratio_without_the_latent_term_is_caught(self, monkeypatch, name):
        metropolis = mcmc._metropolis

        def without_log_gamma(state, rng, new, rows=slice(None), group=None, log_jac=0.0,
                              **kwargs):
            if "z_times" not in new:  # the path and drift moves keep their ratio
                return metropolis(state, rng, new, rows, group, log_jac, **kwargs)
            log_gamma = new.pop("log_gamma")
            acc = metropolis(state, rng, new, rows, group, log_jac, **kwargs)
            # the latent term is still computed and written with the move
            keep = np.repeat(acc, group or log_gamma.size)
            state.cache.log_gamma[np.arange(state.n_intervals)[rows][keep]] = log_gamma[keep]
            return acc

        monkeypatch.setattr(mcmc, "_metropolis", without_log_gamma)
        p = self.p_values(name)
        assert min(p.values()) < 0.01 / len(p), p
