"""Annealed importance sampling and the elliptical slice kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy.special import log_ndtr, ndtr

import helpers
from probitgp import ais
from probitgp import (
    AisConfig,
    AisEstimate,
    GridSpec,
    Hyperparams,
    Sites,
    ais_lml,
    assemble,
    e_step,
    ess_step,
    gram,
    temperature,
)
from probitgp.cvi import STEP_SIZE

LOG_HALF = -0.69314718055994531


class TestSchedule:
    def test_endpoints_and_monotonicity(self):
        steps = 50
        taus = [temperature(t, steps) for t in range(steps + 1)]
        assert taus[0] == 0.0
        assert taus[-1] == 1.0
        assert all(b > a for a, b in zip(taus, taus[1:]))

    def test_quartic_shape(self):
        assert temperature(1, 10) == pytest.approx(1e-4, rel=1e-12)
        assert temperature(5, 10) == pytest.approx(0.5 ** 4, rel=1e-12)

    def test_range_check(self):
        with pytest.raises(ValueError):
            temperature(-1, 10)
        with pytest.raises(ValueError):
            temperature(11, 10)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AisConfig(steps=0)
        with pytest.raises(ValueError):
            AisConfig(repeats=0)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            AisConfig(seed=-1)


@pytest.fixture
def log_ndtr_calls(monkeypatch):
    """Record np.ndim of every argument ais passes to its log_ndtr binding:
    0 for the screen's scalar, 1 for a full evaluation."""
    calls = []

    def counted(x, *args):
        calls.append(np.ndim(x))
        return log_ndtr(x, *args)

    monkeypatch.setattr(ais, "log_ndtr", counted)
    return calls


def probit_loglik(g):
    return float(np.sum(log_ndtr(g)))


class TestSliceKernel:
    """ess_step's target is exp(tau * sum_i log Phi(g_i)) N(0, L L^T); a
    target in f with labels y runs in g = y * f with prior factor diag(y) L."""

    def test_constant_loglik_accepts_first_proposal(self, log_ndtr_calls):
        """A flat target (tau = 0) can never reject, so exactly one full
        evaluation happens."""
        rng = np.random.default_rng(0)
        L = np.linalg.cholesky(helpers.random_spd(3, rng))
        g = L @ rng.standard_normal(3)
        ess_step(g, L, rng, cur_loglik=probit_loglik(g), tau=0.0)
        assert log_ndtr_calls.count(1) == 1

    def test_flat_target_preserves_prior_exactly(self):
        """One transition of a flat target maps N(0,K) to N(0,K); MC check."""
        rng = np.random.default_rng(1)
        K = np.array([[1.0, 0.6], [0.6, 2.0]])
        L = np.linalg.cholesky(K)
        m = 20000
        out = np.empty((m, 2))
        for i in range(m):
            g = L @ rng.standard_normal(2)
            out[i], _ = ess_step(g, L, rng, cur_loglik=probit_loglik(g), tau=0.0)
        se_mean = np.sqrt(np.diag(K) / m)
        assert np.all(np.abs(out.mean(axis=0)) < 4 * se_mean)
        emp_cov = np.cov(out.T)
        assert_allclose(emp_cov, K, atol=4 * np.sqrt(2.0 / m) * K.max())

    def test_chain_matches_quadrature_cdf(self):
        """Long 1-d chain against the exact posterior CDF, sup gap < 0.02."""
        k, y = 1.5, 1.0
        L = np.array([[y * np.sqrt(k)]])
        rng = np.random.default_rng(2)

        grid = np.linspace(-7.0, 7.0, 14001)
        dens = np.exp(-0.5 * grid * grid / k) * ndtr(y * grid)
        cdf = np.cumsum(dens)
        cdf /= cdf[-1]

        g = np.array([0.0])
        cur = probit_loglik(g)
        burn, keep = 2000, 30000
        samples = np.empty(keep)
        for i in range(burn + keep):
            g, cur = ess_step(g, L, rng, cur_loglik=cur, tau=1.0)
            if i >= burn:
                samples[i - burn] = y * g[0]
        samples.sort()
        ecdf = (np.arange(keep) + 0.5) / keep
        gap = np.max(np.abs(ecdf - np.interp(samples, grid, cdf)))
        assert gap < 0.02

    def test_zero_temperature_accepts_first_proposal(self, log_ndtr_calls):
        """At tau=0 the target is the prior, so the first proposal is taken."""
        rng = np.random.default_rng(5)
        L = np.linalg.cholesky(helpers.random_spd(4, rng))
        y = np.array([1.0, -1.0, 1.0, 1.0])
        L_g = 20.0 * y[:, None] * L  # log_ndtr(20 y f), run in g = 20 y f

        g = L_g @ rng.standard_normal(4)
        cur = probit_loglik(g)
        for _ in range(200):
            log_ndtr_calls.clear()
            g, cur = ess_step(g, L_g, rng, cur_loglik=cur, tau=0.0)
            assert log_ndtr_calls.count(1) == 1

    def test_returned_loglik_is_untempered_value_at_state(self):
        rng = np.random.default_rng(6)
        L = np.linalg.cholesky(helpers.random_spd(5, rng, scale=30.0))
        y = np.where(rng.random(5) < 0.5, -1.0, 1.0)
        L_g = y[:, None] * L

        g = np.zeros(5)
        for tau in (1.0, 0.3, 1e-4, 1.0):
            for _ in range(50):
                g, value = ess_step(g, L_g, rng, cur_loglik=probit_loglik(g), tau=tau)
                assert value == probit_loglik(g)

    def test_tempered_chain_matches_quadrature_cdf(self):
        """1-d chain at tau=0.5 against the CDF of Phi(y f)^0.5 N(f; 0, k)."""
        k, y, tau = 1.5, -1.0, 0.5
        L = np.array([[y * np.sqrt(k)]])
        rng = np.random.default_rng(7)

        grid = np.linspace(-7.0, 7.0, 14001)
        dens = np.exp(-0.5 * grid * grid / k) * ndtr(y * grid) ** tau
        cdf = np.cumsum(dens)
        cdf /= cdf[-1]

        g = np.array([0.0])
        cur = probit_loglik(g)
        burn, keep = 2000, 30000
        samples = np.empty(keep)
        for i in range(burn + keep):
            g, cur = ess_step(g, L, rng, cur_loglik=cur, tau=tau)
            if i >= burn:
                samples[i - burn] = y * g[0]
        samples.sort()
        ecdf = (np.arange(keep) + 0.5) / keep
        gap = np.max(np.abs(ecdf - np.interp(samples, grid, cdf)))
        assert gap < 0.02

    def test_bracket_collapse_raises(self):
        """A state whose every proposal has a non-finite log likelihood (NaN
        here) rejects them all until the bracket collapses."""
        from probitgp import NumericsError

        rng = np.random.default_rng(3)
        L = np.eye(1)
        with pytest.raises(NumericsError):
            ess_step(np.array([np.nan]), L, rng, cur_loglik=0.0, tau=1.0)


class TestScreen:
    """The worst-point screen: ais_lml gives the full evaluation's bits
    whether the screen rejects most proposals or none."""

    @pytest.mark.parametrize("log_s, screens", [(5.0, True), (-1.0, False)])
    def test_per_repeat_matches_reference_bitwise(self, log_ndtr_calls, log_s, screens):
        data = helpers.make_blobs(30, 3, seed=13)
        K = gram(data.X, Hyperparams(2.0, log_s))
        cfg = AisConfig(steps=150, repeats=2, seed=4)
        est = ais_lml(K, data.y, cfg)
        full, scalar = log_ndtr_calls.count(1), log_ndtr_calls.count(0)
        screened = scalar - (full - cfg.repeats)  # one full call per chain starts it
        assert (screened > scalar // 4) if screens else screened == 0, (screened, scalar)
        ref = helpers.ais_lml_reference(K, data.y, cfg)
        assert np.array_equal(est.per_repeat, ref.per_repeat)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(arrays(float, st.integers(1, 300),
                  elements=st.one_of(st.floats(-1e3, 1e3), st.sampled_from([-1e3, 1e3]))))
    def test_scalar_log_ndtr_is_the_vector_element(self, x):
        want = log_ndtr(x)
        for got in (np.array([log_ndtr(x.item(i)) for i in range(x.size)]),
                    np.array([log_ndtr(x[i]) for i in range(x.size)])):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(arrays(float, st.integers(1, 600), elements=st.floats(-5e5, 0.0)),
           st.floats(0.0, 1.0))
    def test_sum_of_non_positive_terms_is_at_most_their_minimum(self, terms, tau):
        total = np.add.reduce(terms)
        assert total <= terms.min()
        assert tau * total <= tau * terms.min()


class TestAisEstimates:
    def test_single_point_calibration(self):
        """n=1 marginal likelihood is exactly log(1/2); desk-size run lands close."""
        K = helpers.gram_from_matrix(np.array([[1.0]]))
        est = ais_lml(K, np.array([1.0]), AisConfig(steps=2000, repeats=3, seed=0))
        assert abs(est.log_ml - LOG_HALF) < 0.05

    def test_two_point_toy_against_quadrature(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((2, 2))
        y = np.array([1.0, -1.0])
        K = gram(X, Hyperparams(0.3, 0.0))
        truth = helpers.probit_evidence_quadrature(K.K, y)
        est = ais_lml(K, y, AisConfig(steps=2000, repeats=3, seed=1))
        assert abs(est.log_ml - truth) < 0.1

    def test_estimate_structure(self):
        K = helpers.gram_from_matrix(np.array([[1.0]]))
        est = ais_lml(K, np.array([-1.0]), AisConfig(steps=50, repeats=4, seed=9))
        assert isinstance(est, AisEstimate)
        assert est.per_repeat.shape == (4,)
        assert est.log_ml == float(est.per_repeat.mean())

    def test_bitwise_deterministic(self):
        K = helpers.gram_from_matrix(np.array([[2.0]]))
        cfg = AisConfig(steps=200, repeats=2, seed=7)
        a = ais_lml(K, np.array([1.0]), cfg)
        b = ais_lml(K, np.array([1.0]), cfg)
        assert a.log_ml == b.log_ml
        assert np.array_equal(a.per_repeat, b.per_repeat)

    def test_seed_changes_estimate(self):
        K = helpers.gram_from_matrix(np.array([[2.0]]))
        a = ais_lml(K, np.array([1.0]), AisConfig(steps=200, repeats=1, seed=0))
        b = ais_lml(K, np.array([1.0]), AisConfig(steps=200, repeats=1, seed=1))
        assert a.log_ml != b.log_ml

    def test_repeats_use_consecutive_seeds(self):
        """A 2-repeat run is the two 1-repeat runs at seed and seed + 1."""
        K = helpers.gram_from_matrix(np.array([[1.3]]))
        y = np.array([1.0])
        both = ais_lml(K, y, AisConfig(steps=100, repeats=2, seed=5))
        first = ais_lml(K, y, AisConfig(steps=100, repeats=1, seed=5))
        second = ais_lml(K, y, AisConfig(steps=100, repeats=1, seed=6))
        assert both.per_repeat[0] == first.per_repeat[0]
        assert both.per_repeat[1] == second.per_repeat[0]

    def test_size_mismatch_rejected(self):
        K = helpers.gram_from_matrix(np.eye(2))
        with pytest.raises(ValueError):
            ais_lml(K, np.array([1.0]), AisConfig(steps=10, repeats=1))

    def test_labels_outside_plus_minus_one_rejected(self):
        K = helpers.gram_from_matrix(np.eye(2))
        cfg = AisConfig(steps=10, repeats=1)
        for y in ([0.0, 1.0], [1.0, 2.0], [-1.0, np.nan]):
            with pytest.raises(ValueError):
                ais_lml(K, np.array(y), cfg)


class TestBidirectionalBounds:
    """Bidirectional Monte Carlo above n = 2 (Grosse, Ghahramani & Adams
    2015): on labels drawn from the model at theta, the latent f that drew
    them is an exact posterior sample, and reverse chains from it bound
    log p(y) from above in expectation, as ais_lml's forward chains and any
    ELBO bound it from below.  Seeds, sizes and the 3-SE tolerances were set
    before the first run; the data are one fixed draw per cell."""

    STEPS, CHAINS = 2000, 8

    @staticmethod
    def mean_and_se(values):
        return values.mean(), values.std(ddof=1) / np.sqrt(values.size)

    @pytest.mark.parametrize("log_magnitude, data_seed", [(0.0, 31), (3.0, 32)])
    def test_forward_and_elbo_lie_below_the_reverse_bound(self, log_magnitude, data_seed):
        theta = Hyperparams(0.0, log_magnitude)
        data, f = helpers.make_probit_gp(40, 2, data_seed, theta)
        K = gram(data.X, theta)
        forward = ais_lml(K, data.y, AisConfig(steps=self.STEPS, repeats=self.CHAINS, seed=0))
        reverse = helpers.reverse_ais(K, data.y, f,
                                      AisConfig(steps=self.STEPS, repeats=self.CHAINS, seed=100))
        fwd, fwd_se = self.mean_and_se(forward.per_repeat)
        rev, rev_se = self.mean_and_se(reverse)
        bound = e_step(assemble(K, Sites.zeros(data.n)), data.y, step_size=STEP_SIZE,
                       iters=2000)[1][-1]
        assert fwd <= rev + 3.0 * np.hypot(fwd_se, rev_se)
        assert bound <= rev + 3.0 * rev_se


class TestReferenceEquivalence:
    """ais_lml against the former closure-per-step implementation, bit for bit."""

    def test_random_instances_match_reference_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(24):
            n = int(rng.integers(1, 61))
            X = rng.standard_normal((n, 3))
            y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            log_l, log_s = rng.choice([-3.0, 4.0], size=2)
            K = gram(X, Hyperparams(float(log_l), float(log_s)))
            cfg = AisConfig(
                steps=int(rng.integers(1, 401)),
                repeats=int(rng.integers(1, 5)),
                seed=int(rng.integers(0, 10_000)),
            )
            est = ais_lml(K, y, cfg)
            ref = helpers.ais_lml_reference(K, y, cfg)
            assert np.array_equal(est.per_repeat, ref.per_repeat)
            assert est.log_ml == ref.log_ml

    def test_default_range_cells_match_reference_bitwise(self):
        """The 3x3 default-range grid, cell seeds as grid_sweep assigns them."""
        data = helpers.make_blobs(40, 5, seed=12)
        axis = GridSpec(points=3).axis()
        for cell, (log_l, log_s) in enumerate((a, b) for a in axis for b in axis):
            K = gram(data.X, Hyperparams(float(log_l), float(log_s)))
            cfg = AisConfig(steps=200, repeats=3, seed=cell * 3)
            est = ais_lml(K, data.y, cfg)
            ref = helpers.ais_lml_reference(K, data.y, cfg)
            assert np.array_equal(est.per_repeat, ref.per_repeat)
