"""Annealed importance sampling and the elliptical slice kernel."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import log_ndtr, ndtr

import helpers
from probitgp import (
    AisConfig,
    AisEstimate,
    GridSpec,
    Hyperparams,
    ais_lml,
    ess_step,
    gram,
    temperature,
)

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


class TestSliceKernel:
    def test_constant_loglik_accepts_first_proposal(self):
        """A flat target can never reject, so exactly one evaluation happens."""
        rng = np.random.default_rng(0)
        L = np.linalg.cholesky(helpers.random_spd(3, rng))
        calls = []

        def flat(f):
            calls.append(1)
            return 0.0

        f = L @ rng.standard_normal(3)
        ess_step(f, flat, L, rng, cur_loglik=0.0, tau=1.0)
        assert len(calls) == 1

    def test_flat_target_preserves_prior_exactly(self):
        """One transition of a flat target maps N(0,K) to N(0,K); MC check."""
        rng = np.random.default_rng(1)
        K = np.array([[1.0, 0.6], [0.6, 2.0]])
        L = np.linalg.cholesky(K)
        m = 20000
        out = np.empty((m, 2))
        for i in range(m):
            f = L @ rng.standard_normal(2)
            out[i], _ = ess_step(f, lambda _: 0.0, L, rng, cur_loglik=0.0, tau=1.0)
        se_mean = np.sqrt(np.diag(K) / m)
        assert np.all(np.abs(out.mean(axis=0)) < 4 * se_mean)
        emp_cov = np.cov(out.T)
        assert_allclose(emp_cov, K, atol=4 * np.sqrt(2.0 / m) * K.max())

    def test_chain_matches_quadrature_cdf(self):
        """Long 1-d chain against the exact posterior CDF, sup gap < 0.02."""
        k, y = 1.5, 1.0
        L = np.array([[np.sqrt(k)]])
        rng = np.random.default_rng(2)

        def loglik(f):
            return float(log_ndtr(y * f[0]))

        grid = np.linspace(-7.0, 7.0, 14001)
        dens = np.exp(-0.5 * grid * grid / k) * ndtr(y * grid)
        cdf = np.cumsum(dens)
        cdf /= cdf[-1]

        f = np.array([0.0])
        cur = loglik(f)
        burn, keep = 2000, 30000
        samples = np.empty(keep)
        for i in range(burn + keep):
            f, cur = ess_step(f, loglik, L, rng, cur_loglik=cur, tau=1.0)
            if i >= burn:
                samples[i - burn] = f[0]
        samples.sort()
        ecdf = (np.arange(keep) + 0.5) / keep
        gap = np.max(np.abs(ecdf - np.interp(samples, grid, cdf)))
        assert gap < 0.02

    def test_zero_temperature_accepts_first_proposal(self):
        """At tau=0 the target is the prior, so the first proposal is taken."""
        rng = np.random.default_rng(5)
        L = np.linalg.cholesky(helpers.random_spd(4, rng))
        y = np.array([1.0, -1.0, 1.0, 1.0])
        calls = []

        def loglik(f):
            calls.append(1)
            return float(np.sum(log_ndtr(20.0 * y * f)))

        f = L @ rng.standard_normal(4)
        cur = loglik(f)
        for _ in range(200):
            calls.clear()
            f, cur = ess_step(f, loglik, L, rng, cur_loglik=cur, tau=0.0)
            assert len(calls) == 1

    def test_returned_loglik_is_untempered_value_at_state(self):
        rng = np.random.default_rng(6)
        L = np.linalg.cholesky(helpers.random_spd(5, rng, scale=30.0))
        y = np.where(rng.random(5) < 0.5, -1.0, 1.0)

        def loglik(f):
            return float(np.sum(log_ndtr(y * f)))

        f = np.zeros(5)
        for tau in (1.0, 0.3, 1e-4, 1.0):
            for _ in range(50):
                f, value = ess_step(f, loglik, L, rng, cur_loglik=loglik(f), tau=tau)
                assert value == loglik(f)

    def test_tempered_chain_matches_quadrature_cdf(self):
        """1-d chain at tau=0.5 against the CDF of Phi(y f)^0.5 N(f; 0, k)."""
        k, y, tau = 1.5, -1.0, 0.5
        L = np.array([[np.sqrt(k)]])
        rng = np.random.default_rng(7)

        def loglik(f):
            return float(log_ndtr(y * f[0]))

        grid = np.linspace(-7.0, 7.0, 14001)
        dens = np.exp(-0.5 * grid * grid / k) * ndtr(y * grid) ** tau
        cdf = np.cumsum(dens)
        cdf /= cdf[-1]

        f = np.array([0.0])
        cur = loglik(f)
        burn, keep = 2000, 30000
        samples = np.empty(keep)
        for i in range(burn + keep):
            f, cur = ess_step(f, loglik, L, rng, cur_loglik=cur, tau=tau)
            if i >= burn:
                samples[i - burn] = f[0]
        samples.sort()
        ecdf = (np.arange(keep) + 0.5) / keep
        gap = np.max(np.abs(ecdf - np.interp(samples, grid, cdf)))
        assert gap < 0.02

    def test_bracket_collapse_raises(self):
        from probitgp import NumericsError

        rng = np.random.default_rng(3)
        L = np.eye(1)
        with pytest.raises(NumericsError):
            ess_step(np.array([0.0]), lambda _: -np.inf, L, rng, cur_loglik=0.0, tau=1.0)


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
