"""Probit likelihood: exact values, Gaussian expectations, tilted moments."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.stats import norm

from helpers import (
    ExpectationStats,
    expectation_stats_reference,
    expected_loglik,
    log_lik,
    predictive_prob,
)
from probitgp import MarginalMoments, ep_tilted_moments
from probitgp.likelihood import QUAD_ORDER, expectation_stats

# frozen 30-digit constants
LOG_PHI_0 = -0.69314718055994531
LOG_PHI_M10 = -53.231285151519580
PHI_HALF = 0.69146246127401310


def test_log_lik_at_zero():
    assert_allclose(log_lik(1, 0.0), LOG_PHI_0, rtol=1e-15)
    assert_allclose(log_lik(-1, 0.0), LOG_PHI_0, rtol=1e-15)


def test_log_lik_deep_tail_does_not_underflow():
    # tail evaluation rides scipy's asymptotic branch, good to ~1e-11 relative
    assert_allclose(log_lik(1, -10.0), LOG_PHI_M10, rtol=1e-9)
    assert_allclose(log_lik(-1, 10.0), LOG_PHI_M10, rtol=1e-9)
    assert np.isfinite(log_lik(1, -30.0))
    assert np.isfinite(log_lik(1, 30.0))


def test_log_lik_label_flip_antisymmetry():
    """log Phi(f) + flip: Phi(-f) = 1 - Phi(f)."""
    for f in (-3.0, -0.4, 0.0, 1.7):
        p = np.exp(log_lik(1, f))
        q = np.exp(log_lik(-1, f))
        assert_allclose(p + q, 1.0, rtol=1e-12)


def test_invalid_labels_rejected():
    with pytest.raises(ValueError):
        log_lik(0, 1.0)
    with pytest.raises(ValueError):
        predictive_prob(2, MarginalMoments(0.0, 1.0))
    with pytest.raises(ValueError):
        ep_tilted_moments(0.5, MarginalMoments(0.0, 1.0))


class TestExpectedLoglik:
    def test_zero_variance_collapses_to_exact(self):
        stats = expected_loglik(1, MarginalMoments(0.7, 0.0))
        assert_allclose(stats.e, log_lik(1, 0.7), rtol=1e-15)

    def test_monte_carlo_oracle(self):
        """Quadrature agrees with a 10^7-sample Monte Carlo estimate to 3 SE."""
        rng = np.random.default_rng(42)
        cases = [(1, 0.3, 0.8), (-1, -1.2, 2.5), (1, 2.0, 0.3), (-1, 0.0, 1.0)]
        draws = rng.standard_normal(10_000_000)
        for y, m, v in cases:
            f = m + np.sqrt(v) * draws
            vals = np.log(norm.cdf(y * f))
            mc, se = vals.mean(), vals.std() / np.sqrt(vals.size)
            stats = expected_loglik(y, MarginalMoments(m, v))
            assert abs(stats.e - mc) < 3 * se, (y, m, v)

    def test_gradient_identities_by_finite_differences(self):
        """g_m, g_v match central differences of e through the moments."""
        h = 1e-5
        for y, m, v in [(1, 0.4, 1.3), (-1, -0.8, 0.6), (1, -2.0, 3.0)]:
            e0 = expected_loglik(y, MarginalMoments(m, v))
            de_dm = (
                expected_loglik(y, MarginalMoments(m + h, v)).e
                - expected_loglik(y, MarginalMoments(m - h, v)).e
            ) / (2 * h)
            de_dv = (
                expected_loglik(y, MarginalMoments(m, v + h)).e
                - expected_loglik(y, MarginalMoments(m, v - h)).e
            ) / (2 * h)
            assert_allclose(e0.g_m, de_dm, rtol=1e-5, atol=1e-7)
            assert_allclose(e0.g_v, de_dv, rtol=1e-5, atol=1e-7)

    def test_quadrature_order_insensitivity(self):
        """The library's order 50 and an order-100 rule agree to 1e-9 on a
        moderate-moment grid."""
        assert QUAD_ORDER == 50

        def order_100(y, m, v):
            stats = expectation_stats_reference([y], [m], [v], quad_order=100)
            return ExpectationStats(*(float(s[0]) for s in stats))

        worst = 0.0
        for y in (-1, 1):
            for m in np.linspace(-3, 3, 9):
                for v in (0.05, 0.5, 2.0):
                    a = expected_loglik(y, MarginalMoments(m, v))
                    b = order_100(y, m, v)
                    worst = max(worst, abs(a.e - b.e), abs(a.g_m - b.g_m), abs(a.g_v - b.g_v))
        assert worst < 1e-9
        # wider marginals converge more slowly but stay tight
        a = expected_loglik(-1, MarginalMoments(-1.5, 4.0))
        b = order_100(-1, -1.5, 4.0)
        assert abs(a.g_v - b.g_v) < 1e-6

    def test_g_v_is_nonpositive(self):
        """Log-concavity: the variance gradient never turns positive."""
        rng = np.random.default_rng(7)
        y = np.where(rng.uniform(size=200) < 0.5, -1.0, 1.0)
        m = rng.uniform(-5, 5, 200)
        v = rng.uniform(1e-8, 20, 200)
        _, _, g_v = expectation_stats(y, m, v)
        assert np.all(g_v <= 0)


class TestTiltedMoments:
    def test_against_dense_quadrature(self):
        """Closed-form Z, mean, var match direct numeric integration."""
        for y, m, v in [(1, 0.5, 1.2), (-1, -0.3, 0.4), (1, -1.5, 2.0), (-1, 2.0, 0.7)]:
            density = lambda f: norm.cdf(y * f) * norm.pdf(f, m, np.sqrt(v))
            z_num, _ = quad(density, m - 12 * np.sqrt(v), m + 12 * np.sqrt(v), limit=200)
            m1, _ = quad(lambda f: f * density(f), m - 12 * np.sqrt(v), m + 12 * np.sqrt(v), limit=200)
            m2, _ = quad(lambda f: f * f * density(f), m - 12 * np.sqrt(v), m + 12 * np.sqrt(v), limit=200)
            log_z, tilted = ep_tilted_moments(y, MarginalMoments(m, v))
            assert_allclose(log_z, np.log(z_num), atol=1e-8)
            assert_allclose(tilted.mean, m1 / z_num, atol=1e-8)
            assert_allclose(tilted.var, m2 / z_num - (m1 / z_num) ** 2, atol=1e-8)

    def test_variance_shrinks_and_z_is_probability(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            y = -1.0 if rng.uniform() < 0.5 else 1.0
            m, v = rng.uniform(-4, 4), rng.uniform(0.05, 8.0)
            log_z, tilted = ep_tilted_moments(y, MarginalMoments(m, v))
            assert log_z <= 0
            assert 0 < tilted.var < v

    def test_mean_moves_toward_label(self):
        _, up = ep_tilted_moments(1, MarginalMoments(0.0, 1.0))
        _, down = ep_tilted_moments(-1, MarginalMoments(0.0, 1.0))
        assert up.mean > 0 > down.mean
        assert_allclose(up.mean, -down.mean, rtol=1e-12)

    def test_invalid_cavity_rejected(self):
        with pytest.raises(ValueError):
            ep_tilted_moments(1, MarginalMoments(0.0, 0.0))
        with pytest.raises(ValueError):
            ep_tilted_moments(1, MarginalMoments(np.nan, 1.0))


class TestPredictive:
    def test_frozen_value(self):
        # mean/sqrt(1+var) = 0.5
        assert_allclose(predictive_prob(1, MarginalMoments(1.0, 3.0)), PHI_HALF, rtol=1e-15)

    def test_normalization(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            mm = MarginalMoments(rng.uniform(-3, 3), rng.uniform(0, 5))
            assert_allclose(predictive_prob(1, mm) + predictive_prob(-1, mm), 1.0, rtol=1e-12)

    def test_against_quadrature(self):
        """p(y) = E_f[Phi(y f)] under the latent marginal."""
        mm = MarginalMoments(0.6, 1.8)
        val, _ = quad(
            lambda f: norm.cdf(f) * norm.pdf(f, mm.mean, np.sqrt(mm.var)),
            -15, 15, limit=200,
        )
        assert_allclose(predictive_prob(1, mm), val, atol=1e-9)

    def test_zero_variance_is_plain_cdf(self):
        assert_allclose(predictive_prob(1, MarginalMoments(0.5, 0.0)), PHI_HALF, rtol=1e-14)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            predictive_prob(1, MarginalMoments(0.0, -0.1))
