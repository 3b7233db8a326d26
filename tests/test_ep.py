"""Expectation propagation: exactness cases, fixed points, evidence assembly."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import ndtr

import helpers
from probitgp import (
    EpSites,
    Hyperparams,
    MarginalMoments,
    Sites,
    assemble,
    ep_energy,
    ep_inference,
    ep_tilted_moments,
    gram,
)

LOG_HALF = -0.69314718055994531


class TestEpSites:
    def test_validation(self):
        with pytest.raises(ValueError):
            EpSites(np.zeros(3), np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError):
            EpSites(np.zeros(2), np.zeros(2), np.array([0.0, np.inf]))
        with pytest.raises(ValueError):
            EpSites(np.zeros(2), np.ones(2), np.zeros(2))

    def test_sites_view(self):
        eps = EpSites(np.array([1.0]), np.array([-0.5]), np.array([0.3]))
        s = eps.sites
        assert isinstance(s, Sites)
        assert s.lam1[0] == 1.0 and s.lam2[0] == -0.5


class TestSingleSiteExactness:
    """With one data point EP reproduces the non-Gaussian posterior exactly."""

    @pytest.mark.parametrize("k", [0.3, 1.0, 4.0])
    @pytest.mark.parametrize("y", [1.0, -1.0])
    def test_evidence_is_log_half(self, k, y):
        # zero prior mean makes the true evidence label- and scale-free
        K = helpers.gram_from_matrix(np.array([[k]]))
        sites, post, converged = ep_inference(K, np.array([y]), tol=1e-10)
        assert converged
        assert_allclose(ep_energy(post, sites), LOG_HALF, atol=1e-9)

    @pytest.mark.parametrize("k", [0.3, 1.0, 4.0])
    def test_posterior_moments_match_quadrature(self, k):
        K = helpers.gram_from_matrix(np.array([[k]]))
        y = np.array([1.0])
        _, post, _ = ep_inference(K, y, tol=1e-12)
        Z = helpers.gauss_expect(lambda f: ndtr(f[:, 0]), K.K)
        mean = helpers.gauss_expect(lambda f: f[:, 0] * ndtr(f[:, 0]), K.K) / Z
        second = helpers.gauss_expect(lambda f: f[:, 0] ** 2 * ndtr(f[:, 0]), K.K) / Z
        assert_allclose(post.m[0], mean, atol=1e-8)
        assert_allclose(post.covariance()[0, 0], second - mean * mean, atol=1e-8)


class TestConjugateEvidence:
    def test_hand_built_gaussian_sites_give_exact_evidence(self):
        """Sites carrying an exact Gaussian likelihood make ep_energy exact.

        With lam1 = t/s, lam2 = -1/(2s) and log_scale soaking up the Gaussian
        normalizer, the scaled sites multiply to prod_i N(t_i | f_i, s), so the
        energy must equal log N(t | 0, K + s I)."""
        rng = np.random.default_rng(21)
        n, s = 7, 0.35
        X = rng.standard_normal((n, 2))
        t = rng.standard_normal(n)
        K = gram(X, Hyperparams(0.2, 0.0))
        log_scale = -0.5 * np.log(2.0 * np.pi * s) - t * t / (2.0 * s)
        eps = EpSites(t / s, np.full(n, -0.5 / s), log_scale)
        cov = K.K + s * np.eye(n)
        sign, logdet = np.linalg.slogdet(cov)
        oracle = -0.5 * (t @ np.linalg.solve(cov, t) + logdet + n * np.log(2.0 * np.pi))
        assert sign > 0
        assert_allclose(ep_energy(assemble(K, eps.sites), eps), oracle, rtol=1e-10)

    def test_zero_sites_energy_is_zero(self):
        K = helpers.gram_from_matrix(helpers.random_spd(4, np.random.default_rng(1)))
        eps = EpSites(np.zeros(4), np.zeros(4), np.zeros(4))
        assert ep_energy(assemble(K, eps.sites), eps) == 0.0


class TestFixedPoint:
    def test_converges_on_synthetic_data(self):
        ds = helpers.make_blobs(20, 2, 31)
        K = gram(ds.X, Hyperparams(0.3, 0.0))
        sites, post, converged = ep_inference(K, ds.y)
        assert converged
        assert np.all(sites.lam2 < 0)
        assert np.isfinite(ep_energy(post, sites))

    def test_moment_matching_at_convergence(self):
        """Each tilted distribution agrees with the posterior marginal."""
        ds = helpers.make_blobs(14, 2, 32)
        K = gram(ds.X, Hyperparams(0.2, 0.0))
        sites, post, converged = ep_inference(K, ds.y, tol=1e-9)
        assert converged
        for i in range(14):
            cav_rho = 1.0 / post.covariance()[i, i] + 2.0 * sites.lam2[i]
            cav_gam = post.m[i] / post.covariance()[i, i] - sites.lam1[i]
            assert cav_rho > 0
            _, tilted = ep_tilted_moments(
                ds.y[i], MarginalMoments(cav_gam / cav_rho, 1.0 / cav_rho)
            )
            assert abs(tilted.mean - post.m[i]) < 1e-5
            assert abs(tilted.var - post.covariance()[i, i]) < 1e-5

    def test_label_flip_symmetry(self):
        ds = helpers.make_blobs(10, 2, 33)
        K = gram(ds.X, Hyperparams(0.3, 0.0))
        a, post_a, _ = ep_inference(K, ds.y, tol=1e-10)
        b, post_b, _ = ep_inference(K, -ds.y, tol=1e-10)
        assert_allclose(b.lam1, -a.lam1, atol=1e-9)
        assert_allclose(b.lam2, a.lam2, atol=1e-9)
        assert_allclose(b.log_scale, a.log_scale, atol=1e-9)
        assert_allclose(ep_energy(post_b, b), ep_energy(post_a, a), atol=1e-9)

    def test_deterministic(self):
        ds = helpers.make_blobs(12, 2, 34)
        K = gram(ds.X, Hyperparams(0.3, 0.0))
        a, _, _ = ep_inference(K, ds.y)
        b, _, _ = ep_inference(K, ds.y)
        assert np.array_equal(a.lam1, b.lam1)
        assert np.array_equal(a.lam2, b.lam2)
        assert np.array_equal(a.log_scale, b.log_scale)


class TestEvidenceQuality:
    def test_close_to_quadrature_truth_n2(self):
        """EP evidence sits within a hundredth of a nat of the exact value."""
        rng = np.random.default_rng(35)
        for _ in range(10):
            X = rng.standard_normal((2, 2))
            y = np.where(rng.uniform(size=2) < 0.5, -1.0, 1.0)
            K = gram(X, Hyperparams(0.4, 0.0))
            sites, post, converged = ep_inference(K, y, tol=1e-9)
            assert converged
            truth = helpers.probit_evidence_quadrature(K.K, y)
            assert abs(ep_energy(post, sites) - truth) < 1e-2
