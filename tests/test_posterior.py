"""Posterior assembly, energies, and latent prediction against independent oracles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import helpers
from probitgp import (
    Hyperparams,
    MarginalMoments,
    Sites,
    assemble,
    cross_gram,
    elbo,
    ep_like_energy,
    gram,
    latent_predict,
    prior_kl,
)

HALF_LOG_TWO = 0.34657359027997264


def random_instance(n, rng):
    K = helpers.gram_from_matrix(helpers.random_spd(n, rng))
    lam1, lam2 = helpers.random_sites_arrays(n, rng)
    return K, Sites(lam1, lam2)


class TestSites:
    def test_validation(self):
        with pytest.raises(ValueError):
            Sites(np.zeros(3), np.ones(3))  # lam2 > 0
        with pytest.raises(ValueError):
            Sites(np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError):
            Sites(np.array([np.nan]), np.array([0.0]))

    def test_frozen_and_isolated_from_caller(self):
        lam1 = np.zeros(2)
        s = Sites(lam1, np.zeros(2))
        lam1[0] = 99.0  # caller-side mutation must not leak in
        assert s.lam1[0] == 0.0
        with pytest.raises(ValueError):
            s.lam1[0] = 1.0


class TestAssemble:
    def test_zero_sites_recover_prior(self):
        rng = np.random.default_rng(42)
        K = helpers.gram_from_matrix(helpers.random_spd(6, rng))
        post = assemble(K, Sites.zeros(6))
        assert_allclose(post.m, np.zeros(6), atol=0)
        assert_allclose(post.covariance(), K.K, atol=1e-14)
        assert post.log_det_ikb == 0.0

    def test_scalar_worked_example(self):
        K = helpers.gram_from_matrix(np.array([[1.0]]))
        post = assemble(K, Sites(np.array([1.0]), np.array([-0.5])))
        assert_allclose(post.covariance(), [[0.5]], rtol=1e-15)
        assert_allclose(post.m, [0.5], rtol=1e-15)

    def test_matches_direct_inverse_formula(self):
        """S = (K^-1 + B)^-1 and m = S lam1, assembled without forming K^-1."""
        rng = np.random.default_rng(0)
        for n in (1, 2, 5, 17):
            K, sites = random_instance(n, rng)
            post = assemble(K, sites)
            B = np.diag(-2.0 * sites.lam2)
            S_direct = np.linalg.inv(np.linalg.inv(K.K) + B)
            assert_allclose(post.covariance(), S_direct, rtol=1e-9, atol=1e-12)
            assert_allclose(post.m, S_direct @ sites.lam1, rtol=1e-9, atol=1e-12)

    def test_cache_terms(self):
        rng = np.random.default_rng(1)
        K, sites = random_instance(8, rng)
        post = assemble(K, sites)
        B = np.diag(-2.0 * sites.lam2)
        sign, logdet = np.linalg.slogdet(np.eye(8) + K.K @ B)
        assert sign > 0
        assert_allclose(post.log_det_ikb, logdet, rtol=1e-12)
        assert_allclose(post.alpha, np.linalg.solve(K.K, post.m), rtol=1e-8, atol=1e-12)

    def test_posterior_is_spd_and_symmetric(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            K, sites = random_instance(10, rng)
            post = assemble(K, sites)
            assert np.array_equal(post.covariance(), post.covariance().T)
            assert np.linalg.eigvalsh(post.covariance()).min() > 0

    def test_conjugate_regression_oracle(self):
        """Gaussian-likelihood sites reproduce the closed-form regression posterior."""
        rng = np.random.default_rng(3)
        n, noise = 9, 0.3
        X = rng.standard_normal((n, 2))
        targets = rng.standard_normal(n)
        K = gram(X, Hyperparams(0.2, 0.1))
        sites = Sites(targets / noise, np.full(n, -0.5 / noise))
        post = assemble(K, sites)
        A = K.K + noise * np.eye(n)
        assert_allclose(post.m, K.K @ np.linalg.solve(A, targets), rtol=1e-9, atol=1e-12)
        assert_allclose(
            post.covariance(), K.K - K.K @ np.linalg.solve(A, K.K), rtol=1e-8, atol=1e-11
        )

    def test_size_mismatch_rejected(self):
        K = helpers.gram_from_matrix(np.eye(3))
        with pytest.raises(ValueError):
            assemble(K, Sites.zeros(2))


class TestEnergies:
    def test_zero_sites_energy_is_zero(self):
        K = helpers.gram_from_matrix(helpers.random_spd(5, np.random.default_rng(4)))
        assert ep_like_energy(assemble(K, Sites.zeros(5))) == 0.0

    def test_scalar_frozen_value(self):
        K = helpers.gram_from_matrix(np.array([[1.0]]))
        val = ep_like_energy(assemble(K, Sites(np.array([0.0]), np.array([-0.5]))))
        assert_allclose(val, -HALF_LOG_TWO, rtol=1e-14)

    def test_energy_matches_dense_quadrature_n1_n2(self):
        """Unnormalized-site energy equals the log Gaussian integral it names."""
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(1, 3))
            K, sites = random_instance(n, rng)
            oracle = helpers.site_energy_quadrature(K.K, sites.lam1, sites.lam2)
            assert_allclose(ep_like_energy(assemble(K, sites)), oracle, atol=1e-6)

    def test_prior_kl_properties(self):
        rng = np.random.default_rng(6)
        K, sites = random_instance(7, rng)
        assert prior_kl(assemble(K, sites)) > 0
        assert_allclose(prior_kl(assemble(K, Sites.zeros(7))), 0.0, atol=1e-12)

    def test_elbo_zero_sites_is_sum_of_prior_expectations(self):
        rng = np.random.default_rng(7)
        K = helpers.gram_from_matrix(helpers.random_spd(4, rng))
        y = np.array([1.0, -1.0, 1.0, 1.0])
        expected = sum(
            helpers.expected_loglik(y[i], MarginalMoments(0.0, K.K[i, i])).e for i in range(4)
        )
        assert_allclose(elbo(assemble(K, Sites.zeros(4)), y), expected, rtol=1e-12)

    def test_elbo_lower_bounds_quadrature_evidence(self):
        """For any valid sites the ELBO sits below the true log evidence."""
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(1, 3))
            K, sites = random_instance(n, rng)
            y = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
            evidence = helpers.probit_evidence_quadrature(K.K, y)
            assert elbo(assemble(K, sites), y) <= evidence + 1e-8

    def test_energy_reuses_precomputed_posterior(self):
        rng = np.random.default_rng(9)
        K, sites = random_instance(6, rng)
        post = assemble(K, sites)
        assert ep_like_energy(assemble(K, sites)) == ep_like_energy(post)


class TestLatentPredict:
    def test_zero_sites_prior_marginals(self):
        """With no sites the prediction is the prior marginal at the test point."""
        rng = np.random.default_rng(10)
        X = rng.standard_normal((6, 2))
        Z = rng.standard_normal((3, 2))
        theta = Hyperparams(0.1, 0.3)
        K = gram(X, theta)
        mm = latent_predict(
            assemble(K, Sites.zeros(6)), cross_gram(X, Z, theta), np.full(3, theta.magnitude ** 2)
        )
        assert_allclose(mm.mean, np.zeros(3), atol=1e-14)
        assert_allclose(mm.var, np.full(3, theta.magnitude ** 2), rtol=1e-12)

    def test_training_point_self_consistency(self):
        """Predicting at the training inputs returns (m, diag S) exactly."""
        rng = np.random.default_rng(11)
        K, sites = random_instance(8, rng)
        post = assemble(K, sites)
        mm = latent_predict(post, K.K, np.diag(K.K))
        assert_allclose(mm.mean, post.m, rtol=1e-10, atol=1e-12)
        assert_allclose(mm.var, np.diag(post.covariance()), rtol=1e-9, atol=1e-12)

    def test_strong_site_pins_training_point(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((5, 2))
        theta = Hyperparams()
        K = gram(X, theta)
        lam2 = np.full(5, -1e-3)
        lam2[2] = -5e5  # near-delta site
        sites = Sites(np.zeros(5), lam2)
        mm = latent_predict(
            assemble(K, sites), cross_gram(X, X[2:3], theta), np.array([theta.magnitude ** 2])
        )
        assert mm.var[0] == pytest.approx(0.0, abs=1e-5)

    def test_variances_are_clamped_nonnegative(self):
        rng = np.random.default_rng(13)
        K, sites = random_instance(30, rng)
        X = rng.standard_normal((30, 2))
        theta = Hyperparams()
        Kg = gram(X, theta)
        mm = latent_predict(assemble(Kg, Sites(sites.lam1, sites.lam2)), Kg.K, np.diag(Kg.K))
        assert np.all(mm.var >= 0)

    def test_against_gaussian_conditioning_oracle(self):
        """Joint-Gaussian conditioning on pseudo-observations gives the same law.

        With B = diag(-2 lam2) and pseudo-targets t = B^-1 lam1, the site
        posterior equals exact conditioning on t = f + N(0, B^-1)."""
        rng = np.random.default_rng(14)
        n_train, n_test = 7, 4
        X = rng.standard_normal((n_train, 2))
        Z = rng.standard_normal((n_test, 2))
        theta = Hyperparams(0.3, -0.1)
        K = gram(X, theta)
        lam1, lam2 = helpers.random_sites_arrays(n_train, rng, lam2_range=(-3.0, -0.3))
        sites = Sites(lam1, lam2)
        B_inv = np.diag(1.0 / (-2.0 * lam2))
        t = B_inv @ lam1
        k_star = cross_gram(X, Z, theta)
        k_ss = np.full(n_test, theta.magnitude ** 2)
        mm = latent_predict(assemble(K, sites), k_star, k_ss)
        A = K.K + B_inv
        mean_oracle = k_star.T @ np.linalg.solve(A, t)
        var_oracle = k_ss - np.einsum("ij,ji->i", k_star.T, np.linalg.solve(A, k_star))
        assert_allclose(mm.mean, mean_oracle, rtol=1e-9, atol=1e-12)
        assert_allclose(mm.var, var_oracle, rtol=1e-9, atol=1e-12)

    def test_shape_validation(self):
        K = helpers.gram_from_matrix(np.eye(3))
        with pytest.raises(ValueError):
            latent_predict(assemble(K, Sites.zeros(3)), np.zeros((2, 4)), np.zeros(4))
        with pytest.raises(ValueError):
            latent_predict(assemble(K, Sites.zeros(3)), np.zeros((3, 4)), np.zeros(5))
