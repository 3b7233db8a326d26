"""Expectation propagation: exactness cases, fixed points, evidence assembly."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import ndtr

import helpers
from probitgp import (
    Hyperparams,
    MarginalMoments,
    NumericsError,
    Sites,
    assemble,
    ep_energy,
    ep_inference,
    ep_tilted_moments,
    gram,
)
from probitgp import ep, trainer

LOG_HALF = -0.69314718055994531


class TestNonFiniteLogScale:
    def test_is_a_numerics_error(self, monkeypatch):
        monkeypatch.setattr(ep, "_log_gauss_site_integral", lambda *args: np.inf)
        ds = helpers.make_blobs(6, 2, 30)
        with pytest.raises(NumericsError, match="log scales"):
            ep_inference(gram(ds.X, Hyperparams(0.3, 0.0)), ds.y)


class TestNonFiniteSiteUpdate:
    def test_is_a_numerics_error(self, monkeypatch):
        """A tilted moment that is not finite stops EP at that site, before a
        NaN site could reach Sites (a ValueError that no caller catches)."""
        nan = float("nan")
        monkeypatch.setattr(ep, "ep_tilted_moments", lambda y, cav: (0.0, MarginalMoments(nan, nan)))
        ds = helpers.make_blobs(6, 2, 30)
        with pytest.raises(NumericsError, match="site 0 update is not finite"):
            ep_inference(gram(ds.X, Hyperparams(0.3, 0.0)), ds.y)


class TestSingleSiteExactness:
    """With one data point EP reproduces the non-Gaussian posterior exactly."""

    @pytest.mark.parametrize("k", [0.3, 1.0, 4.0])
    @pytest.mark.parametrize("y", [1.0, -1.0])
    def test_evidence_is_log_half(self, k, y):
        # zero prior mean makes the true evidence label- and scale-free
        K = helpers.gram_from_matrix(np.array([[k]]))
        post, log_scale, converged = ep_inference(K, np.array([y]), tol=1e-10)
        assert converged
        assert_allclose(ep_energy(post, log_scale), LOG_HALF, atol=1e-9)

    @pytest.mark.parametrize("k", [0.3, 1.0, 4.0])
    def test_posterior_moments_match_quadrature(self, k):
        K = helpers.gram_from_matrix(np.array([[k]]))
        y = np.array([1.0])
        post, _, _ = ep_inference(K, y, tol=1e-12)
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
        sites = Sites(t / s, np.full(n, -0.5 / s))
        cov = K.K + s * np.eye(n)
        sign, logdet = np.linalg.slogdet(cov)
        oracle = -0.5 * (t @ np.linalg.solve(cov, t) + logdet + n * np.log(2.0 * np.pi))
        assert sign > 0
        assert_allclose(ep_energy(assemble(K, sites), log_scale), oracle, rtol=1e-10)

    def test_zero_sites_energy_is_zero(self):
        K = helpers.gram_from_matrix(helpers.random_spd(4, np.random.default_rng(1)))
        assert ep_energy(assemble(K, Sites.zeros(4)), np.zeros(4)) == 0.0


class TestFixedPoint:
    def test_converges_on_synthetic_data(self):
        ds = helpers.make_blobs(20, 2, 31)
        K = gram(ds.X, Hyperparams(0.3, 0.0))
        post, log_scale, converged = ep_inference(K, ds.y)
        assert converged
        assert np.all(post.sites.lam2 < 0)
        assert np.isfinite(ep_energy(post, log_scale))

    def test_moment_matching_at_convergence(self):
        """Each tilted distribution agrees with the posterior marginal."""
        ds = helpers.make_blobs(14, 2, 32)
        K = gram(ds.X, Hyperparams(0.2, 0.0))
        post, _, converged = ep_inference(K, ds.y, tol=1e-9)
        sites = post.sites
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
        post_a, scale_a, _ = ep_inference(K, ds.y, tol=1e-10)
        post_b, scale_b, _ = ep_inference(K, -ds.y, tol=1e-10)
        assert_allclose(post_b.sites.lam1, -post_a.sites.lam1, atol=1e-9)
        assert_allclose(post_b.sites.lam2, post_a.sites.lam2, atol=1e-9)
        assert_allclose(scale_b, scale_a, atol=1e-9)
        assert_allclose(ep_energy(post_b, scale_b), ep_energy(post_a, scale_a), atol=1e-9)

    def test_deterministic(self):
        ds = helpers.make_blobs(12, 2, 34)
        K = gram(ds.X, Hyperparams(0.3, 0.0))
        post_a, scale_a, _ = ep_inference(K, ds.y)
        post_b, scale_b, _ = ep_inference(K, ds.y)
        assert np.array_equal(post_a.sites.lam1, post_b.sites.lam1)
        assert np.array_equal(post_a.sites.lam2, post_b.sites.lam2)
        assert np.array_equal(scale_a, scale_b)


class TestEvidenceQuality:
    def test_close_to_quadrature_truth_n2(self):
        """EP evidence sits within a hundredth of a nat of the exact value."""
        rng = np.random.default_rng(35)
        for _ in range(10):
            X = rng.standard_normal((2, 2))
            y = np.where(rng.uniform(size=2) < 0.5, -1.0, 1.0)
            K = gram(X, Hyperparams(0.4, 0.0))
            post, log_scale, converged = ep_inference(K, y, tol=1e-9)
            assert converged
            truth = helpers.probit_evidence_quadrature(K.K, y)
            assert abs(ep_energy(post, log_scale) - truth) < 1e-2


class TestSequentialFixedPoint:
    """The parallel sweep reaches the fixed point of sequential EP
    (helpers.ep_inference_reference, GPML Alg. 3.5): EP's fixed point does
    not depend on the order of the site updates.  Both loops stop once no
    site moves by tol, so the sites agree to a small multiple of it.  The
    log scales are checked through the energy that sums them: each one
    depends on its cavity, which the two loops' last sweeps take from
    different posteriors (they differ by up to 1.7e-5 at (2, 5))."""

    @pytest.mark.parametrize("log_l, log_s", [(-1.0, -1.0), (0.3, 0.0), (2.0, 2.0),
                                              (2.0, 5.0), (5.0, 5.0)])
    def test_reaches_the_sequential_fixed_point(self, log_l, log_s):
        ds = helpers.make_blobs(60, 4, 36)
        K = gram(ds.X, Hyperparams(log_l, log_s))
        post, log_scale, converged = ep_inference(K, ds.y)
        ref_post, ref_scale, ref_converged = helpers.ep_inference_reference(K, ds.y)
        assert converged == ref_converged
        energy, ref_energy = ep_energy(post, log_scale), ep_energy(ref_post, ref_scale)
        assert abs(energy - ref_energy) <= 1e-9 * abs(ref_energy)
        for got, want in ((post.sites.lam1, ref_post.sites.lam1),
                          (post.sites.lam2, ref_post.sites.lam2)):
            assert_allclose(got, want, rtol=0.0, atol=10 * ep.CONVERGENCE_TOL)


class TestTypeTwoLearning:
    """EP type-II learning, the reference for what ours approximates: at EP's
    fixed point only K's explicit dependence on theta counts (GPML 5.5.2),
    so the gradient of EP's evidence is the ep_like gradient at fixed sites."""

    H, TOL = 1e-4, 1e-12

    @pytest.mark.parametrize("theta", [(0.0, 0.0), (0.5, 3.0), (-0.5, 1.0)])
    def test_ep_like_gradient_is_the_evidence_gradient(self, theta):
        """Central differences of ep_energy, EP re-run at theta +- h, agree
        with the fixed-site gradient to 1e-6 of its largest entry (~1e-8
        measured)."""
        ds, _ = helpers.make_probit_gp(40, 2, seed=0)
        _, post = helpers.ep_evidence(ds, theta, self.TOL)
        grad = trainer._value_and_grad(ds, post, "ep_like")[1]
        fd = np.empty(2)
        for k in range(2):
            step = self.H * np.eye(2)[k]
            up = helpers.ep_evidence(ds, theta + step, self.TOL)[0]
            down = helpers.ep_evidence(ds, theta - step, self.TOL)[0]
            fd[k] = (up - down) / (2.0 * self.H)
        assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(grad)), (grad, fd)

    def test_fit_raises_the_evidence(self):
        """From the theta that drew the labels, (0, 0) at -28.07, the fit
        reaches (0.323, -0.667) at -27.18 nats, inside helpers.EP_TYPE2_BOX."""
        ds, _ = helpers.make_probit_gp(40, 2, seed=0)
        theta0 = Hyperparams(0.0, 0.0)
        start = helpers.ep_evidence(ds, theta0.as_array(), self.TOL)[0]
        theta, energy, result = helpers.ep_type2_fit(ds, theta0)
        assert result.success, result.message
        assert energy > start
        for value, (lo, hi) in zip(theta.as_array(), helpers.EP_TYPE2_BOX):
            assert lo <= value <= hi
