"""The lean posterior core against the former full-covariance algebra.

helpers.assemble_reference and helpers.prior_kl_reference keep the assembly
that formed S = K - V'V and the KL that inverted chol_a; the lean core
returns diag S without S, takes the KL trace by Woodbury and forms S only on
demand.  Both must agree to 1e-10 relative on random instances that include
zero sites, sites clamped at LAMBDA2_CEIL, site precisions b = -2 lam2 up to
600, and n = 1.  expectation_stats, which now evaluates log_ndtr once per
quadrature node, must equal its former two-evaluation form bit for bit, and
a Gram matrix built from Dataset.distances must equal the one built from X.
"""

import numpy as np
import pytest

import helpers
from probitgp import (
    Dataset,
    Hyperparams,
    Sites,
    assemble,
    cross_gram,
    e_step,
    expectation_stats,
    gram,
    kernel,
    prior_kl,
)
from probitgp.kernel import JITTER_RUNGS
from probitgp.posterior import LAMBDA2_CEIL

RTOL = 1e-10


def lean_core_instances(count=24, seed=20):
    """(K, sites) pairs: kernel and random SPD priors, n from 1 to 40, sites
    that are zero, at the ceiling, strong (b up to 600), random or from an
    E-step."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = 1 if i % 5 == 0 else int(rng.integers(2, 41))
        if i % 2:
            K = helpers.gram_from_matrix(helpers.random_spd(n, rng, scale=rng.uniform(0.1, 5.0)))
        else:
            X = rng.standard_normal((n, int(rng.integers(1, 4))))
            K = gram(X, Hyperparams(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.5)))
        kind = i % 4
        lam1, lam2 = helpers.random_sites_arrays(n, rng)
        if kind == 0:
            lam1, lam2 = np.zeros(n), np.zeros(n)
        elif kind == 1:
            lam2[:] = LAMBDA2_CEIL
            lam2[rng.uniform(size=n) < 0.3] = 0.0
        elif kind == 2:
            lam2 = -0.5 * rng.uniform(0.0, 600.0, n)
            lam2[0] = -300.0  # b = 600
            lam1 = rng.uniform(-30.0, 30.0, n)
        else:
            y = np.where(rng.standard_normal(n) > 0, 1.0, -1.0)
            sites = e_step(
                assemble(K, Sites.zeros(n)), y, step_size=0.1, iters=int(rng.integers(1, 8))
            )[0].sites
            lam1, lam2 = sites.lam1, sites.lam2
        yield K, Sites(lam1, lam2)


def assert_close(actual, expected):
    """Max-norm relative agreement: |actual - expected| <= RTOL * max |expected|."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    scale = max(float(np.max(np.abs(expected))), np.finfo(float).tiny)
    assert np.max(np.abs(actual - expected)) <= RTOL * scale, (actual, expected)


class TestLeanCore:
    def test_matches_full_covariance_reference(self):
        count = 0
        for K, sites in lean_core_instances():
            post = assemble(K, sites)
            ref = helpers.assemble_reference(K, sites)
            assert_close(post.m, ref.m)
            assert_close(post.var, np.diag(ref.S))
            assert_close(post.alpha, ref.alpha)
            assert_close(post.log_det_ikb, ref.log_det_ikb)
            assert_close(prior_kl(post), helpers.prior_kl_reference(ref))
            assert_close(post.covariance(), ref.S)
            count += 1
        assert count >= 20

    def test_lazy_covariance_is_built_once_symmetric(self):
        rng = np.random.default_rng(21)
        K = helpers.gram_from_matrix(helpers.random_spd(9, rng))
        sites = Sites(*helpers.random_sites_arrays(9, rng))
        post = assemble(K, sites)
        assert "S" not in vars(post)
        S = post.covariance()
        assert np.array_equal(S, S.T)
        assert np.array_equal(S, helpers.assemble_reference(K, sites).S)

    def test_zero_sites_have_zero_kl(self):
        rng = np.random.default_rng(22)
        for n in (1, 7):
            K = helpers.gram_from_matrix(helpers.random_spd(n, rng))
            post = assemble(K, Sites.zeros(n))
            assert prior_kl(post) == 0.0
            assert np.array_equal(post.var, np.diag(K.K))


class TestExpectationStatsReference:
    def test_bitwise_equal_to_two_log_ndtr_form(self):
        rng = np.random.default_rng(73)
        n = 300
        y = np.where(rng.standard_normal(n) > 0, 1.0, -1.0)
        mean = rng.standard_normal(n) * 10.0 ** rng.uniform(-2, 1.6, n)
        var = 10.0 ** rng.uniform(-8, 3, n)
        var[::7] = 0.0  # every node at the mean
        new = expectation_stats(y, mean, var)
        ref = helpers.expectation_stats_reference(y, mean, var)
        for a, b in zip(new, ref):
            assert np.array_equal(a, b)


class TestSharedDistances:
    @pytest.mark.parametrize("fails", [None, JITTER_RUNGS - 1])
    def test_gram_from_distances_is_bitwise_the_gram_of_x(self, fails, monkeypatch):
        """At the first rung, with the real Cholesky, and at the top one, with
        a Cholesky that fails four times per gram call."""
        if fails is not None:
            monkeypatch.setattr(kernel, "cholesky", helpers.failing_cholesky(fails, per_call=True))
        rng = np.random.default_rng(24)
        for n in (1, 5, 30):
            X = rng.standard_normal((n, 3))
            ds = Dataset("d", X, np.ones(n))
            for theta in (Hyperparams(-1.0, 0.5), Hyperparams(0.7, -0.3)):
                K = gram(X, theta, ds.distances)
                assert helpers.rung(K, theta) == (fails or 0)
                assert np.array_equal(K.K, gram(X, theta).K)
                assert np.array_equal(K.K, cross_gram(X, X, theta) + K.jitter * np.eye(n))
                assert np.array_equal(K.K, helpers.gram_reference(X, theta, K.jitter))
        assert ds.distances is ds.distances
