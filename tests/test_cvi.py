"""Natural-gradient E-step: fixed points, exactness on conjugate sites, traces."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import helpers
from probitgp import (
    MarginalMoments,
    NumericsError,
    Sites,
    assemble,
    cvi,
    e_step,
    elbo,
    expectation_stats,
    gram,
    Hyperparams,
    posterior,
)


def toy_problem(n=12, seed=0):
    ds = helpers.make_blobs(n, 2, seed)
    return gram(ds.X, Hyperparams(0.3, 0.0)), ds.y


class TestMechanics:
    def test_zero_iters_returns_start_and_single_trace_entry(self):
        K, y = toy_problem()
        start = Sites.zeros(len(y))
        post, trace = e_step(assemble(K, start), y, step_size=0.1, iters=0)
        assert post.sites is start
        assert len(trace) == 1
        assert_allclose(trace[0], elbo(assemble(K, start), y)[0], rtol=0)

    def test_trace_length_and_final_value(self):
        K, y = toy_problem()
        post, trace = e_step(assemble(K, Sites.zeros(len(y))), y, step_size=0.1, iters=15)
        assert len(trace) == 16
        # the reported trace end is exactly the ELBO of the returned sites
        assert trace[-1] == elbo(assemble(K, post.sites), y)[0]

    @pytest.mark.parametrize("breakdown",
                             ["non_finite_update", "negative_variance", "assembly_fails"])
    def test_breakdown_keeps_the_last_finite_state(self, monkeypatch, caplog, breakdown):
        """Non-finite sites from the third update, a negative marginal
        variance in its posterior, or an assembly of it that fails, is a
        divergence: the E-step returns the state after two updates, as
        iters=2 does, and logs a warning."""
        K, y = toy_problem()
        post2, trace2 = e_step(assemble(K, Sites.zeros(len(y))), y, step_size=0.1, iters=2)
        calls = []
        if breakdown == "non_finite_update":
            real = posterior.expectation_stats

            def stats(y, mean, var):  # the third call serves the third update
                e, g_m, g_v = real(y, mean, var)
                calls.append(1)
                return e, (np.full_like(g_m, np.nan) if len(calls) == 3 else g_m), g_v

            monkeypatch.setattr(posterior, "expectation_stats", stats)
        elif breakdown == "assembly_fails":
            def assemble_that_fails(K, sites):
                calls.append(1)
                if len(calls) == 3:  # the posterior of the third update
                    raise NumericsError("site precisions overflow the posterior factor")
                return assemble(K, sites)

            monkeypatch.setattr(cvi, "assemble", assemble_that_fails)
        else:
            def assemble_with_a_negative_variance(K, sites):
                post = assemble(K, sites)
                calls.append(1)
                if len(calls) == 3:  # the posterior of the third update
                    var = post.var.copy()
                    var[4] = -1e-9
                    post = dataclasses.replace(post, var=var)
                return post

            monkeypatch.setattr(cvi, "assemble", assemble_with_a_negative_variance)
        post, trace = e_step(assemble(K, Sites.zeros(len(y))), y, step_size=0.1, iters=10)
        assert trace == trace2
        assert np.array_equal(post.sites.lam1, post2.sites.lam1)
        # assembled again from the last finite sites, bit for bit
        for field in ("m", "var", "alpha", "chol_a", "V"):
            assert np.array_equal(getattr(post, field), getattr(post2, field)), field
        assert "diverged at iteration 3" in caplog.text

    def test_invalid_arguments(self):
        K, y = toy_problem()
        with pytest.raises(ValueError):
            e_step(assemble(K, Sites.zeros(len(y))), y, step_size=0.0, iters=20)
        with pytest.raises(ValueError):
            e_step(assemble(K, Sites.zeros(len(y))), y, step_size=1.5, iters=20)
        with pytest.raises(ValueError):
            e_step(assemble(K, Sites.zeros(len(y))), y, step_size=0.1, iters=-1)


class TestConvergence:
    def test_elbo_nondecreasing_from_zero_start(self):
        for seed in range(4):
            K, y = toy_problem(seed=seed)
            _, trace = e_step(assemble(K, Sites.zeros(len(y))), y, step_size=0.1, iters=60)
            diffs = np.diff(trace)
            assert diffs.min() > -1e-9

    def test_fixed_point_is_stationary(self):
        """At convergence another update leaves sites essentially unchanged."""
        K, y = toy_problem()
        sites = e_step(assemble(K, Sites.zeros(len(y))), y, step_size=0.1, iters=400)[0].sites
        moved = e_step(assemble(K, sites), y, step_size=0.1, iters=1)[0].sites
        assert np.max(np.abs(moved.lam1 - sites.lam1)) < 1e-9
        assert np.max(np.abs(moved.lam2 - sites.lam2)) < 1e-9

    def test_fixed_point_satisfies_stationarity_equations(self):
        """lam1 = g_m - 2 g_v m and lam2 = g_v at the converged posterior."""
        K, y = toy_problem(seed=3)
        sites = e_step(assemble(K, Sites.zeros(len(y))), y, step_size=0.1, iters=500)[0].sites
        post = assemble(K, sites)
        _, g_m, g_v = expectation_stats(y, post.m, np.diag(post.covariance()))
        assert_allclose(sites.lam1, g_m - 2.0 * g_v * post.m, atol=1e-8)
        assert_allclose(sites.lam2, g_v, atol=1e-8)

    def test_beats_hand_perturbed_sites(self):
        """Converged ELBO dominates nearby site settings (local optimality)."""
        K, y = toy_problem(seed=1)
        post, trace = e_step(assemble(K, Sites.zeros(len(y))), y, step_size=0.1, iters=400)
        sites = post.sites
        best = trace[-1]
        rng = np.random.default_rng(7)
        for _ in range(20):
            lam1 = sites.lam1 + 0.05 * rng.standard_normal(sites.n)
            lam2 = np.minimum(sites.lam2 + 0.05 * rng.standard_normal(sites.n), -1e-10)
            assert elbo(assemble(K, Sites(lam1, lam2)), y)[0] <= best + 1e-10


class TestConjugateSurrogate:
    """A Gaussian pseudo-likelihood makes every quantity closed form.  It
    stands in for the probit expectations by patching the
    expectation_stats that posterior.elbo, the E-step's ELBO, reads."""

    def test_full_step_lands_exactly_in_one_iteration(self, monkeypatch):
        rng = np.random.default_rng(11)
        n, noise = 8, 0.4
        X = rng.standard_normal((n, 2))
        t = rng.standard_normal(n)
        K = gram(X, Hyperparams(0.2, 0.1))
        monkeypatch.setattr(posterior, "expectation_stats", helpers.gaussian_loglik_stats(noise, t))
        sites = e_step(assemble(K, Sites.zeros(n)), np.ones(n), step_size=1.0, iters=1)[0].sites
        # with constant curvature the update is beta-independent at beta=1
        assert_allclose(sites.lam1, t / noise, rtol=1e-12)
        assert_allclose(sites.lam2, np.full(n, -0.5 / noise), rtol=1e-12)
        # and a second iteration does not move
        again = e_step(assemble(K, sites), np.ones(n), step_size=1.0, iters=1)[0].sites
        assert_allclose(again.lam1, sites.lam1, rtol=1e-12)
        assert_allclose(again.lam2, sites.lam2, rtol=1e-12)

    def test_damped_steps_converge_to_same_point(self, monkeypatch):
        rng = np.random.default_rng(12)
        n, noise = 6, 0.7
        X = rng.standard_normal((n, 2))
        t = rng.standard_normal(n)
        K = gram(X, Hyperparams(0.0, 0.0))
        monkeypatch.setattr(posterior, "expectation_stats", helpers.gaussian_loglik_stats(noise, t))
        sites = e_step(assemble(K, Sites.zeros(n)), np.ones(n), step_size=0.3, iters=200)[0].sites
        assert_allclose(sites.lam1, t / noise, atol=1e-10)
        assert_allclose(sites.lam2, np.full(n, -0.5 / noise), atol=1e-10)


class TestStructure:
    def test_permutation_equivariance(self):
        """Reordering the data reorders the learned sites identically."""
        K, y = toy_problem(n=10, seed=5)
        X = helpers.make_blobs(10, 2, 5).X
        perm = np.random.default_rng(9).permutation(10)
        Kp = gram(X[perm], Hyperparams(0.3, 0.0))
        s1 = e_step(assemble(K, Sites.zeros(10)), y, step_size=0.1, iters=50)[0].sites
        s2 = e_step(assemble(Kp, Sites.zeros(10)), y[perm], step_size=0.1, iters=50)[0].sites
        assert_allclose(s2.lam1, s1.lam1[perm], atol=1e-10)
        assert_allclose(s2.lam2, s1.lam2[perm], atol=1e-10)

    def test_label_flip_flips_lam1(self):
        """Negating every label negates the site means and keeps curvatures."""
        K, y = toy_problem(n=8, seed=6)
        s1 = e_step(assemble(K, Sites.zeros(8)), y, step_size=0.1, iters=40)[0].sites
        s2 = e_step(assemble(K, Sites.zeros(8)), -y, step_size=0.1, iters=40)[0].sites
        assert_allclose(s2.lam1, -s1.lam1, atol=1e-12)
        assert_allclose(s2.lam2, s1.lam2, atol=1e-12)

    def test_lam2_stays_strictly_negative(self):
        K, y = toy_problem(n=14, seed=7)
        sites = e_step(assemble(K, Sites.zeros(14)), y, step_size=0.1, iters=30)[0].sites
        assert np.all(sites.lam2 <= -1e-10)

    def test_deterministic(self):
        K, y = toy_problem(n=9, seed=8)
        post_a, ta = e_step(assemble(K, Sites.zeros(9)), y, step_size=0.1, iters=25)
        post_b, tb = e_step(assemble(K, Sites.zeros(9)), y, step_size=0.1, iters=25)
        a, b = post_a.sites, post_b.sites
        assert np.array_equal(a.lam1, b.lam1) and np.array_equal(a.lam2, b.lam2)
        assert ta == tb
