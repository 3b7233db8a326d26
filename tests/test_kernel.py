"""Covariance function and Gram construction."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import cholesky

from helpers import matern52
from probitgp import FactorizationError, Hyperparams, cross_gram, gram
from probitgp.kernel import JITTER_CAP, JITTER_DEFAULT

RNG = np.random.default_rng(42)

# (1 + sqrt5 + 5/3) * exp(-sqrt5), frozen from 30-digit arithmetic
UNIT_VALUE_AT_R1 = 0.52399410883182031


class TestPointwise:
    def test_unit_hyperparams_at_unit_distance(self):
        assert_allclose(matern52([0.0], [1.0], Hyperparams(0.0, 0.0)), UNIT_VALUE_AT_R1, rtol=1e-15)

    def test_zero_distance_gives_magnitude_squared(self):
        for lm in (-0.7, 0.0, 1.3):
            theta = Hyperparams(0.2, lm)
            assert_allclose(matern52([1.0, 2.0], [1.0, 2.0], theta), theta.magnitude ** 2, rtol=1e-15)

    def test_symmetry_in_arguments(self):
        theta = Hyperparams(0.3, -0.2)
        for _ in range(20):
            a, b = RNG.standard_normal(4), RNG.standard_normal(4)
            assert matern52(a, b, theta) == matern52(b, a, theta)

    def test_stationarity_shift_invariance(self):
        theta = Hyperparams(-0.1, 0.4)
        a, b, shift = RNG.standard_normal(3), RNG.standard_normal(3), RNG.standard_normal(3)
        assert_allclose(matern52(a + shift, b + shift, theta), matern52(a, b, theta), rtol=1e-12)

    def test_monotone_decay_in_distance(self):
        theta = Hyperparams(0.0, 0.0)
        r = np.linspace(0.0, 8.0, 200)
        vals = np.array([matern52([0.0], [ri], theta) for ri in r])
        assert np.all(np.diff(vals) < 0)
        assert vals[0] == pytest.approx(1.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            matern52([0.0, 1.0], [0.0], Hyperparams())

    def test_non_finite_hyperparams_rejected(self):
        with pytest.raises(ValueError):
            Hyperparams(np.inf, 0.0)
        with pytest.raises(ValueError):
            Hyperparams(0.0, np.nan)


class TestGram:
    def test_matches_pointwise_loop(self):
        """Vectorized Gram equals the scalar kernel evaluated pairwise."""
        X = RNG.standard_normal((7, 3))
        theta = Hyperparams(0.4, -0.3)
        G = cross_gram(X, X, theta)
        expected = np.array([[matern52(a, b, theta) for b in X] for a in X])
        assert_allclose(G, expected, atol=1e-14)

    def test_cross_gram_block_orientation(self):
        X = RNG.standard_normal((5, 2))
        Z = RNG.standard_normal((3, 2))
        G = cross_gram(X, Z, theta := Hyperparams())
        assert G.shape == (5, 3)
        assert_allclose(G[2, 1], matern52(X[2], Z[1], theta), rtol=1e-12)

    def test_gram_is_spd_and_jittered(self):
        X = RNG.standard_normal((30, 4))
        theta = Hyperparams(0.1, 0.5)
        K = gram(X, theta)
        assert K.jitter == pytest.approx(JITTER_DEFAULT * theta.magnitude ** 2)
        assert_allclose(K.K, K.K.T, atol=0)
        assert np.all(np.linalg.eigvalsh(K.K) > 0)
        cholesky(K.K, lower=True)  # raises LinAlgError unless K is positive definite

    def test_duplicate_rows_make_base_kernel_singular(self):
        """Degeneracy witness: without jitter a duplicated input kills rank."""
        X = RNG.standard_normal((6, 2))
        X = np.vstack([X, X[0]])
        base = cross_gram(X, X, Hyperparams())
        assert np.linalg.matrix_rank(base, tol=1e-10) == 6

    def test_jitter_escalation_on_duplicates(self):
        X = np.zeros((4, 2))  # all rows identical: worst case
        K = gram(X, Hyperparams(), jitter=0.0)
        assert K.jitter > 0  # escalated off the explicit zero
        assert K.jitter <= JITTER_CAP * 1.0 + 1e-18

    def test_explicit_jitter_respected_when_feasible(self):
        X = RNG.standard_normal((8, 2))
        K = gram(X, Hyperparams(), jitter=3e-4)
        assert K.jitter == 3e-4

    def test_escalated_jitter_never_exceeds_cap(self):
        """The ladder tops out at the cap; on PSD kernels it always lands."""
        for seed in range(5):
            rng = np.random.default_rng(seed)
            X = np.repeat(rng.standard_normal((5, 2)), 3, axis=0)
            theta = Hyperparams(rng.uniform(-1, 1), rng.uniform(-1, 1))
            K = gram(X, theta, jitter=0.0)
            assert 0 <= K.jitter <= JITTER_CAP * theta.magnitude ** 2 * (1 + 1e-12)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            gram(RNG.standard_normal((3, 1)), Hyperparams(), jitter=-1e-6)
