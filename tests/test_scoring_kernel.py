"""The scoring kernel against its former form.

latent_predict multiplies each block by the posterior's cached factor
R = chol_a^-1 B^1/2 (one triangular matrix product) where it used to solve
with chol_a; helpers.latent_predict_reference is the former solve.  The
mean is the same expression and must agree to the bit.  The variance rounds
differently, so z = mean / sqrt(1 + var) must agree within 1e-9 relative
over zero sites, sites at the ceiling, strong random sites (b up to 600)
and E-step sites, n from 1 to 200 and log-hyperparameters up to 5.

kernel._matern evaluates the Matern expression in place; it must equal the
plain expression (helpers.matern_expression) to the bit, on arrays and on
scalars, and must never write into Dataset.distances, which gram reads and
the Dataset caches.
"""

import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import helpers
from probitgp import (
    Hyperparams,
    NumericsError,
    Sites,
    TrainConfig,
    assemble,
    cross_gram,
    e_step,
    fit,
    gram,
    latent_predict,
    predictive_z,
)
from probitgp.kernel import _matern
from probitgp.posterior import LAMBDA2_CEIL, PREDICT_BLOCK

SITE_KINDS = ("zero", "ceiling", "strong", "e_step")
Z_RTOL = 1e-9


def scoring_instance(kind, seed):
    """(post, k_star, k_ss) with some test rows on training rows."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(1, 201)), int(rng.integers(1, 6))
    X = rng.standard_normal((n, d))
    Z = np.concatenate([1.5 * rng.standard_normal((int(rng.integers(1, 40)), d)), X[:5]])
    theta = Hyperparams(rng.uniform(-2.0, 5.0), rng.uniform(-2.0, 5.0))
    K = gram(X, theta)
    if kind == "zero":
        sites = Sites.zeros(n)
    elif kind == "ceiling":
        sites = Sites(rng.uniform(-2.0, 2.0, n), np.full(n, LAMBDA2_CEIL))
    elif kind == "strong":
        sites = Sites(rng.uniform(-20.0, 20.0, n), -0.5 * rng.uniform(0.0, 600.0, n))
    else:
        y = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
        sites = e_step(assemble(K, Sites.zeros(n)), y, step_size=0.5, iters=15)[0].sites
    k_star = cross_gram(X, Z, theta)
    return assemble(K, sites), k_star, np.full(Z.shape[0], theta.magnitude ** 2)


@pytest.mark.parametrize("kind", SITE_KINDS)
def test_latent_predict_matches_the_triangular_solve(kind):
    for seed in range(12):
        post, k_star, k_ss = scoring_instance(kind, seed)
        kept = k_star.copy()
        mm = latent_predict(post, k_star, k_ss)
        ref = helpers.latent_predict_reference(None, k_star, k_ss, None, post=post)
        assert np.array_equal(k_star, kept)  # the caller's block is not overwritten
        assert np.array_equal(mm.mean, ref.mean)
        z = mm.mean / np.sqrt(1.0 + mm.var)
        z_ref = ref.mean / np.sqrt(1.0 + ref.var)
        assert np.all(np.abs(z - z_ref) <= Z_RTOL * np.abs(z_ref))


def test_zero_sites_give_the_prior_variance_exactly():
    post, k_star, k_ss = scoring_instance("zero", 3)
    mm = latent_predict(post, k_star, k_ss)
    assert np.array_equal(mm.var, k_ss)
    assert not post.R.any()


def test_factor_is_cached_per_posterior():
    post, k_star, k_ss = scoring_instance("e_step", 4)
    assert post.R is post.R
    assert np.array_equal(np.triu(post.R, 1), np.zeros_like(post.R))


def test_read_only_block_is_scored_and_left_alone():
    post, k_star, k_ss = scoring_instance("strong", 5)
    k_star.setflags(write=False)
    kept = k_star.copy()
    mm = latent_predict(post, k_star, k_ss)
    assert np.array_equal(k_star, kept)
    assert mm.var.shape == k_ss.shape


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("kind", SITE_KINDS)
def test_non_finite_block_is_rejected(kind):
    """trmm does not check its input, so a NaN or inf kernel value must
    still trip the variance check (NaN fails var >= VAR_TOL)."""
    post, k_star, k_ss = scoring_instance(kind, 6)
    for value in (np.nan, np.inf):
        bad = k_star.copy()
        bad[:, -1] = value
        with pytest.raises(NumericsError, match="not finite"):
            latent_predict(post, bad, k_ss)


def test_predictive_z_names_a_row_whose_kernel_overflows():
    """A finite row far enough out squares to inf in cdist; the Matern form
    then gives inf * 0 = NaN.  The row is named, with no RuntimeWarning."""
    rng = np.random.default_rng(8)
    X = rng.standard_normal((20, 2))
    theta = Hyperparams(0.0, 0.0)
    post = assemble(gram(X, theta), Sites(rng.uniform(-1.0, 1.0, 20), np.full(20, -0.5)))
    X_test = rng.standard_normal((PREDICT_BLOCK + 5, 2))
    X_test[PREDICT_BLOCK + 3, 0] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"test row {PREDICT_BLOCK + 3}:"):
            predictive_z(post, theta, X, X_test)


class TestMaternInPlace:
    @pytest.mark.parametrize("overwrite", (False, True))
    def test_arrays_match_the_expression_bitwise(self, overwrite):
        rng = np.random.default_rng(7)
        for _ in range(50):
            theta = Hyperparams(rng.uniform(-8.0, 8.0), rng.uniform(-6.0, 6.0))
            shape = tuple(int(s) for s in rng.integers(0, 30, size=2))
            dist = np.abs(rng.standard_normal(shape)) * 10.0 ** rng.uniform(-3.0, 3.0)
            expected = helpers.matern_expression(dist, theta)
            given = dist.copy()
            out = _matern(given, theta, overwrite=overwrite)
            assert out.shape == shape
            assert np.array_equal(out, expected)
            if not overwrite:
                assert np.array_equal(given, dist)

    def test_scalars_match_the_expression_bitwise(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            theta = Hyperparams(rng.uniform(-8.0, 8.0), rng.uniform(-6.0, 6.0))
            r = float(np.abs(rng.standard_normal()) * 10.0 ** rng.uniform(-3.0, 3.0))
            for dist in (r, np.float64(r), np.array(r)):
                assert float(_matern(dist, theta)) == float(helpers.matern_expression(r, theta))
        assert helpers.matern52([0.0], [0.0], Hyperparams(0.0, 0.5)) == np.exp(0.5) ** 2

    def test_cross_gram_is_the_expression_of_cdist(self):
        rng = np.random.default_rng(9)
        X, Z = rng.standard_normal((13, 3)), rng.standard_normal((7, 3))
        theta = Hyperparams(0.4, -0.3)
        assert np.array_equal(cross_gram(X, Z, theta), helpers.matern_expression(cdist(X, Z), theta))


def test_fit_leaves_dataset_distances_unchanged():
    ds = helpers.make_blobs(40, 3, seed=21)
    before = ds.distances.copy()
    assert not ds.distances.flags.writeable
    cfg = TrainConfig(e_iters=5, m_iters=3, m_lr=0.01, outer_rounds=2, outer_tol=0.0)
    fit(ds, cfg)
    assert np.array_equal(ds.distances, before)
    assert np.array_equal(gram(ds.X, cfg.theta0, None, ds.distances).K, gram(ds.X, cfg.theta0).K)
