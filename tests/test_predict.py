"""The one prediction path against the former one-shot formula.

posterior.predictive_z scores test rows in blocks of PREDICT_BLOCK;
helpers.predict_reference scores them all with one cross_gram and one
latent_predict.  When the rows fit in one block both run the same operations
on the same arrays and must agree bit for bit: the reference, too, builds
its kernel block as (test rows, training rows) and multiplies its transpose
by the scoring state's triangular factor.  Beyond one block the triangular
product and the column sums may round differently at block edges, so z
must agree to 1e-13 relative with identical signs.
"""

import numpy as np
import pytest

import helpers
from probitgp import Hyperparams, Sites, assemble, e_step, gram, predictive_z
from probitgp.posterior import LAMBDA2_CEIL, PREDICT_BLOCK

# one row, one block, a block and a one-row tail, three blocks; and fixed
# counts that cross several block edges whatever PREDICT_BLOCK is
ROW_COUNTS = tuple(sorted({1, PREDICT_BLOCK, PREDICT_BLOCK + 1, 3 * PREDICT_BLOCK,
                           256, 257, 768, 1024, 1025, 3072}))
SITE_KINDS = ("zero", "ceiling", "e_step")
RTOL = 1e-13


def instance(n_rows, kind, seed):
    """(post, theta, X_train, X_test) on random data with the given sites."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(1, 41)), 3
    X_train = rng.standard_normal((n, d))
    X_test = 1.5 * rng.standard_normal((n_rows, d))
    y = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    theta = Hyperparams(rng.uniform(-0.5, 1.0), rng.uniform(-0.5, 1.0))
    K = gram(X_train, theta)
    if kind == "zero":
        sites = Sites.zeros(n)
    elif kind == "ceiling":
        sites = Sites(rng.uniform(-2.0, 2.0, n), np.full(n, LAMBDA2_CEIL))
    else:
        sites = e_step(assemble(K, Sites.zeros(n)), y, step_size=0.5, iters=15)[0].sites
    return assemble(K, sites), theta, X_train, X_test


@pytest.mark.parametrize("kind", SITE_KINDS)
@pytest.mark.parametrize("n_rows", ROW_COUNTS)
def test_blocked_path_matches_one_shot_formula(n_rows, kind):
    for seed in range(3):
        post, theta, X_train, X_test = instance(n_rows, kind, seed)
        z = predictive_z(post.scoring(), X_test)
        ref = helpers.predict_reference(post, theta, X_train, X_test)
        assert z.shape == (n_rows,)
        if n_rows <= PREDICT_BLOCK:
            assert np.array_equal(z, ref)
        else:
            assert np.all(np.abs(z - ref) <= RTOL * np.abs(ref))
            assert np.array_equal(np.sign(z), np.sign(ref))
