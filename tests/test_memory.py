"""Working sets of scoring, assembly, covariance(), EP, the Gram matrix, the
row reader and fit.

tracemalloc sees every numpy buffer, so its peak over a call is the most
memory the call held at once (BLAS's own scratch aside).  The bounds:
predictive_z computes each block's kernel values in new arrays and frees
them before the next block, so its peak does not grow with the number of
blocks, and predict scores holding the posterior's
ScoringState only, so the posterior it assembled is freed first; assemble
keeps at most three n x n arrays alive, its outputs V and chol_a included;
covariance() forms S = K - V'V, exactly symmetric as it is, in two n x n
buffers; EP forms no n x n array of its own and drops the previous
posterior before it assembles the next; gram forms no identity, so its
peak is the three n x n buffers of the Matern evaluation; read_feature_rows keeps no label
strings; fit holds one E-step posterior at a time.  Where the code works in
place, it must give the same bits as the former expressions.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

import helpers
from probitgp import (
    GramMatrix, Hyperparams, Sites, TrainConfig, assemble, ep_inference, fit, gram, kernel,
    posterior, predictive_z, read_feature_rows,
)
from probitgp.posterior import PREDICT_BLOCK
import probitgp.cli as cli

N = 300
NN_BYTES = N * N * 8


def peak_bytes(fn, *args):
    """(result, peak bytes traced while fn ran)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def scoring_instance(n, rows, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 4))
    theta = Hyperparams(0.5, 0.2)
    sites = Sites(rng.standard_normal(n), -rng.uniform(0.0, 3.0, n))
    return gram(X, theta), sites, theta, X, 1.5 * rng.standard_normal((rows, 4))


def test_scoring_peak_does_not_grow_with_the_block_count():
    K, sites, theta, X, X_test = scoring_instance(N, 8 * PREDICT_BLOCK)
    state = assemble(K, sites).scoring()  # its factor R is built once, not per call
    z_one, one = peak_bytes(predictive_z, state, X_test[:PREDICT_BLOCK])
    z_all, eight = peak_bytes(predictive_z, state, X_test)
    assert eight <= 1.1 * one, (one, eight)
    # the Matern evaluation's three arrays; the kernel values and trmm's copy
    # of them, the two a block keeps after it, take less
    assert one <= 3.25 * N * PREDICT_BLOCK * 8, one / (N * PREDICT_BLOCK * 8)
    assert np.array_equal(z_one, z_all[:PREDICT_BLOCK])


def test_scoring_state_scores_as_the_posterior():
    """A scoring state holds the posterior's rows and theta but no Gram
    matrix, and scores the same bits once its posterior is freed."""
    K, sites, theta, X, X_test = scoring_instance(40, PREDICT_BLOCK + 3, seed=1)
    post = assemble(K, sites)
    z = predictive_z(post.scoring(), X_test)
    state, freed = post.scoring(), weakref.ref(post)
    del post
    assert freed() is None
    assert state.X is X and state.theta is theta
    assert not any(isinstance(v, GramMatrix) for v in vars(state).values())
    assert np.array_equal(predictive_z(state, X_test), z)


def test_predict_frees_the_posterior_before_scoring(tmp_path, monkeypatch):
    """The posterior predict assembles, and its Gram matrix, are gone before
    the first block's kernel is computed: scoring holds its ScoringState only."""
    ds = helpers.make_blobs(18, 2, 0)
    train, score, model = tmp_path / "train.csv", tmp_path / "score.csv", tmp_path / "m.model"
    train.write_text("".join(f"{a!r},{b!r},{int(y)}\n" for (a, b), y in zip(ds.X.tolist(), ds.y)))
    rows = np.random.default_rng(1).standard_normal((PREDICT_BLOCK + 3, 2))
    score.write_text("".join(f"{a!r},{b!r}\n" for a, b in rows.tolist()))
    assert cli.run(["fit", "--data", str(train), "--out", str(model),
                    "--e-iters", "8", "--m-iters", "1", "--rounds", "2"]) == 0
    refs, alive = [], []
    real_assemble, real_cross_gram = cli.assemble, posterior.cross_gram

    def assemble_spy(K, sites):
        post = real_assemble(K, sites)
        refs.extend((weakref.ref(post), weakref.ref(post.K)))
        return post

    def cross_gram_spy(*args, **kwargs):
        alive.append([ref() is not None for ref in refs])
        return real_cross_gram(*args, **kwargs)

    monkeypatch.setattr(cli, "assemble", assemble_spy)
    monkeypatch.setattr(posterior, "cross_gram", cross_gram_spy)
    out = tmp_path / "pred.csv"
    assert cli.run(["predict", "--model", str(model), "--data", str(score),
                    "--label", "none", "--out", str(out)]) == 0
    assert alive == [[False, False], [False, False]]
    assert len(out.read_text().splitlines()) == 2 + rows.shape[0]


def test_assemble_keeps_at_most_three_square_arrays():
    K, sites, _, _, _ = scoring_instance(N, 1)
    _, peak = peak_bytes(assemble, K, sites)
    assert peak <= 3 * NN_BYTES, peak / NN_BYTES


def test_covariance_forms_no_symmetrized_copy():
    """V'V and S = K - V'V only: at n = 166 each n x n array is below
    numpy's 256 KiB threshold for reusing a temporary, so a symmetrizing
    0.5 (S + S') would add a third (3.00 n x n)."""
    n = 166
    K, sites, _, _, _ = scoring_instance(n, 1)
    post = assemble(K, sites)
    S, peak = peak_bytes(post.covariance)
    assert peak <= 2.25 * n * n * 8, peak / (n * n * 8)
    assert np.array_equal(S, S.T)


def test_ep_frees_the_sweep_before_assembling():
    """A sweep reads only the previous posterior's marginals and forms no
    n x n array, and it drops that posterior (V, chol_a) before the next
    assembly: the peak is one assembly's (2.19 n x n); keeping the previous
    posterior reads 4.25."""
    ds = helpers.make_blobs(N, 8, seed=8)
    K = gram(ds.X, Hyperparams(1.0, 1.0))
    _, peak = peak_bytes(ep_inference, K, ds.y)
    assert peak <= 2.5 * NN_BYTES, peak / NN_BYTES


def test_fit_keeps_one_e_step_posterior_alive():
    """fit with the predict set-up's flags (one round, no M-step iterations,
    10 E-step iterations at step 0.5): each E-step drops its posterior before
    it assembles the next, so the peak is K, the posterior that fit holds
    and one assembly; a second E-step posterior alive reads 8.45 n x n."""
    ds = helpers.make_blobs(N, 8, seed=8)
    ds.distances  # cached on the dataset before tracing, as cv and grid reuse it
    cfg = TrainConfig(outer_rounds=1, m_iters=0, e_iters=10, e_step_size=0.5,
                      theta0=Hyperparams(1.0, 1.0))
    _, peak = peak_bytes(fit, ds, cfg)
    assert peak <= 7 * NN_BYTES, peak / NN_BYTES


@pytest.mark.parametrize("zero_sites", (False, True))
def test_assemble_in_place_is_bitwise_the_former_assembly(zero_sites):
    rng = np.random.default_rng(5)
    for n in (1, 2, 17, 120):
        X = rng.standard_normal((n, 3))
        K = gram(X, Hyperparams(rng.uniform(-1.0, 1.5), rng.uniform(-1.0, 1.0)))
        lam2 = -0.5 * rng.uniform(0.0, 50.0, n)
        if zero_sites:
            lam2[rng.uniform(size=n) < 0.4] = 0.0
        sites = Sites(rng.standard_normal(n), lam2)
        post = assemble(K, sites)
        ref = helpers.assemble_in_new_arrays(K, sites)
        for field in ("m", "var", "alpha", "sqrt_b", "chol_a", "V"):
            assert np.array_equal(getattr(post, field), getattr(ref, field)), (n, field)
        assert post.log_det_ikb == ref.log_det_ikb
        assert np.array_equal(post.covariance(), helpers.assemble_reference(K, sites).S)


@pytest.mark.parametrize("given_distances", (False, True))
@pytest.mark.parametrize("first_rungs_fail", (False, True))
def test_gram_forms_no_identity(given_distances, first_rungs_fail, monkeypatch):
    """The peak is the Matern evaluation's three n x n buffers; trying the
    jitter rungs adds no identity and no second copy of the kernel, also
    when the first rungs fail (a Cholesky that fails three times, each
    failure with a real attempt's scratch)."""
    if first_rungs_fail:
        monkeypatch.setattr(kernel, "cholesky", helpers.failing_cholesky(3))
    rng = np.random.default_rng(6)
    X = rng.standard_normal((N, 4))
    theta = Hyperparams(0.3, 0.2)
    args = (X, theta, kernel.euclidean(X)) if given_distances else (X, theta)
    K, peak = peak_bytes(gram, *args)
    assert peak <= 3.05 * NN_BYTES, peak / NN_BYTES
    assert helpers.rung(K, theta) == (3 if first_rungs_fail else 0)
    assert np.array_equal(K.K, helpers.gram_reference(X, theta, K.jitter))


def test_feature_rows_keep_no_label_strings(tmp_path):
    """Dropping the label column costs no memory per row."""
    rng = np.random.default_rng(7)
    X = rng.standard_normal((5000, 4))
    labels = np.where(rng.uniform(size=5000) < 0.5, "negative", "positive")
    plain, labelled = tmp_path / "plain.csv", tmp_path / "labelled.csv"
    plain.write_text("".join(",".join("%.9g" % v for v in row) + "\n" for row in X))
    labelled.write_text("".join(
        ",".join("%.9g" % v for v in row) + f",{label}\n" for row, label in zip(X, labels)
    ))
    want, without = peak_bytes(read_feature_rows, plain)
    got, with_labels = peak_bytes(read_feature_rows, labelled, "last")
    assert np.array_equal(got, want)
    assert with_labels <= 1.1 * without, (without, with_labels)
