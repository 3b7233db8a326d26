"""Gaussian posterior from unnormalized exponential-family pseudo-sites.

Sites hold per-point natural parameters (lam1, lam2) with lam2 <= 0.  With
B = diag(-2 lam2) the posterior is N(m, S), S = (K^-1 + B)^-1 and m = S lam1,
assembled without ever forming K^-1 via the symmetrized factor

    A = I + B^1/2 K B^1/2,  chol(A) = L,  V = L^-1 B^1/2 K.

One Cholesky and one triangular solve give diag S = diag K - colsum(V * V),
alpha = K^-1 m and m = K alpha; S = K - V'V itself is formed only on demand
and never kept.  The factor also yields log|I + K B|, the energies and the
latent predictive moments.  The KL needs no inverse: by Woodbury
A^-1 = I - B^1/2 S B^1/2, so tr(K^-1 S) - n = tr(A^-1) - n = -sum_i b_i S_ii.
All of it stays well conditioned even when some sites are exactly zero.

A GaussianPosterior carries the Gram matrix and the sites it was assembled
from, so it is the one value the energies, the E-step, the M-step and
prediction take: none of them is handed K or sites beside it.

Assembly keeps at most three n x n arrays alive, its outputs included:
B^1/2 K and A are built in Fortran order, LAPACK potrf factors A in its own
memory (chol_a) and the triangular solve overwrites B^1/2 K with V.

predictive_z, the one prediction path (GPML Alg. 3.2), scores test rows in
blocks of PREDICT_BLOCK in one workspace allocated per call, so its memory
grows with neither the row count nor the block count.  The variance needs
V = L^-1 B^1/2 k* per block.  Rather than one triangular solve per block,
each posterior keeps R = L^-1 B^1/2, built on first prediction by one
LAPACK triangular inverse and a column scaling; a block then costs one
triangular matrix product V' = k*' R' (BLAS trmm) on the transpose of the
C-ordered block, which is Fortran-contiguous, plus the row sums of
V' * V'.  Prediction reads only alpha and R, so it also takes a
ScoringState holding just those: a caller that keeps that instead of the
posterior frees K, V and chol_a before it scores.  trmm does not check for
NaN or inf, so predictive_z checks each block's kernel values and
latent_predict fails on a NaN variance.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dtrtri

from .errors import FactorizationError, NumericsError
from .kernel import GramMatrix, cross_gram
from .likelihood import MarginalMoments, expectation_stats

# updaters clamp lam2 at or below this (keeps B positive, sites proper)
LAMBDA2_CEIL = -1e-10

# predictive variances may round slightly negative; beyond this it is an error
VAR_TOL = -1e-10

# test rows per predictive_z block: at n = 614 training rows its three kernel
# buffers take 3.8 MB
PREDICT_BLOCK = 256


@dataclass(frozen=True)
class Sites:
    """Natural parameters of the per-point pseudo-likelihood sites."""

    lam1: np.ndarray
    lam2: np.ndarray

    def __post_init__(self):
        # copy before freezing so later caller-side mutation cannot leak in
        lam1 = np.array(self.lam1, dtype=float)
        lam2 = np.array(self.lam2, dtype=float)
        if lam1.ndim != 1 or lam1.shape != lam2.shape:
            raise ValueError("site parameters must be 1-d and aligned")
        if not (np.isfinite(lam1).all() and np.isfinite(lam2).all()):
            raise ValueError("site parameters must be finite")
        if np.any(lam2 > 0):
            raise ValueError("lam2 must be <= 0")
        lam1.setflags(write=False)
        lam2.setflags(write=False)
        object.__setattr__(self, "lam1", lam1)
        object.__setattr__(self, "lam2", lam2)

    @property
    def n(self):
        return self.lam1.size

    @staticmethod
    def zeros(n):
        return Sites(np.zeros(n), np.zeros(n))


@dataclass(frozen=True)
class GaussianPosterior:
    """assemble(K, sites): the posterior mean and marginal variances, the
    factorization behind them, and the GramMatrix K and Sites it came from.

    sqrt_b, chol_a (lower factor of I + B^1/2 K B^1/2), alpha = K^-1 m and
    log_det_ikb = log|I + K B| serve the energies and prediction;
    V = chol_a^-1 B^1/2 K serves covariance(), which forms S anew on every
    call, and R = chol_a^-1 B^1/2 serves predictive variances, built on
    first use and kept.
    """

    m: np.ndarray
    var: np.ndarray
    alpha: np.ndarray
    sqrt_b: np.ndarray
    chol_a: np.ndarray
    log_det_ikb: float
    K: GramMatrix
    V: np.ndarray
    sites: Sites

    def covariance(self):
        """Full posterior covariance, symmetrized; formed anew on every call."""
        S = self.K.K - self.V.T @ self.V
        S = 0.5 * (S + S.T)
        if not np.isfinite(S).all():
            raise NumericsError("posterior covariance has non-finite values")
        return S

    @cached_property
    def R(self):
        """Lower triangular chol_a^-1 B^1/2, built once on first prediction."""
        R, info = dtrtri(self.chol_a, lower=1)
        if info != 0:
            raise NumericsError("posterior factor could not be inverted")
        R *= self.sqrt_b[None, :]
        return R


def assemble(K, sites):
    """Posterior N(m, S) for the given train Gram matrix and sites."""
    Km = K.K
    n = Km.shape[0]
    if sites.n != n:
        raise ValueError("site count must match the Gram matrix")
    sqrt_b = np.sqrt(-2.0 * sites.lam2)
    # Fortran order lets LAPACK work in place: chol_a takes A's memory and
    # V takes bk's, so no n x n array besides these two is made
    bk = np.multiply(sqrt_b[:, None], Km, order="F")
    A = np.multiply(bk, sqrt_b[None, :], order="F")
    A += 0.0  # a zero site gives -0.0 entries; I + (...) made them +0.0
    A[np.diag_indices(n)] += 1.0
    try:
        chol_a = cholesky(A, lower=True, overwrite_a=True)  # also rejects non-finite sites
    except np.linalg.LinAlgError as exc:  # B >= 0 makes this near-impossible
        raise FactorizationError("posterior factorization failed") from exc
    # chol_a and B^1/2 come from the A that cholesky has just checked
    V = solve_triangular(chol_a, bk, lower=True, overwrite_b=True, check_finite=False)
    var = np.diag(Km) - np.einsum("ij,ij->j", V, V)
    k_lam = Km @ sites.lam1
    alpha = sites.lam1 - sqrt_b * cho_solve((chol_a, True), sqrt_b * k_lam, check_finite=False)
    m = Km @ alpha
    log_det_ikb = 2.0 * float(np.sum(np.log(np.diag(chol_a))))
    if not (np.isfinite(m).all() and np.isfinite(var).all()):
        raise NumericsError("posterior assembly produced non-finite values")
    return GaussianPosterior(m, var, alpha, sqrt_b, chol_a, log_det_ikb, K, V, sites)


def ep_like_energy(post):
    """-1/2 log|I + K B| + 1/2 lam1' (K^-1 + B)^-1 lam1 (no site constants)."""
    return -0.5 * post.log_det_ikb + 0.5 * float(post.sites.lam1 @ post.m)


def prior_kl(post):
    """KL( N(m, S) || N(0, K) ) from the assembly cache alone."""
    trace_term = -float(np.sum(post.sqrt_b ** 2 * post.var))  # tr(K^-1 S) - n
    quad_term = float(post.m @ post.alpha)                    # m' K^-1 m
    return 0.5 * (trace_term + quad_term + post.log_det_ikb)


def elbo(post, y):
    """Evidence lower bound: -KL(q || prior) + sum_i E_q[log p(y_i | f_i)]."""
    y = np.asarray(y, dtype=float)
    if y.shape != post.m.shape:
        raise ValueError("labels must align with the posterior")
    e, _, _ = expectation_stats(y, post.m, post.var)
    return float(np.sum(e)) - prior_kl(post)


@dataclass(frozen=True)
class ScoringState:
    """What prediction reads of a GaussianPosterior: alpha and R.

    A caller that keeps only these, and not the posterior, lets K, V and
    chol_a be freed while it scores.
    """

    alpha: np.ndarray
    R: np.ndarray


def latent_predict(post, k_star, k_star_star_diag):
    """Latent predictive moments at test points.

    k_star[i, j] = k(train_i, test_j); k_star_star_diag[j] = k(test_j, test_j).
    post is a GaussianPosterior or its ScoringState.
    Returns MarginalMoments with aligned mean/var arrays; variances are clamped
    at zero, and one that is NaN or below -1e-10 beforehand raises (trmm does
    not check its input, so a non-finite k_star shows up here).  k_star is not
    written to: V' = k_star' R' goes to a fresh array.
    """
    k_star = np.asarray(k_star, dtype=float)
    k_ss = np.asarray(k_star_star_diag, dtype=float)
    if k_star.ndim != 2 or k_star.shape[0] != post.alpha.size:
        raise ValueError("k_star must be (n_train, n_test)")
    if k_ss.shape != (k_star.shape[1],):
        raise ValueError("k_star_star_diag must align with k_star columns")
    mean = k_star.T @ post.alpha
    # overwrite_b would write even into a read-only k_star, so trmm copies it
    Vt = dtrmm(1.0, post.R, k_star.T, side=1, lower=1, trans_a=1)
    var = k_ss - np.einsum("ij,ij->i", Vt, Vt)
    if not np.all(var >= VAR_TOL):  # NaN fails this too
        raise NumericsError("predictive variance is not finite or fell below tolerance")
    var = np.clip(var, 0.0, None)
    return MarginalMoments(mean=mean, var=var)


def predictive_z(post, theta, X_train, X_test):
    """z = E[f*] / sqrt(1 + Var[f*]) per test row, so p(y* | x*) = Phi(y* z).

    post is the posterior at the training rows X_train under theta, or its
    ScoringState.  Rows go through cross_gram and latent_predict
    PREDICT_BLOCK at a time, in one workspace: each block, the last one
    too, is the first n * w entries of flat buffers, reshaped to
    C-contiguous (n, w) arrays.  A row whose kernel values are not finite
    (a squared distance that overflows) is a ValueError that names it.
    """
    n, rows = X_train.shape[0], X_test.shape[0]
    z = np.empty(rows)
    width = min(PREDICT_BLOCK, rows)
    flat = [np.empty(n * width) for _ in range(3)]  # distances / u, scratch, kernel
    finite = np.empty(n * width, dtype=bool)
    k_ss = np.full(width, theta.magnitude ** 2)
    for start in range(0, rows, PREDICT_BLOCK):
        block = X_test[start:start + PREDICT_BLOCK]
        w = block.shape[0]
        work = [buf[:n * w].reshape(n, w) for buf in flat]
        with np.errstate(over="ignore", invalid="ignore"):  # reported below, by row
            k_star = cross_gram(X_train, block, theta, work)
        ok = np.isfinite(k_star, out=finite[:n * w].reshape(n, w)).all(axis=0)
        bad = np.flatnonzero(~ok)
        if bad.size:
            raise ValueError(f"test row {start + bad[0]}: kernel values are not finite")
        mm = latent_predict(post, k_star, k_ss[:w])
        z[start:start + w] = mm.mean / np.sqrt(1.0 + mm.var)
    return z
