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
from, and the Gram matrix its rows and theta, so it is the one value the
energies, the E-step and the M-step take: none of them is handed K, sites
or theta beside it.  Assembly keeps at most three n x n arrays alive, its
outputs included.

predictive_z, the one prediction path (GPML Alg. 3.2), takes a posterior's
ScoringState and scores test rows in blocks of PREDICT_BLOCK, each block's
kernel values in new arrays that are freed before the next block's are
computed, so its memory grows with neither the row count nor the block
count.  The variance needs V = L^-1 B^1/2 k* per block.
Rather than one triangular solve per block, the state holds
R = L^-1 B^1/2, so a block costs one triangular matrix product V = R k*
(BLAS trmm from the left).  Each block's kernel values are computed as
(test rows, training rows) in C order, so k*, their transpose, is already
in the Fortran order trmm reads.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dtrtri

from .errors import FactorizationError, NumericsError
from .kernel import GramMatrix, Hyperparams, cross_gram
from .likelihood import MarginalMoments, expectation_stats

# updaters clamp lam2 at or below this (keeps B positive, sites proper)
LAMBDA2_CEIL = -1e-10

# predictive variances may round slightly negative; beyond this it is an error
VAR_TOL = -1e-10

# test rows per predictive_z block: at n = 614 training rows each of the three
# arrays of its kernel evaluation takes 0.63 MB
PREDICT_BLOCK = 128


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
    log_det_ikb = log|I + K B| serve the energies and scoring();
    V = chol_a^-1 B^1/2 K serves covariance().
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
        """Full posterior covariance, formed anew on every call; exactly
        symmetric, as K is and V'V is one BLAS syrk that numpy mirrors."""
        S = self.K.K - self.V.T @ self.V
        if not np.isfinite(S).all():
            raise NumericsError("posterior covariance has non-finite values")
        return S

    def scoring(self):
        """The ScoringState of this posterior, with the lower triangular
        R = chol_a^-1 B^1/2 from one LAPACK triangular inverse per call."""
        R, info = dtrtri(self.chol_a, lower=1)
        if info != 0:
            raise NumericsError("posterior factor could not be inverted")
        R *= self.sqrt_b[None, :]
        return ScoringState(self.alpha, R, self.K.X, self.K.theta)


def assemble(K, sites):
    """Posterior N(m, S) for the given train Gram matrix and sites."""
    Km = K.K
    n = Km.shape[0]
    if sites.n != n:
        raise ValueError("site count must match the Gram matrix")
    # sites that overflow B^1/2 K B^1/2 are a NumericsError below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        sqrt_b = np.sqrt(-2.0 * sites.lam2)
        # Fortran order lets LAPACK work in place: chol_a takes A's memory and
        # V takes bk's, so no n x n array besides these two is made
        bk = np.multiply(sqrt_b[:, None], Km, order="F")
        A = np.multiply(bk, sqrt_b[None, :], order="F")
        A += 0.0  # a zero site gives -0.0 entries; I + (...) made them +0.0
        A[np.diag_indices(n)] += 1.0
        if not np.isfinite(A).all():
            raise NumericsError("site precisions overflow the posterior factor")
        try:
            chol_a = cholesky(A, lower=True, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError as exc:  # B >= 0 makes this near-impossible
            raise FactorizationError("posterior factorization failed") from exc
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
    """(value, g_m, g_v): the evidence lower bound
    sum_i E_q[log p(y_i | f_i)] - KL(q || prior), and the derivatives of its
    expected log likelihood wrt each marginal mean and variance, which the
    E-step's site update and the M-step's gradient read."""
    e, g_m, g_v = expectation_stats(y, post.m, post.var)
    return float(np.sum(e)) - prior_kl(post), g_m, g_v


@dataclass(frozen=True)
class ScoringState:
    """What prediction reads of a GaussianPosterior (its scoring()): alpha,
    R and the training rows X and theta of its Gram matrix.

    A caller that keeps only this, and not the posterior, lets K, V and
    chol_a be freed while it scores.
    """

    alpha: np.ndarray
    R: np.ndarray
    X: np.ndarray
    theta: Hyperparams


def latent_predict(state, k_star, k_star_star_diag):
    """Latent predictive moments at test points of a ScoringState.

    k_star[i, j] = k(train_i, test_j); k_star_star_diag[j] = k(test_j, test_j).
    Returns MarginalMoments with aligned mean/var arrays; variances are clamped
    at zero, and one that is NaN or below -1e-10 beforehand raises (trmm does
    not check its input, so a non-finite k_star shows up here).
    """
    k_star = np.asarray(k_star, dtype=float)
    k_ss = np.asarray(k_star_star_diag, dtype=float)
    if k_star.ndim != 2 or k_star.shape[0] != state.alpha.size:
        raise ValueError("k_star must be (n_train, n_test)")
    if k_ss.shape != (k_star.shape[1],):
        raise ValueError("k_star_star_diag must align with k_star columns")
    mean = k_star.T @ state.alpha
    # V = R k*: trmm multiplies from the left, and copies k_star (overwrite_b
    # would write even into a read-only one); a Fortran-ordered k_star, the
    # transpose of a C-ordered (test x train) block, is copied as it lies
    V = dtrmm(1.0, state.R, k_star, lower=1)
    var = k_ss - np.einsum("ij,ij->j", V, V)
    if not np.all(var >= VAR_TOL):  # NaN fails this too
        raise NumericsError("predictive variance is not finite or fell below tolerance")
    var = np.clip(var, 0.0, None)
    return MarginalMoments(mean=mean, var=var)


def predictive_z(state, X_test):
    """z = E[f*] / sqrt(1 + Var[f*]) per test row, so p(y* | x*) = Phi(y* z).

    state is a posterior's ScoringState, which holds its training rows and
    theta.  A row whose kernel values are not finite (a squared distance
    that overflows) is a ValueError that names it.
    """
    X_train, theta = state.X, state.theta
    rows = X_test.shape[0]
    z = np.empty(rows)
    k_ss = np.full(min(PREDICT_BLOCK, rows), theta.magnitude ** 2)
    for start in range(0, rows, PREDICT_BLOCK):
        block = X_test[start:start + PREDICT_BLOCK]
        w = block.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):  # reported below, by row
            k_block = cross_gram(block, X_train, theta)  # (test rows, training rows)
        bad = np.flatnonzero(~np.isfinite(k_block).all(axis=1))
        if bad.size:
            raise ValueError(f"test row {start + bad[0]}: kernel values are not finite")
        mm = latent_predict(state, k_block.T, k_ss[:w])
        del k_block  # freed before the next block's kernel is computed
        z[start:start + w] = mm.mean / np.sqrt(1.0 + mm.var)
    return z
