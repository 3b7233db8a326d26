"""Gaussian posterior from unnormalized exponential-family pseudo-sites.

Sites hold per-point natural parameters (lam1, lam2) with lam2 <= 0.  With
B = diag(-2 lam2) the posterior is N(m, S), S = (K^-1 + B)^-1 and m = S lam1,
assembled without ever forming K^-1 via the symmetrized factor

    A = I + B^1/2 K B^1/2,  chol(A) = L,  V = L^-1 B^1/2 K.

One Cholesky and one triangular solve give diag S = diag K - colsum(V * V),
alpha = K^-1 m and m = K alpha; S = K - V'V itself is formed on first use.
The factor also yields log|I + K B|, the energies and the latent predictive
moments.  The KL needs no inverse: by Woodbury A^-1 = I - B^1/2 S B^1/2, so
tr(K^-1 S) - n = tr(A^-1) - n = -sum_i b_i S_ii.  All of it stays well
conditioned even when some sites are exactly zero.

predictive_z, the one prediction path (GPML Alg. 3.2), scores test rows in
blocks of PREDICT_BLOCK, so its memory does not grow with the row count.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .errors import FactorizationError, NumericsError
from .kernel import cross_gram
from .likelihood import DEFAULT_QUAD_ORDER, MarginalMoments, expectation_stats

# updaters clamp lam2 at or below this (keeps B positive, sites proper)
LAMBDA2_CEIL = -1e-10

# predictive variances may round slightly negative; beyond this it is an error
VAR_TOL = -1e-10

# test rows per predictive_z block
PREDICT_BLOCK = 1024


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
    """Posterior mean and marginal variances plus the factorization cache.

    sqrt_b, chol_a (lower factor of I + B^1/2 K B^1/2), alpha = K^-1 m and
    log_det_ikb = log|I + K B| serve the energies and prediction; K and
    V = chol_a^-1 B^1/2 K serve the covariance S, formed on demand.  sites
    is the Sites object it was assembled from; with K (the very array of the
    GramMatrix) it lets a caller that is handed a posterior check its origin.
    """

    m: np.ndarray
    var: np.ndarray
    alpha: np.ndarray
    sqrt_b: np.ndarray
    chol_a: np.ndarray
    log_det_ikb: float
    K: np.ndarray
    V: np.ndarray
    sites: Sites

    def covariance(self):
        """Full posterior covariance, symmetrized; formed anew on every call."""
        S = self.K - self.V.T @ self.V
        S = 0.5 * (S + S.T)
        if not np.isfinite(S).all():
            raise NumericsError("posterior covariance has non-finite values")
        return S

    @cached_property
    def S(self):
        """covariance(), built once on first use and kept."""
        return self.covariance()

    def assembled_from(self, K, sites):
        """True iff assemble(K, sites) built this posterior (checked by identity)."""
        return self.K is K.K and self.sites is sites


def assemble(K, sites):
    """Posterior N(m, S) for the given train Gram matrix and sites."""
    Km = K.K
    n = Km.shape[0]
    if sites.n != n:
        raise ValueError("site count must match the Gram matrix")
    sqrt_b = np.sqrt(-2.0 * sites.lam2)
    bk = sqrt_b[:, None] * Km
    A = bk * sqrt_b[None, :]
    A += 0.0  # a zero site gives -0.0 entries; I + (...) made them +0.0
    A[np.diag_indices(n)] += 1.0
    try:
        chol_a = cholesky(A, lower=True)  # also rejects non-finite sites
    except np.linalg.LinAlgError as exc:  # B >= 0 makes this near-impossible
        raise FactorizationError("posterior factorization failed") from exc
    # chol_a and B^1/2 come from the A that cholesky has just checked
    V = solve_triangular(chol_a, bk, lower=True, check_finite=False)
    var = np.diag(Km) - np.einsum("ij,ij->j", V, V)
    k_lam = Km @ sites.lam1
    alpha = sites.lam1 - sqrt_b * cho_solve((chol_a, True), sqrt_b * k_lam, check_finite=False)
    m = Km @ alpha
    log_det_ikb = 2.0 * float(np.sum(np.log(np.diag(chol_a))))
    if not (np.isfinite(m).all() and np.isfinite(var).all()):
        raise NumericsError("posterior assembly produced non-finite values")
    return GaussianPosterior(m, var, alpha, sqrt_b, chol_a, log_det_ikb, Km, V, sites)


def ep_like_energy(K, sites, post=None):
    """-1/2 log|I + K B| + 1/2 lam1' (K^-1 + B)^-1 lam1 (no site constants)."""
    if post is None:
        post = assemble(K, sites)
    return -0.5 * post.log_det_ikb + 0.5 * float(sites.lam1 @ post.m)


def prior_kl(post):
    """KL( N(m, S) || N(0, K) ) from the assembly cache alone."""
    trace_term = -float(np.sum(post.sqrt_b ** 2 * post.var))  # tr(K^-1 S) - n
    quad_term = float(post.m @ post.alpha)                    # m' K^-1 m
    return 0.5 * (trace_term + quad_term + post.log_det_ikb)


def elbo(K, sites, y, quad_order=DEFAULT_QUAD_ORDER, post=None):
    """Evidence lower bound: -KL(q || prior) + sum_i E_q[log p(y_i | f_i)]."""
    if post is None:
        post = assemble(K, sites)
    y = np.asarray(y, dtype=float)
    if y.shape != post.m.shape:
        raise ValueError("labels must align with the posterior")
    e, _, _ = expectation_stats(y, post.m, post.var, quad_order=quad_order)
    return float(np.sum(e)) - prior_kl(post)


def latent_predict(K, k_star, k_star_star_diag, sites, post=None):
    """Latent predictive moments at test points.

    k_star[i, j] = k(train_i, test_j); k_star_star_diag[j] = k(test_j, test_j).
    Returns MarginalMoments with aligned mean/var arrays; variances are clamped
    at zero and must not fall below -1e-10 beforehand.
    """
    if post is None:
        post = assemble(K, sites)
    k_star = np.asarray(k_star, dtype=float)
    k_ss = np.asarray(k_star_star_diag, dtype=float)
    if k_star.ndim != 2 or k_star.shape[0] != post.m.size:
        raise ValueError("k_star must be (n_train, n_test)")
    if k_ss.shape != (k_star.shape[1],):
        raise ValueError("k_star_star_diag must align with k_star columns")
    mean = k_star.T @ post.alpha
    V = solve_triangular(post.chol_a, post.sqrt_b[:, None] * k_star, lower=True)
    var = k_ss - np.sum(V * V, axis=0)
    if np.any(var < VAR_TOL):
        raise NumericsError("predictive variance fell below tolerance")
    var = np.clip(var, 0.0, None)
    return MarginalMoments(mean=mean, var=var)


def predictive_z(post, theta, X_train, X_test):
    """z = E[f*] / sqrt(1 + Var[f*]) per test row, so p(y* | x*) = Phi(y* z).

    post is the posterior at the training rows X_train under theta.  Rows go
    through cross_gram and latent_predict PREDICT_BLOCK at a time.
    """
    z = np.empty(X_test.shape[0])
    for start in range(0, z.size, PREDICT_BLOCK):
        block = X_test[start:start + PREDICT_BLOCK]
        k_ss = np.full(block.shape[0], theta.magnitude ** 2)
        # post carries the factorization, so K and sites are not read
        mm = latent_predict(None, cross_gram(X_train, block, theta), k_ss, None, post=post)
        z[start:start + block.shape[0]] = mm.mean / np.sqrt(1.0 + mm.var)
    return z
