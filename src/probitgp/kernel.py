"""Isotropic Matern-5/2 covariance with log-space hyperparameters.

gram alone picks the diagonal jitter that makes the train Gram matrix
positive definite, from at most JITTER_RUNGS rungs that scale with
magnitude^2, so it ends for every finite theta.  Its GramMatrix records the
jitter and the rows and theta it was built from, so a posterior of it
carries them too.  gram keeps no Cholesky factor (only AIS computes one of
K) and forms no identity and no second copy of K beyond the one the
factorization works in.

Distances come from one routine, euclidean, on numpy and BLAS alone.  Its
squared distances round within about (d + 2) eps (|x - c|^2 + |z - c|^2), c
the centre; a small distance can so be off by ~sqrt(eps) times the rows'
spread, which the Matern form, flat to first order at 0, turns into a
kernel error of ~eps.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky

from .errors import FactorizationError

_SQRT5 = np.sqrt(5.0)

# jitter policy, both in units of magnitude^2: the ladder's JITTER_RUNGS rungs
# are JITTER_DEFAULT * 10^k for k = 0 .. 4, the last JITTER_CAP
JITTER_DEFAULT = 1e-6
JITTER_CAP = 1e-2
JITTER_RUNGS = 5


@dataclass(frozen=True)
class Hyperparams:
    """Kernel hyperparameters, stored as (log lengthscale, log magnitude)."""

    log_lengthscale: float = 0.0
    log_magnitude: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.log_lengthscale) and np.isfinite(self.log_magnitude)):
            raise ValueError("hyperparameters must be finite")

    @property
    def lengthscale(self):
        return float(np.exp(self.log_lengthscale))

    @property
    def magnitude(self):
        return float(np.exp(self.log_magnitude))

    def as_array(self):
        return np.array([self.log_lengthscale, self.log_magnitude])


@dataclass(frozen=True)
class GramMatrix:
    """Jittered train covariance: K = base kernel of the rows X under theta
    + jitter * I."""

    K: np.ndarray
    jitter: float
    X: np.ndarray
    theta: Hyperparams

    @property
    def n(self):
        return self.K.shape[0]


def euclidean(X, Z=None):
    """Euclidean distances between the rows of X and of Z: out[i, j] =
    |X[i] - Z[j]|.  Z=None means Z = X; when Z is X the result is exactly
    symmetric with exact zeros on its diagonal.

    Both row sets are centred on Z's column means, and the squared distance
    (|x|^2 + |z|^2) - 2 x.z is clamped at 0 before its square root.  A
    squared distance that overflows gives inf or NaN, with no warning.
    """
    if Z is None:
        Z = X
    same = Z is X
    centre = Z.mean(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):  # the caller checks finiteness
        Xc = X - centre
        Zc = Xc if same else Z - centre
        sq_x = np.einsum("ij,ij->i", Xc, Xc)
        sq_z = sq_x if same else np.einsum("ij,ij->i", Zc, Zc)
        # Xc @ Xc.T is one BLAS syrk, so symmetric to the bit, as is the outer sum
        cross = Xc @ Zc.T
        cross *= 2.0
        d2 = np.add.outer(sq_x, sq_z)
        d2 -= cross
        np.maximum(d2, 0.0, out=d2)
    if same:
        np.fill_diagonal(d2, 0.0)
    return np.sqrt(d2, out=d2)


def _matern(dist, theta, overwrite=False):
    """sig^2 ((1 + u + u*u/3) exp(-u)) with u = sqrt(5) dist / ell.

    The same operations in the same order as that expression, so the same
    bits, but in place: u takes dist's own memory when overwrite is set (the
    caller owns dist, as cross_gram owns its euclidean output), else one new
    array, and two more arrays hold the rest, the last of them the result.
    A scalar dist also works.
    """
    dist = np.asarray(dist, dtype=float)
    u = np.divide(dist, theta.lengthscale, out=dist if overwrite else np.empty_like(dist))
    u *= _SQRT5
    quad = u * u
    quad /= 3.0
    out = u + 1.0
    out += quad
    del quad
    np.exp(np.negative(u, out=u), out=u)
    out *= u
    out *= theta.magnitude ** 2
    return out


def cross_gram(X, Z, theta):
    """Covariance block between row sets: out[i, j] = k(X[i], Z[j]). No jitter.

    The distances are euclidean(X, Z), centred on Z's mean.
    """
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if X.ndim != 2 or Z.ndim != 2 or X.shape[1] != Z.shape[1]:
        raise ValueError("expected 2-d inputs with matching column count")
    return _matern(euclidean(X, Z), theta, overwrite=True)


def gram_grads(dist, K):
    """Derivatives of K = gram(K.X, K.theta) wrt (log lengthscale, log magnitude).

    dist = euclidean(K.X).  With u = sqrt(5) r / ell, dK/dlog ell =
    sig^2 (u^2/3)(1 + u) exp(-u).  The jitter rung that K used scales with
    sig^2 like the kernel, so dK/dlog sig = 2 K.
    """
    theta = K.theta
    u = _SQRT5 * dist / theta.lengthscale
    # sig^2 (u*u/3) (1 + u) exp(-u), in that operation order, in place
    d_ell = u * u
    d_ell /= 3.0
    d_ell *= theta.magnitude ** 2
    d_ell *= 1.0 + u
    np.negative(u, out=u)
    d_ell *= np.exp(u, out=u)
    return d_ell, 2.0 * K.K


def gram(X, theta, dist=None):
    """Train covariance with jitter escalation until Cholesky succeeds.

    The GramMatrix keeps X itself (a float64 array is not copied or viewed)
    and theta.  dist may pass euclidean(X) precomputed (Dataset.distances),
    bitwise alike.
    The jitter starts at 1e-6 * magnitude^2 and is raised tenfold per failed
    attempt up to 1e-2 * magnitude^2, after which FactorizationError is
    raised.  So is a magnitude^2 that is not finite and positive, or a kernel
    with a non-finite entry, and neither warns.
    """
    X = np.asarray(X)
    if X.dtype != np.float64:  # not asarray(X, float): an unpickled X's equal dtype gives a view
        X = X.astype(float)
    if X.ndim != 2:
        raise ValueError("expected a 2-d input matrix")
    with np.errstate(over="ignore"):  # np.exp overflows to inf, rejected below
        try:
            sig2 = theta.magnitude ** 2
        except OverflowError:  # a float's ** raises where its * gives inf
            sig2 = np.inf
    if not 0.0 < sig2 < np.inf:
        raise FactorizationError(f"kernel magnitude^2 {sig2:g} is not finite and positive")
    ladder = [JITTER_DEFAULT * sig2]
    while len(ladder) < JITTER_RUNGS:
        ladder.append(ladder[-1] * 10.0)

    with np.errstate(all="ignore"):  # a non-finite kernel is rejected below
        K = _matern(euclidean(X), theta, overwrite=True) if dist is None else _matern(dist, theta)
        diag = np.diag_indices_from(K)
        base_diag = K[diag]  # a copy: each rung is base + j on the diagonal, as base + j I
        K[diag] = base_diag + ladder[-1]
    # if the top rung's K is finite, so is every rung's
    if not np.isfinite(K).all():
        raise FactorizationError(f"kernel has non-finite entries (n={X.shape[0]})")
    for j in ladder:
        K[diag] = base_diag + j
        try:
            cholesky(K, lower=True, check_finite=False)  # the positive-definiteness test
        except np.linalg.LinAlgError:
            continue
        K.setflags(write=False)
        return GramMatrix(K=K, jitter=j, X=X, theta=theta)
    raise FactorizationError(
        "covariance not positive definite after jitter escalation to "
        f"{ladder[-1]:.3e} (n={X.shape[0]})"
    )
