"""Isotropic Matern-5/2 covariance with log-space hyperparameters.

The train-side Gram matrix carries the diagonal jitter that made it positive
definite.  gram tests each jitter rung with a Cholesky factorization but does
not keep the factor: the posterior assembly factors I + B^1/2 K B^1/2
instead, and only AIS, which needs a factor of K itself, computes one.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky
from scipy.spatial.distance import cdist

from .errors import FactorizationError

_SQRT5 = np.sqrt(5.0)

# jitter policy, both in units of magnitude^2
JITTER_DEFAULT = 1e-6
JITTER_CAP = 1e-2


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
    """Jittered train covariance: K = base kernel + jitter * I."""

    K: np.ndarray
    jitter: float

    @property
    def n(self):
        return self.K.shape[0]


def _matern(dist, theta, overwrite=False):
    """sig^2 ((1 + u + u*u/3) exp(-u)) with u = sqrt(5) dist / ell.

    The same operations in the same order as that expression, so the same
    bits, but in place: u takes dist's own memory when overwrite is set (the
    caller owns dist, as cross_gram owns its cdist output), else one new
    array, and two more buffers hold the rest.  A scalar dist also works.
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
    """Covariance block between row sets: out[i, j] = k(X[i], Z[j]). No jitter."""
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if X.ndim != 2 or Z.ndim != 2 or X.shape[1] != Z.shape[1]:
        raise ValueError("expected 2-d inputs with matching column count")
    return _matern(cdist(X, Z), theta, overwrite=True)


def gram_grads(dist, theta, K, jitter=None):
    """Derivatives of gram(X, theta, jitter) = K wrt (log lengthscale, log magnitude).

    dist = cdist(X, X).  With u = sqrt(5) r / ell, dK/dlog ell =
    sig^2 (u^2/3)(1 + u) exp(-u).  The jitter rung that K used scales with
    sig^2 unless it is the explicit jitter, which stays fixed, so dK/dlog sig
    is 2 K or 2 (K - jitter I) respectively.
    """
    u = _SQRT5 * dist / theta.lengthscale
    # sig^2 (u*u/3) (1 + u) exp(-u), in that operation order, in place
    d_ell = u * u
    d_ell /= 3.0
    d_ell *= theta.magnitude ** 2
    d_ell *= 1.0 + u
    np.negative(u, out=u)
    d_ell *= np.exp(u, out=u)
    d_sig = 2.0 * K.K
    if jitter is not None and K.jitter == float(jitter):
        d_sig[np.diag_indices_from(d_sig)] -= 2.0 * K.jitter
    return d_ell, d_sig


def gram(X, theta, jitter=None, dist=None):
    """Train covariance with jitter escalation until Cholesky succeeds.

    dist may pass cdist(X, X) precomputed (Dataset.distances), bitwise alike.
    jitter=None starts at the default 1e-6 * magnitude^2; an explicit value is
    tried first as given.  On failure the jitter is raised tenfold per attempt
    up to 1e-2 * magnitude^2, after which FactorizationError is raised.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("expected a 2-d input matrix")
    sig2 = theta.magnitude ** 2
    if jitter is None:
        ladder = [JITTER_DEFAULT * sig2]
    else:
        jitter = float(jitter)
        if not np.isfinite(jitter) or jitter < 0:
            raise ValueError("jitter must be finite and >= 0")
        ladder = [jitter]
    rung = JITTER_DEFAULT * sig2
    while rung <= JITTER_CAP * sig2 * (1.0 + 1e-12):
        if rung > ladder[-1]:
            ladder.append(rung)
        rung *= 10.0

    base = _matern(cdist(X, X), theta, overwrite=True) if dist is None else _matern(dist, theta)
    eye = np.eye(X.shape[0])
    for j in ladder:
        K = base + j * eye
        try:
            cholesky(K, lower=True)  # the positive-definiteness test
        except np.linalg.LinAlgError:
            continue
        K.setflags(write=False)
        return GramMatrix(K=K, jitter=j)
    raise FactorizationError(
        "covariance not positive definite after jitter escalation to "
        f"{ladder[-1]:.3e} (n={X.shape[0]})"
    )
