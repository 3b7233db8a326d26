"""Probit Bernoulli likelihood for labels in {-1, +1}.

Gaussian expectations of the log-likelihood log Phi(y f) by Gauss-Hermite
quadrature of the one order QUAD_ORDER, and the closed-form tilted moments
used by EP.  All cumulative-normal work goes through log_ndtr so nothing
underflows for |f| well past 30.
"""

from typing import NamedTuple

import numpy as np
from scipy.special import log_ndtr

QUAD_ORDER = 50

_LOG_2PI = np.log(2.0 * np.pi)

_NODES, _WEIGHTS = np.polynomial.hermite.hermgauss(QUAD_ORDER)
_WEIGHTS = _WEIGHTS / np.sqrt(np.pi)


class MarginalMoments(NamedTuple):
    """Mean and variance of a Gaussian marginal (scalars or aligned arrays)."""

    mean: float
    var: float


def _check_labels(y):
    y = np.asarray(y, dtype=float)
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must lie in {-1, +1}")
    return y


def _norm_logpdf(z):
    return -0.5 * (z * z + _LOG_2PI)


def _phi_over_cdf(z):
    # phi(z)/Phi(z), stable for z far into the left tail
    return np.exp(_norm_logpdf(z) - log_ndtr(z))


def expectation_stats(y, mean, var):
    """Vectorized E[log Phi(y f)], dE/dmean, dE/dvar under f ~ N(mean, var).

    The mean derivative integrates d/df log Phi(y f); the variance derivative
    is half the expected second derivative.  Zero-variance entries collapse to
    the exact point evaluation.
    """
    y = _check_labels(np.atleast_1d(y))
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    var = np.atleast_1d(np.asarray(var, dtype=float))
    if not (y.shape == mean.shape == var.shape):
        raise ValueError("y, mean, var must align")
    if np.any(var < 0):
        raise ValueError("variances must be >= 0")

    f = mean[:, None] + np.sqrt(2.0 * var)[:, None] * _NODES[None, :]
    z = y[:, None] * f
    lp = log_ndtr(z)
    ratio = np.exp(_norm_logpdf(z) - lp)  # phi/Phi, reusing the one log_ndtr
    d1 = y[:, None] * ratio           # d/df log Phi(y f)
    d2 = -ratio * (z + ratio)         # d^2/df^2, independent of y since y^2 = 1

    e = lp @ _WEIGHTS
    g_m = d1 @ _WEIGHTS
    g_v = 0.5 * (d2 @ _WEIGHTS)

    point = var == 0.0
    if np.any(point):
        z0 = y[point] * mean[point]
        r0 = _phi_over_cdf(z0)
        e[point] = log_ndtr(z0)
        g_m[point] = y[point] * r0
        g_v[point] = -0.5 * r0 * (z0 + r0)
    return e, g_m, g_v


def ep_tilted_moments(y, cavity):
    """Normalizer and moments of Phi(y f) * N(f; cavity) in closed form."""
    y = float(y)
    if y not in (-1.0, 1.0):
        raise ValueError("labels must lie in {-1, +1}")
    m, v = float(cavity.mean), float(cavity.var)
    if not (np.isfinite(m) and np.isfinite(v)) or v <= 0:
        raise ValueError("cavity must have finite mean and variance > 0")
    denom = np.sqrt(1.0 + v)
    z = y * m / denom
    log_z = float(log_ndtr(z))
    ratio = float(_phi_over_cdf(z))
    mean = m + y * v * ratio / denom
    var = v - v * v * ratio * (z + ratio) / (1.0 + v)
    var = float(np.clip(var, 1e-15 * v, v))
    return log_z, MarginalMoments(mean=float(mean), var=var)
