"""Probit Bernoulli likelihood for labels in {-1, +1}.

Gaussian expectations of the log-likelihood log Phi(y f) by Gauss-Hermite
quadrature of the one order QUAD_ORDER, and the closed-form tilted moments
used by EP; both take phi/Phi from _inverse_mills, given the log_ndtr value
they already have.  All cumulative-normal work goes through log_ndtr so
nothing underflows for |f| well past 30.
"""

import math
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


def check_labels(y):
    """y as a float array; ValueError unless every label is -1 or +1."""
    y = np.asarray(y, dtype=float)
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must lie in {-1, +1}")
    return y


def _inverse_mills(z, log_cdf):
    # phi(z)/Phi(z) from log_cdf = log Phi(z), stable for z far into the left tail
    return np.exp(-0.5 * (z * z + _LOG_2PI) - log_cdf)


def expectation_stats(y, mean, var):
    """Vectorized E[log Phi(y f)], dE/dmean, dE/dvar under f ~ N(mean, var).

    The mean derivative integrates d/df log Phi(y f); the variance derivative
    is half the expected second derivative.  At var = 0 every node sits at the
    mean, so the quadrature is the point evaluation there.
    """
    y = check_labels(np.atleast_1d(y))
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    var = np.atleast_1d(np.asarray(var, dtype=float))
    if not (y.shape == mean.shape == var.shape):
        raise ValueError("y, mean, var must align")
    if np.any(var < 0):
        raise ValueError("variances must be >= 0")

    # at extreme moments (|f| in the billions and beyond) the difference of
    # logs below loses all precision and can overflow: the outputs are then
    # not finite, without a warning, and e_step and the M-step treat such a
    # state as diverged
    with np.errstate(over="ignore", invalid="ignore"):
        f = mean[:, None] + np.sqrt(2.0 * var)[:, None] * _NODES[None, :]
        z = y[:, None] * f
        lp = log_ndtr(z)
        ratio = _inverse_mills(z, lp)
        d1 = y[:, None] * ratio           # d/df log Phi(y f)
        d2 = -ratio * (z + ratio)         # d^2/df^2, independent of y since y^2 = 1

        e = lp @ _WEIGHTS
        g_m = d1 @ _WEIGHTS
        g_v = 0.5 * (d2 @ _WEIGHTS)
    return e, g_m, g_v


def ep_tilted_moments(y, cavity):
    """Normalizer and moments of Phi(y f) * N(f; cavity) in closed form.

    At extreme cavities the moments can come out non-finite; they are
    returned so, without a warning, and ep_inference rejects the site update.
    """
    y = float(y)
    if y not in (-1.0, 1.0):
        raise ValueError("labels must lie in {-1, +1}")
    m, v = float(cavity.mean), float(cavity.var)
    if not (math.isfinite(m) and math.isfinite(v)) or v <= 0:
        raise ValueError("cavity must have finite mean and variance > 0")
    denom = math.sqrt(1.0 + v)
    z = y * m / denom
    with np.errstate(over="ignore", invalid="ignore"):
        log_z = float(log_ndtr(z))
        ratio = float(_inverse_mills(z, log_z))
    mean = m + y * v * ratio / denom
    var = v - v * v * ratio * (z + ratio) / (1.0 + v)
    return log_z, MarginalMoments(mean=mean, var=min(max(var, 1e-15 * v), v))
