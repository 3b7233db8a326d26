"""Annealed importance sampling along a tempered-likelihood path.

The bridge at step t is p(f) p(y|f)^tau(t) on the quartic schedule
tau(t) = (t/steps)^4, so the log marginal likelihood telescopes into
sum_t (tau(t) - tau(t-1)) times the log likelihood of a state advanced by
one elliptical slice transition targeting the previous bridge.  ess_step
takes that temperature and returns the untempered log likelihood of the
state it accepts.  ais_lml factors K = L L^T itself: it is the only reader
of a factor of the prior covariance, so the Gram matrix does not keep one.
Chains run in g = y * f with prior factor diag(y) L, which for labels +-1
is the chain in f, bit for bit.  Repeats run independent chains on seeds
seed, seed+1, ... and are combined by the mean of their log estimates.
Everything is a pure function of the config, so estimates are reproducible
bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky
from scipy.special import log_ndtr

from .errors import NumericsError

_TWO_PI = 2.0 * np.pi
_MAX_SHRINK = 1000


@dataclass(frozen=True)
class AisConfig:
    steps: int = 8000
    repeats: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")


@dataclass(frozen=True)
class AisEstimate:
    log_ml: float
    per_repeat: np.ndarray


def temperature(t, steps):
    """Annealing exponent tau(t) = (t/steps)^4, with tau(0)=0, tau(steps)=1."""
    if not 0 <= t <= steps:
        raise ValueError("step index out of range")
    return float((t / steps) ** 4.0)


def ess_step(f, loglik, prior_chol, rng, cur_loglik, tau):
    """One elliptical slice transition, invariant for exp(tau * loglik(f)) * N(0, K).

    prior_chol is a factor L of K = L L^T and cur_loglik is loglik(f), which
    the caller has from the previous step.  Returns (state, loglik(state)),
    the log likelihood untempered.  Proposals whose tempered log likelihood
    is non-finite are rejected; a bracket that shrinks _MAX_SHRINK times
    raises NumericsError.
    """
    f = np.asarray(f, dtype=float)
    nu = prior_chol @ rng.standard_normal(f.size)
    threshold = tau * cur_loglik + np.log(rng.random())
    angle = _TWO_PI * rng.random()
    lo, hi = angle - _TWO_PI, angle
    for _ in range(_MAX_SHRINK):
        proposal = f * math.cos(angle) + nu * math.sin(angle)
        value = loglik(proposal)
        tempered = tau * value
        if math.isfinite(tempered) and tempered > threshold:
            return proposal, value
        if angle < 0.0:
            lo = angle
        else:
            hi = angle
        angle = lo + (hi - lo) * rng.random()
    raise NumericsError("elliptical slice bracket collapsed without acceptance")


def ais_lml(K, y, cfg):
    """Annealed-importance estimate of log p(y) under the probit model; y in {-1, +1}."""
    y = np.asarray(y, dtype=float)
    n = y.size
    if K.n != n:
        raise ValueError("labels must match the Gram matrix")
    if not np.all((y == 1.0) | (y == -1.0)):
        raise ValueError("labels must be -1 or +1")
    L = y[:, None] * cholesky(K.K, lower=True)  # prior factor of g = y * f

    def loglik(g):
        return float(np.add.reduce(log_ndtr(g)))  # np.sum's reduction, minus its wrapper

    taus = [temperature(t, cfg.steps) for t in range(cfg.steps + 1)]
    per_repeat = np.empty(cfg.repeats)
    for r in range(cfg.repeats):
        rng = np.random.default_rng(cfg.seed + r)
        g = L @ rng.standard_normal(n)
        cur = loglik(g)
        total = 0.0
        for tau_prev, tau_now in zip(taus, taus[1:]):
            g, cur = ess_step(g, loglik, L, rng, cur_loglik=cur, tau=tau_prev)
            total += (tau_now - tau_prev) * cur
        per_repeat[r] = total
    if not np.isfinite(per_repeat).all():
        raise NumericsError("non-finite annealing estimate")
    return AisEstimate(log_ml=float(per_repeat.mean()), per_repeat=per_repeat)
