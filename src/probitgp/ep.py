"""Classic expectation propagation with scaled Gaussian sites.

Sequential sweeps in index order, at most SWEEPS of them: form the cavity
by natural-parameter subtraction, moment-match against the closed-form
tilted distribution, damp the site move in natural parameters by the fixed
DAMPING, rank-one-update the posterior, and re-factorize once per sweep to
kill accumulated drift.  Only the convergence tolerance is an argument.
Each site also keeps a log scale chosen so the scaled site integrates the
tilted evidence against its cavity; summing those scales on top of the
unnormalized-site energy recovers the standard EP marginal-likelihood
approximation.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .likelihood import MarginalMoments, ep_tilted_moments
from .posterior import LAMBDA2_CEIL, Sites, assemble, ep_like_energy

logger = logging.getLogger(__name__)

SWEEPS = 100
DAMPING = 0.9
CONVERGENCE_TOL = 1e-6


@dataclass(frozen=True)
class EpSites:
    """Scaled sites: natural parameters plus per-site log normalizers."""

    lam1: np.ndarray
    lam2: np.ndarray
    log_scale: np.ndarray

    def __post_init__(self):
        log_scale = np.array(self.log_scale, dtype=float)
        sites = Sites(self.lam1, self.lam2)  # reuse validation (copies)
        if log_scale.shape != sites.lam1.shape or not np.isfinite(log_scale).all():
            raise ValueError("log scales must be finite and aligned")
        log_scale.setflags(write=False)
        object.__setattr__(self, "lam1", sites.lam1)
        object.__setattr__(self, "lam2", sites.lam2)
        object.__setattr__(self, "log_scale", log_scale)

    @property
    def sites(self):
        return Sites(self.lam1, self.lam2)


def _log_gauss_site_integral(mean, var, lam1, lam2):
    # log int N(f; mean, var) exp(lam1 f + lam2 f^2) df, requires var > 0, lam2 < 1/(2 var)
    rho = 1.0 / var
    rho_new = rho - 2.0 * lam2
    if rho_new <= 0:
        raise NumericsError("site integral does not exist")
    shift = mean * rho + lam1
    return 0.5 * (np.log(rho) - np.log(rho_new)) - 0.5 * mean * mean * rho + 0.5 * shift * shift / rho_new


def ep_inference(K, y, tol=CONVERGENCE_TOL):
    """Run EP from zero sites; returns (EpSites, GaussianPosterior, converged).

    converged means the largest natural-parameter change in the final sweep
    fell below tol.  Sites whose cavity precision is not positive are skipped
    for that sweep (counted and logged).
    """
    y = np.asarray(y, dtype=float)
    n = y.size

    lam1 = np.zeros(n)
    lam2 = np.zeros(n)
    log_scale = np.zeros(n)
    post = assemble(K, Sites(lam1, lam2))
    S = post.covariance()
    m = post.m.copy()

    converged = False
    skipped_total = 0
    for _ in range(SWEEPS):
        max_delta = 0.0
        skipped = 0
        for i in range(n):
            s_ii = S[i, i]
            tau = -2.0 * lam2[i]
            nu = lam1[i]
            cav_rho = 1.0 / s_ii - tau
            cav_gam = m[i] / s_ii - nu
            if cav_rho <= 0 or not np.isfinite(cav_rho):
                skipped += 1
                continue
            cav = MarginalMoments(mean=cav_gam / cav_rho, var=1.0 / cav_rho)
            log_z, tilted = ep_tilted_moments(y[i], cav)
            tau_new = 1.0 / tilted.var - cav_rho
            nu_new = tilted.mean / tilted.var - cav_gam
            tau_d = max((1.0 - DAMPING) * tau + DAMPING * tau_new, -2.0 * LAMBDA2_CEIL)
            nu_d = (1.0 - DAMPING) * nu + DAMPING * nu_new
            d_tau = tau_d - tau
            d_nu = nu_d - nu
            lam1[i] = nu_d
            lam2[i] = -0.5 * tau_d
            log_scale[i] = log_z - _log_gauss_site_integral(cav.mean, cav.var, nu_d, -0.5 * tau_d)
            # rank-one refresh: S' = (S^-1 + d_tau e_i e_i')^-1
            s_col = S[:, i].copy()
            S -= (d_tau / (1.0 + d_tau * s_ii)) * np.outer(s_col, s_col)
            m = S @ lam1
            max_delta = max(max_delta, abs(d_tau), abs(d_nu))
        post = assemble(K, Sites(lam1, lam2))
        S = post.covariance()
        m = post.m.copy()
        skipped_total += skipped
        if max_delta < tol:
            converged = True
            break
    if skipped_total:
        logger.info("EP skipped %d site updates on non-positive cavity precision", skipped_total)
    ep_sites = EpSites(lam1=lam1, lam2=lam2, log_scale=log_scale)
    return ep_sites, post, converged


def ep_energy(post, ep_sites):
    """Unnormalized-site energy plus the site log scales (EP evidence).

    post is the posterior of ep_sites' natural parameters, as ep_inference
    returns it with them.
    """
    return ep_like_energy(post) + float(np.sum(ep_sites.log_scale))
