"""Classic expectation propagation with scaled Gaussian sites (GPML Alg. 3.5).

Sequential sweeps in index order, at most SWEEPS of them: form the cavity
by natural-parameter subtraction, moment-match against the closed-form
tilted distribution, damp the site move in natural parameters by DAMPING
and update the posterior by rank one, its covariance in place (BLAS dger)
and its mean in O(n), so a site costs O(n^2).  Each sweep ends with a fresh
assembly, which clears the drift the updates accumulate.  Each site also
keeps a log scale chosen so the scaled site integrates the tilted evidence
against its cavity; summing those scales on top of the unnormalized-site
energy recovers the standard EP marginal-likelihood approximation.
"""

import logging
import math

import numpy as np
from scipy.linalg.blas import dger

from .errors import NumericsError
from .likelihood import MarginalMoments, ep_tilted_moments
from .posterior import LAMBDA2_CEIL, Sites, assemble, ep_like_energy

logger = logging.getLogger(__name__)

SWEEPS = 100
DAMPING = 0.9
CONVERGENCE_TOL = 1e-6


def _log_gauss_site_integral(mean, var, lam1, lam2):
    # log int N(f; mean, var) exp(lam1 f + lam2 f^2) df for var > 0, lam2 <= LAMBDA2_CEIL < 0
    rho = 1.0 / var
    rho_new = rho - 2.0 * lam2
    shift = mean * rho + lam1
    return 0.5 * (math.log(rho) - math.log(rho_new)) - 0.5 * mean * mean * rho + 0.5 * shift * shift / rho_new


def ep_inference(K, y, tol=CONVERGENCE_TOL):
    """Run EP from zero sites; returns (post, log_scale, converged).

    post is the GaussianPosterior of the final sites, which it carries, and
    log_scale their per-site log normalizers.  converged means the largest
    natural-parameter change in the final sweep fell below tol.  Sites whose
    cavity precision is not positive are skipped for that sweep (counted and
    logged).  A site update or log scale that is not finite raises
    NumericsError.
    """
    labels = np.asarray(y, dtype=float).tolist()
    n = len(labels)

    lam1 = np.zeros(n)
    lam2 = np.zeros(n)
    log_scale = np.zeros(n)
    post = assemble(K, Sites(lam1, lam2))

    converged = False
    skipped_total = 0
    for _ in range(SWEEPS):
        S = post.covariance().T  # S is symmetric: its transpose is Fortran-ordered for dger
        m = post.m.copy()
        max_delta = 0.0
        skipped = 0
        for i in range(n):
            s_ii = S.item(i, i)
            tau = -2.0 * lam2.item(i)
            nu = lam1.item(i)
            cav_rho = 1.0 / s_ii - tau
            cav_gam = m.item(i) / s_ii - nu
            if not 0.0 < cav_rho < math.inf:
                skipped += 1
                continue
            cav = MarginalMoments(mean=cav_gam / cav_rho, var=1.0 / cav_rho)
            log_z, tilted = ep_tilted_moments(labels[i], cav)
            tau_new = 1.0 / tilted.var - cav_rho
            nu_new = tilted.mean / tilted.var - cav_gam
            tau_d = max((1.0 - DAMPING) * tau + DAMPING * tau_new, -2.0 * LAMBDA2_CEIL)
            nu_d = (1.0 - DAMPING) * nu + DAMPING * nu_new
            if not (math.isfinite(tau_d) and math.isfinite(nu_d)):
                raise NumericsError(f"EP site {i} update is not finite")
            d_tau = tau_d - tau
            d_nu = nu_d - nu
            lam1[i] = nu_d
            lam2[i] = -0.5 * tau_d
            log_scale[i] = log_z - _log_gauss_site_integral(cav.mean, cav.var, nu_d, -0.5 * tau_d)
            # rank one: S' = (S^-1 + d_tau e_i e_i')^-1 = S - c s s' and
            # m' = S' lam1' = m + d_nu s - c s (s' lam1'), with s = S e_i
            s = S[:, i].copy()
            c = d_tau / (1.0 + d_tau * s_ii)
            S = dger(-c, s, s, a=S, overwrite_a=True)
            m += (d_nu - c * float(s @ lam1)) * s
            max_delta = max(max_delta, abs(d_tau), abs(d_nu))
        del S, post  # the sweep's covariance and the old factor go before the next assembly
        post = assemble(K, Sites(lam1, lam2))
        skipped_total += skipped
        if max_delta < tol:
            converged = True
            break
    if skipped_total:
        logger.info("EP skipped %d site updates on non-positive cavity precision", skipped_total)
    if not np.isfinite(log_scale).all():
        raise NumericsError("EP site log scales are not finite")
    return post, log_scale, converged


def ep_energy(post, log_scale):
    """Unnormalized-site energy of post plus the site log scales (EP evidence).

    post and log_scale are as ep_inference returns them.
    """
    return ep_like_energy(post) + float(np.sum(log_scale))
