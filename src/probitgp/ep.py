"""Expectation propagation with scaled Gaussian sites, updated in parallel.

Each sweep, at most SWEEPS of them, takes the shape of the E-step
(GPML §3.6; parallel EP as in Vehtari et al. 2020, "Expectation
propagation as a way of life"): every site's cavity comes from the current
posterior's marginals by natural-parameter subtraction, each site is
moment-matched against its closed-form tilted distribution, its move in
natural parameters is damped by DAMPING, and one assembly gives the next
posterior.  EP's fixed point does not depend on the order of the site
updates, so the parallel sweep reaches the sites of the sequential one
(GPML Alg. 3.5).  Each site also keeps a log scale chosen so the scaled
site integrates the tilted evidence against its cavity; summing those
scales on top of the unnormalized-site energy recovers the standard EP
marginal-likelihood approximation.
"""

import logging
import math

import numpy as np

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
    """Run damped parallel EP from zero sites; returns (post, log_scale, converged).

    Every sweep moves all sites from the cavities of one posterior and then
    assembles the next, so a sweep costs one assembly and n scalar tilted
    moments.  post is the GaussianPosterior of the final sites, which it
    carries, and log_scale their per-site log normalizers.  converged means
    the largest natural-parameter change in the final sweep fell below tol.
    Sites whose cavity precision is not positive are skipped for that sweep
    (counted and logged).  A site update or log scale that is not finite raises
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
        # a variance that rounds to zero or below gives a cavity that is skipped
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            cav_rhos = (1.0 / post.var + 2.0 * lam2).tolist()
            cav_gams = (post.m / post.var - lam1).tolist()
        del post  # the old factor goes before the next assembly
        max_delta = 0.0
        skipped = 0
        for i in range(n):
            cav_rho, cav_gam = cav_rhos[i], cav_gams[i]
            if not 0.0 < cav_rho < math.inf:
                skipped += 1
                continue
            cav = MarginalMoments(mean=cav_gam / cav_rho, var=1.0 / cav_rho)
            log_z, tilted = ep_tilted_moments(labels[i], cav)
            tau = -2.0 * lam2.item(i)
            nu = lam1.item(i)
            tau_new = 1.0 / tilted.var - cav_rho
            nu_new = tilted.mean / tilted.var - cav_gam
            tau_d = max((1.0 - DAMPING) * tau + DAMPING * tau_new, -2.0 * LAMBDA2_CEIL)
            nu_d = (1.0 - DAMPING) * nu + DAMPING * nu_new
            if not (math.isfinite(tau_d) and math.isfinite(nu_d)):
                raise NumericsError(f"EP site {i} update is not finite")
            lam1[i] = nu_d  # site i's cavity is already taken: the sweep moves every site at once
            lam2[i] = -0.5 * tau_d
            log_scale[i] = log_z - _log_gauss_site_integral(cav.mean, cav.var, nu_d, -0.5 * tau_d)
            max_delta = max(max_delta, abs(tau_d - tau), abs(nu_d - nu))
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
