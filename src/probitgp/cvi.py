"""Natural-gradient (mirror descent) E-step on the site parameters.

Each iteration maps the current marginal moments through the likelihood
expectations and moves every site synchronously:

    lam1 <- (1 - beta) lam1 + beta (g_m - 2 g_v m)
    lam2 <- (1 - beta) lam2 + beta g_v

which is fixed-point iteration on the stationary condition of the ELBO in
expectation parameters, damped by the step size beta.
"""

import logging

import numpy as np

from .likelihood import DEFAULT_QUAD_ORDER, expectation_stats
from .posterior import LAMBDA2_CEIL, Sites, assemble, prior_kl

logger = logging.getLogger(__name__)


def e_step(
    K,
    y,
    sites0,
    step_size=0.1,
    iters=20,
    quad_order=DEFAULT_QUAD_ORDER,
    loglik_stats=None,
    post=None,
):
    """Run `iters` synchronous natural-gradient updates from sites0.

    Returns (sites, trace, post): trace[k] is the ELBO after k updates
    (length iters + 1) and post is the posterior of the returned sites under
    K, which the loop has assembled anyway.  A non-finite ELBO aborts the
    loop; the last finite state is returned with its shortened trace and its
    posterior.

    post, when given, must be assemble(K, sites0) for these very K and
    sites0 objects (ValueError otherwise); the first assembly is then
    skipped.
    """
    y = np.asarray(y, dtype=float)
    if not 0.0 < step_size <= 1.0:
        raise ValueError("step size must lie in (0, 1]")
    if iters < 0:
        raise ValueError("iteration count must be >= 0")
    if post is None:
        post = assemble(K, sites0)
    elif not post.assembled_from(K, sites0):
        raise ValueError("post was not assembled from this K and sites0")

    def stats(post):
        if loglik_stats is None:
            return expectation_stats(y, post.m, post.var, quad_order=quad_order)
        return loglik_stats(y, post.m, post.var)

    sites = sites0
    e, g_m, g_v = stats(post)
    trace = [float(np.sum(e)) - prior_kl(post)]
    for it in range(iters):
        lam1 = (1.0 - step_size) * sites.lam1 + step_size * (g_m - 2.0 * g_v * post.m)
        lam2 = (1.0 - step_size) * sites.lam2 + step_size * g_v
        lam2 = np.minimum(lam2, LAMBDA2_CEIL)
        new_sites = Sites(lam1, lam2)
        new_post = assemble(K, new_sites)
        e, g_m, g_v = stats(new_post)
        value = float(np.sum(e)) - prior_kl(new_post)
        if not np.isfinite(value):
            logger.warning("E-step diverged at iteration %d; keeping last finite state", it + 1)
            break
        sites, post = new_sites, new_post
        trace.append(value)
    return sites, trace, post
