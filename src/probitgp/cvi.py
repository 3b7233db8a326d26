"""Natural-gradient (mirror descent) E-step on the site parameters.

Each iteration maps the current marginal moments through the likelihood
expectations and moves every site synchronously:

    lam1 <- (1 - beta) lam1 + beta (g_m - 2 g_v m)
    lam2 <- (1 - beta) lam2 + beta g_v

which is fixed-point iteration on the stationary condition of the ELBO in
expectation parameters, damped by the step size beta.  The E-step starts
from a posterior, post.sites under post.K, and returns the posterior of the
sites it ends with, so a caller that already holds the starting posterior
(the trainer's M-step, for one) never assembles it twice.

An update diverges when its sites are not finite, when assembling their
posterior fails (finite sites whose precisions overflow the posterior
factor), when that posterior has a negative marginal variance (lost to
cancellation) or when its ELBO is not finite.  The E-step then stops at
the last state before it, so numeric breakdown at extreme hyperparameters
is a shortened trace, not an error.
Only one posterior of the E-step's own is alive at a time; the rare
diverged path assembles the last finite sites again.
"""

import logging

import numpy as np

from .errors import NumericsError
from .posterior import LAMBDA2_CEIL, Sites, assemble, elbo

logger = logging.getLogger(__name__)

STEP_SIZE = 0.1  # beta of the grid's E-steps and TrainConfig's default


def check_settings(step_size, iters):
    """ValueError naming e_step_size or e_iters unless 0 < step_size <= 1 and
    iters >= 0; configs that carry an E-step budget check it at construction."""
    if not 0.0 < step_size <= 1.0:  # NaN fails too
        raise ValueError(f"e_step_size must lie in (0, 1], got {step_size}")
    if iters < 0:
        raise ValueError(f"e_iters must be >= 0, got {iters}")


def e_step(post, y, step_size, iters):
    """Run `iters` synchronous natural-gradient updates from post.sites under post.K.

    Returns (post, trace): post is the posterior of the sites the loop ends
    with, under the same Gram matrix, and carries them as post.sites;
    trace[k] is the ELBO after k updates (length iters + 1).  An update
    that diverges (as the module docstring defines it) ends the loop with a
    warning; the posterior of the last finite state is returned with its
    shortened trace.
    """
    y = np.asarray(y, dtype=float)
    check_settings(step_size, iters)

    value, g_m, g_v = elbo(post, y)
    trace = [value]
    K = post.K
    for it in range(iters):
        sites, m = post.sites, post.m
        post = None  # one posterior alive: the next is assembled without this one
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            lam1 = (1.0 - step_size) * sites.lam1 + step_size * (g_m - 2.0 * g_v * m)
            lam2 = (1.0 - step_size) * sites.lam2 + step_size * g_v
        lam2 = np.minimum(lam2, LAMBDA2_CEIL)
        value = np.nan
        if np.isfinite(lam1).all() and np.isfinite(lam2).all():
            try:
                post = assemble(K, Sites(lam1, lam2))
            except NumericsError:  # finite sites whose precisions overflow the factor
                pass
            if post is not None and np.all(post.var >= 0.0):  # cancellation can leave one below 0
                value, g_m, g_v = elbo(post, y)
        if not np.isfinite(value):
            logger.warning("E-step diverged at iteration %d; keeping last finite state", it + 1)
            post = assemble(K, sites)  # assembly is deterministic: bitwise the last one
            break
        trace.append(value)
    return post, trace
