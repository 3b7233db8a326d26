"""Variational EM: natural-gradient E-steps alternating with gradient M-steps.

The E-step fits sites at fixed hyperparameters; the M-step ascends the chosen
learning objective ("elbo" or "ep_like") in log-hyperparameter space with its
exact gradient, holding the sites fixed.  Every probe builds the Gram matrix
and assembles the posterior once at the probed point and returns the value
and the gradient together, so the objective's dependence on the
hyperparameters through the posterior is honored.  The Gram matrices of a
fit share one distance matrix.  The E-step after each M-step gives the
round's ELBO; the last leaves the sites consistent with the final theta.
TrainConfig holds the budgets and step sizes of the two steps, the
objective and the jitter; nothing else is tunable.

Each posterior is assembled once and handed on, and it carries its Gram
matrix and sites, so it is the one value passed between the steps: the
E-step's last posterior serves the M-step's first probe, and the last
accepted probe's posterior serves the next E-step's first iteration.
fit_start runs the opening E-step on its own, so fits that differ only in
the objective (the two methods of one CV fold) can share it.
"""

from dataclasses import dataclass, field

import numpy as np

from .cvi import e_step
from .errors import NumericsError
from .data import Dataset
from .kernel import Hyperparams, gram, gram_grads
from .likelihood import expectation_stats
from .posterior import GaussianPosterior, Sites, assemble, elbo, ep_like_energy, prior_kl

OBJECTIVES = ("elbo", "ep_like")


@dataclass(frozen=True)
class TrainConfig:
    objective: str = "elbo"
    theta0: Hyperparams = field(default_factory=Hyperparams)
    e_iters: int = 20
    e_step_size: float = 0.1
    m_iters: int = 20
    m_lr: float = 0.001
    outer_rounds: int = 50
    outer_tol: float = 1e-4
    jitter: float | None = None

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        if self.e_iters < 0 or self.m_iters < 0 or self.outer_rounds < 1:
            raise ValueError("iteration counts out of range")
        if self.m_lr <= 0 or self.outer_tol < 0:
            raise ValueError("m_lr must be > 0 and outer_tol >= 0")


@dataclass(frozen=True)
class TrainResult:
    theta: Hyperparams
    objective_trace: np.ndarray   # objective after each outer round
    elbo_trace: np.ndarray        # ELBO after each outer round
    theta_trace: np.ndarray       # hyperparameters after each outer round
    posterior: GaussianPosterior  # of the final sites under theta, from the last E-step
    stopped: str                  # "tolerance", "stalled" or "round_cap"; see fit


@dataclass(frozen=True)
class FitStart:
    """The opening E-step of fit: the posterior of the sites it reached from
    zero at theta0, which carries them and their Gram matrix.  dataset and
    the configuration key say what it was built for."""

    dataset: Dataset
    key: tuple
    post: GaussianPosterior


def _start_key(cfg):
    """What the opening E-step depends on; the objective is not part of it."""
    return (cfg.theta0, cfg.e_iters, cfg.e_step_size, cfg.jitter)


def _value(y, post, objective):
    """The objective of post's sites under post's Gram matrix."""
    if objective == "elbo":
        return elbo(post, y)
    return ep_like_energy(post)


def _value_and_grad(dataset, theta, post, objective, jitter):
    """The objective at post and its gradient wrt log-theta at fixed sites.

    post is the posterior of the sites under
    gram(dataset.X, theta, jitter, dataset.distances).  Each gradient entry
    is sum(G * dK) over one kernel derivative (GPML eq. 5.9).  At extreme
    states either may come out non-finite, without a warning: _m_step
    rejects such a probe, and stops on such a gradient.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        value, G = _value_and_weights(dataset.y, post, objective)
        d_ell, d_sig = gram_grads(dataset.distances, theta, post.K, jitter)
        d_ell *= G
        d_sig *= G
        return value, np.array([np.sum(d_ell), np.sum(d_sig)])


def _value_and_weights(y, post, objective):
    """The objective and its gradient weights G wrt K at fixed sites.

    With B = diag(-2 lam2), Woodbury gives W = B^1/2 A^-1 B^1/2 = B - BSB and
    Mt = (I + B K)^-1 = I - BS from the posterior covariance S, formed here
    and not cached on post.  The energy has G = (alpha alpha' - W) / 2; the
    ELBO chains dm = S K^-1 dK alpha and dS = S K^-1 dK K^-1 S through the
    expectation derivatives (g_m, g_v) and the KL.  S, W and Mt are freed on
    return, before the kernel derivatives are formed.  W, Mt and G are
    accumulated in place: each element sees the same floating-point
    operations as in the plain expressions, so the result is the same to
    the bit with fewer n x n blocks alive at once.
    """
    S = post.covariance()
    alpha = post.alpha
    b = -2.0 * post.sites.lam2
    bsb = b[:, None] * S
    bsb *= b[None, :]
    W = np.diag(b)
    W -= bsb
    del bsb
    if objective == "elbo":
        e, g_m, g_v = expectation_stats(y, post.m, post.var)
        value = float(np.sum(e)) - prior_kl(post)
        Mt = np.eye(b.size)
        Mt -= b[:, None] * S
        del S
        c = Mt @ (g_m + b * post.m) - 0.5 * alpha
        # G = outer(alpha, c) + Mt diag(g_v + b/2) Mt' - W/2
        G = Mt @ ((g_v + 0.5 * b)[:, None] * Mt.T)
        del Mt
        G += np.outer(alpha, c)
        G -= 0.5 * W
    else:
        del S
        value = ep_like_energy(post)
        G = np.outer(alpha, alpha)
        G -= W
        G *= 0.5
    return value, G


def _m_step(dataset, theta, cfg, post):
    """cfg.m_iters exact-gradient ascent steps on log-theta; step halving up to
    10 times per iteration; post.sites stay fixed throughout.

    post is the posterior at theta and serves the first probe.  Returns
    (theta, value, post, stalled) at the last accepted point: the new theta,
    the objective there, the posterior the probe built there, and whether
    the gradient at theta was not finite, so that theta could not move.  A
    step that overflows is a rejected probe.  With cfg.m_iters == 0 only the
    value is computed.
    """
    if cfg.m_iters == 0:
        return theta, _value(dataset.y, post, cfg.objective), post, False
    sites = post.sites

    def probe(vec):
        if not np.isfinite(vec).all():
            raise NumericsError("the step overflowed")
        th = Hyperparams(vec[0], vec[1])
        post = assemble(gram(dataset.X, th, cfg.jitter, dataset.distances), sites)
        if not np.all(post.var >= 0.0):  # neither the ELBO nor the next E-step could read it
            raise NumericsError("probe posterior has a negative marginal variance")
        return *_value_and_grad(dataset, th, post, cfg.objective, cfg.jitter), post

    th = theta.as_array()
    current, grad = _value_and_grad(dataset, theta, post, cfg.objective, cfg.jitter)
    stalled = not np.isfinite(grad).all()
    for _ in range(cfg.m_iters):
        if not np.isfinite(grad).all():
            break
        step = cfg.m_lr
        for _ in range(11):  # full step, then up to 10 halvings
            with np.errstate(over="ignore"):  # probe rejects a non-finite point
                cand = th + step * grad
            try:
                probed = probe(cand)
            except NumericsError:
                probed = None
            if probed is not None and np.isfinite(probed[0]) and probed[0] >= current:
                th = cand
                current, grad, post = probed
                break
            probed = None  # free a rejected probe before the next one
            step *= 0.5
        else:
            break  # every probe failed; the next iteration would repeat them
    return Hyperparams(float(th[0]), float(th[1])), current, post, stalled


def fit_start(dataset, cfg):
    """The opening E-step of fit(dataset, cfg): cfg.e_iters updates from zero
    sites under gram(dataset.X, cfg.theta0, cfg.jitter).

    It depends on the dataset, theta0, the E-step budget (e_iters and
    e_step_size) and jitter, not on the objective or the M-step settings,
    so one start serves every fit that agrees on those.
    """
    K = gram(dataset.X, cfg.theta0, cfg.jitter, dataset.distances)
    post, _ = e_step(
        assemble(K, Sites.zeros(dataset.n)), dataset.y, step_size=cfg.e_step_size, iters=cfg.e_iters
    )
    return FitStart(dataset, _start_key(cfg), post)


def fit(dataset, cfg, start=None):
    """Alternate E- and M-steps until the hyperparameter move stalls.

    Stops after cfg.outer_rounds rounds or when the max absolute change of
    log-theta over a round drops below cfg.outer_tol.  TrainResult.stopped
    says which: "round_cap", or "tolerance", or "stalled" when that round's
    M-step met a non-finite gradient at theta and so could not move it.
    The E-step after the last M-step refreshes the sites, and
    its posterior is TrainResult.posterior.  start is fit_start(dataset, cfg)
    or any start built for this dataset object with the same theta0, E-step
    budget and jitter (ValueError otherwise); None runs it here.
    The result is bitwise the same either way.  Deterministic: no randomness
    anywhere.
    """
    if start is None:
        start = fit_start(dataset, cfg)
    elif start.dataset is not dataset or start.key != _start_key(cfg):
        raise ValueError("start was built for another dataset or configuration")
    theta, post = cfg.theta0, start.post
    del start
    objective_trace = []
    elbo_trace = []
    theta_trace = []
    stopped = "round_cap"
    for _ in range(cfg.outer_rounds):
        new_theta, obj, post, stalled = _m_step(dataset, theta, cfg, post)
        post, e_trace = e_step(post, dataset.y, step_size=cfg.e_step_size, iters=cfg.e_iters)
        objective_trace.append(obj)
        elbo_trace.append(e_trace[0])  # ELBO at the M-step's sites and new_theta
        theta_trace.append([new_theta.log_lengthscale, new_theta.log_magnitude])
        delta = max(
            abs(new_theta.log_lengthscale - theta.log_lengthscale),
            abs(new_theta.log_magnitude - theta.log_magnitude),
        )
        theta = new_theta
        if delta < cfg.outer_tol:
            stopped = "stalled" if stalled else "tolerance"
            break
    return TrainResult(
        theta=theta,
        objective_trace=np.array(objective_trace),
        elbo_trace=np.array(elbo_trace),
        theta_trace=np.array(theta_trace),
        posterior=post,
        stopped=stopped,
    )
