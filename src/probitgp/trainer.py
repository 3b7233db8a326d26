"""Variational EM: natural-gradient E-steps alternating with gradient M-steps.

The E-step fits sites at fixed hyperparameters; the M-step ascends the chosen
learning objective ("elbo" or "ep_like") in log-hyperparameter space with its
exact gradient, holding the sites fixed.  Every probe builds the Gram matrix
and assembles the posterior once at the probed point and returns the value
and the gradient together, so the objective's dependence on the
hyperparameters through the posterior is honored.  The Gram matrices of a
fit share one distance matrix.  The E-step after each M-step gives the
round's ELBO; the last leaves the sites consistent with the final theta.

Each posterior is assembled once and handed on: the E-step's last one
serves the M-step's first probe, and the last accepted probe's Gram matrix
and posterior serve the next E-step's first iteration.  fit_start runs the
opening E-step on its own, so fits that differ only in the objective (the
two methods of one CV fold) can share it.
"""

from dataclasses import dataclass, field

import numpy as np

from .cvi import e_step
from .errors import NumericsError
from .data import Dataset
from .kernel import GramMatrix, Hyperparams, gram, gram_grads
from .likelihood import DEFAULT_QUAD_ORDER, expectation_stats
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
    quad_order: int = DEFAULT_QUAD_ORDER
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
    sites: Sites
    objective_trace: np.ndarray   # objective after each outer round
    elbo_trace: np.ndarray        # ELBO after each outer round
    theta_trace: np.ndarray       # hyperparameters after each outer round
    posterior: GaussianPosterior  # of sites under theta, from the last E-step
    converged: bool               # outer_tol met; False: stopped at outer_rounds


@dataclass(frozen=True)
class FitStart:
    """The opening E-step of fit: sites from zero at theta0, with the Gram
    matrix and posterior they were assembled with.  dataset and the
    configuration key say what it was built for."""

    dataset: Dataset
    key: tuple
    K: GramMatrix
    sites: Sites
    post: GaussianPosterior


def _start_key(cfg):
    """What the opening E-step depends on; the objective is not part of it."""
    return (cfg.theta0, cfg.e_iters, cfg.e_step_size, cfg.quad_order, cfg.jitter)


def objective_value(dataset, sites, theta, objective, jitter=None, quad_order=DEFAULT_QUAD_ORDER):
    """Learning objective at (sites, theta); rebuilds K and the posterior."""
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    K = gram(dataset.X, theta, jitter, dataset.distances)
    post = assemble(K, sites)
    if objective == "elbo":
        return elbo(K, sites, dataset.y, quad_order=quad_order, post=post)
    return ep_like_energy(K, sites, post=post)


def _value_and_grad(dataset, sites, theta, objective, jitter, quad_order, K=None, post=None):
    """objective_value and its gradient wrt log-theta at fixed sites.

    K and post, when given, are gram and assemble at (theta, sites); else
    they are built here.  Each gradient entry is sum(G * dK) over one kernel
    derivative (GPML eq. 5.9).
    """
    if K is None:
        K = gram(dataset.X, theta, jitter, dataset.distances)
        post = assemble(K, sites)
    value, G = _value_and_weights(dataset.y, sites, K, post, objective, quad_order)
    d_ell, d_sig = gram_grads(dataset.distances, theta, K, jitter)
    d_ell *= G
    d_sig *= G
    return value, np.array([np.sum(d_ell), np.sum(d_sig)])


def _value_and_weights(y, sites, K, post, objective, quad_order):
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
    b = -2.0 * sites.lam2
    bsb = b[:, None] * S
    bsb *= b[None, :]
    W = np.diag(b)
    W -= bsb
    del bsb
    if objective == "elbo":
        e, g_m, g_v = expectation_stats(y, post.m, post.var, quad_order=quad_order)
        value = float(np.sum(e)) - prior_kl(post)
        Mt = np.eye(sites.n)
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
        value = ep_like_energy(K, sites, post=post)
        G = np.outer(alpha, alpha)
        G -= W
        G *= 0.5
    return value, G


def _m_step(dataset, sites, theta, cfg, K, post):
    """cfg.m_iters exact-gradient ascent steps on log-theta; step halving up to
    10 times per iteration; sites stay fixed throughout.

    K and post are gram and assemble at (theta, sites) and serve the first
    probe.  Returns (theta, value, K, post) at the last accepted point: the
    new theta, the objective there and the Gram matrix and posterior the
    probe built there.
    """
    def probe(vec):
        th = Hyperparams(vec[0], vec[1])
        K = gram(dataset.X, th, cfg.jitter, dataset.distances)
        post = assemble(K, sites)
        return (*_value_and_grad(dataset, sites, th, cfg.objective, cfg.jitter,
                                 cfg.quad_order, K, post), K, post)

    th = theta.as_array()
    current, grad = _value_and_grad(
        dataset, sites, theta, cfg.objective, cfg.jitter, cfg.quad_order, K, post,
    )
    for _ in range(cfg.m_iters):
        if not np.isfinite(grad).all():
            break
        step = cfg.m_lr
        for _ in range(11):  # full step, then up to 10 halvings
            cand = th + step * grad
            try:
                probed = probe(cand)
            except NumericsError:
                probed = None
            if probed is not None and np.isfinite(probed[0]) and probed[0] >= current:
                th = cand
                current, grad, K, post = probed
                break
            probed = None  # free a rejected probe before the next one
            step *= 0.5
        else:
            break  # every probe failed; the next iteration would repeat them
    return Hyperparams(float(th[0]), float(th[1])), current, K, post


def fit_start(dataset, cfg):
    """The opening E-step of fit(dataset, cfg): cfg.e_iters updates from zero
    sites under gram(dataset.X, cfg.theta0, cfg.jitter).

    It depends on the dataset, theta0, the E-step budget (e_iters and
    e_step_size), quad_order and jitter, not on the objective or the M-step
    settings, so one start serves every fit that agrees on those.
    """
    K = gram(dataset.X, cfg.theta0, cfg.jitter, dataset.distances)
    sites, _, post = e_step(
        K, dataset.y, Sites.zeros(dataset.n),
        step_size=cfg.e_step_size, iters=cfg.e_iters, quad_order=cfg.quad_order,
    )
    return FitStart(dataset, _start_key(cfg), K, sites, post)


def fit(dataset, cfg, start=None):
    """Alternate E- and M-steps until the hyperparameter move stalls.

    Stops after cfg.outer_rounds rounds or when the max absolute change of
    log-theta over a round drops below cfg.outer_tol (TrainResult.converged
    says which); the E-step after the last M-step refreshes the sites, and
    its posterior is TrainResult.posterior.  start is fit_start(dataset, cfg)
    or any start built for this dataset object with the same theta0, E-step
    budget, quad_order and jitter (ValueError otherwise); None runs it here.
    The result is bitwise the same either way.  Deterministic: no randomness
    anywhere.
    """
    if start is None:
        start = fit_start(dataset, cfg)
    elif start.dataset is not dataset or start.key != _start_key(cfg):
        raise ValueError("start was built for another dataset or configuration")
    theta, K, sites, post = cfg.theta0, start.K, start.sites, start.post
    del start
    objective_trace = []
    elbo_trace = []
    theta_trace = []
    converged = False
    for _ in range(cfg.outer_rounds):
        new_theta, obj, K, post = _m_step(dataset, sites, theta, cfg, K, post)
        sites, e_trace, post = e_step(
            K, dataset.y, sites,
            step_size=cfg.e_step_size, iters=cfg.e_iters, quad_order=cfg.quad_order,
            post=post,
        )
        objective_trace.append(obj)
        elbo_trace.append(e_trace[0])  # ELBO at the M-step's sites and new_theta
        theta_trace.append([new_theta.log_lengthscale, new_theta.log_magnitude])
        delta = max(
            abs(new_theta.log_lengthscale - theta.log_lengthscale),
            abs(new_theta.log_magnitude - theta.log_magnitude),
        )
        theta = new_theta
        if delta < cfg.outer_tol:
            converged = True
            break
    return TrainResult(
        theta=theta,
        sites=sites,
        objective_trace=np.array(objective_trace),
        elbo_trace=np.array(elbo_trace),
        theta_trace=np.array(theta_trace),
        posterior=post,
        converged=converged,
    )
