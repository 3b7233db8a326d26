"""Variational EM: natural-gradient E-steps alternating with gradient M-steps.

The E-step fits sites at fixed hyperparameters; the M-step ascends the chosen
learning objective ("elbo" or "ep_like") in log-hyperparameter space with its
exact gradient, holding the sites fixed.  Every probe builds the Gram matrix
and assembles the posterior once at the probed point and returns the value
and the gradient together, so the objective's dependence on the
hyperparameters through the posterior is honored.  The Gram matrices of a
fit share one distance matrix.  The E-step after each M-step gives the
round's ELBO; the last leaves the sites consistent with the final theta.
"""

from dataclasses import dataclass, field

import numpy as np

from .cvi import e_step
from .errors import NumericsError
from .kernel import Hyperparams, gram, gram_grads
from .likelihood import DEFAULT_QUAD_ORDER, expectation_stats
from .posterior import Sites, assemble, elbo, ep_like_energy, prior_kl

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


def objective_value(dataset, sites, theta, objective, jitter=None, quad_order=DEFAULT_QUAD_ORDER):
    """Learning objective at (sites, theta); rebuilds K and the posterior."""
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    K = gram(dataset.X, theta, jitter, dataset.distances)
    post = assemble(K, sites)
    if objective == "elbo":
        return elbo(K, sites, dataset.y, quad_order=quad_order, post=post)
    return ep_like_energy(K, sites, post=post)


def _value_and_grad(dataset, sites, theta, objective, jitter, quad_order):
    """objective_value and its gradient wrt log-theta at fixed sites.

    Each gradient entry is sum(G * dK) over one kernel derivative (GPML eq.
    5.9).  With B = diag(-2 lam2), Woodbury gives W = B^1/2 A^-1 B^1/2 = B - BSB
    and Mt = (I + B K)^-1 = I - BS from the assembled S.  The energy has
    G = (alpha alpha' - W) / 2; the ELBO chains dm = S K^-1 dK alpha and
    dS = S K^-1 dK K^-1 S through the expectation derivatives (g_m, g_v) and
    the KL.
    """
    K = gram(dataset.X, theta, jitter, dataset.distances)
    post = assemble(K, sites)
    alpha = post.alpha
    b = -2.0 * sites.lam2
    W = np.diag(b) - b[:, None] * post.S * b[None, :]
    if objective == "elbo":
        e, g_m, g_v = expectation_stats(dataset.y, post.m, post.var, quad_order=quad_order)
        value = float(np.sum(e)) - prior_kl(post)
        Mt = np.eye(sites.n) - b[:, None] * post.S
        c = Mt @ (g_m + b * post.m) - 0.5 * alpha
        G = np.outer(alpha, c) + Mt @ ((g_v + 0.5 * b)[:, None] * Mt.T) - 0.5 * W
    else:
        value = ep_like_energy(K, sites, post=post)
        G = 0.5 * (np.outer(alpha, alpha) - W)
    d_ell, d_sig = gram_grads(dataset.distances, theta, K, jitter)
    return value, np.array([np.sum(G * d_ell), np.sum(G * d_sig)])


def _m_step(dataset, sites, theta, cfg):
    """cfg.m_iters exact-gradient ascent steps on log-theta; step halving up to
    10 times per iteration; sites stay fixed throughout.  Returns the new theta
    and the objective value there."""
    def probe(vec):
        return _value_and_grad(
            dataset, sites, Hyperparams(vec[0], vec[1]),
            cfg.objective, cfg.jitter, cfg.quad_order,
        )

    th = theta.as_array()
    current, grad = probe(th)
    for _ in range(cfg.m_iters):
        if not np.isfinite(grad).all():
            break
        step = cfg.m_lr
        for _ in range(11):  # full step, then up to 10 halvings
            cand = th + step * grad
            try:
                val, cand_grad = probe(cand)
            except NumericsError:
                val = -np.inf
            if np.isfinite(val) and val >= current:
                th, current, grad = cand, val, cand_grad
                break
            step *= 0.5
        else:
            break  # every probe failed; the next iteration would repeat them
    return Hyperparams(float(th[0]), float(th[1])), current


def fit(dataset, cfg):
    """Alternate E- and M-steps until the hyperparameter move stalls.

    Stops after cfg.outer_rounds rounds or when the max absolute change of
    log-theta over a round drops below cfg.outer_tol; the E-step after the
    last M-step refreshes the sites.  Deterministic: no randomness anywhere.
    """
    def refresh(theta, sites):
        K = gram(dataset.X, theta, cfg.jitter, dataset.distances)
        return e_step(
            K, dataset.y, sites,
            step_size=cfg.e_step_size, iters=cfg.e_iters, quad_order=cfg.quad_order,
        )

    theta = cfg.theta0
    sites, _ = refresh(theta, Sites.zeros(dataset.n))
    objective_trace = []
    elbo_trace = []
    theta_trace = []
    for _ in range(cfg.outer_rounds):
        new_theta, obj = _m_step(dataset, sites, theta, cfg)
        sites, e_trace = refresh(new_theta, sites)
        objective_trace.append(obj)
        elbo_trace.append(e_trace[0])  # ELBO at the M-step's sites and new_theta
        theta_trace.append([new_theta.log_lengthscale, new_theta.log_magnitude])
        delta = max(
            abs(new_theta.log_lengthscale - theta.log_lengthscale),
            abs(new_theta.log_magnitude - theta.log_magnitude),
        )
        theta = new_theta
        if delta < cfg.outer_tol:
            break
    return TrainResult(
        theta=theta,
        sites=sites,
        objective_trace=np.array(objective_trace),
        elbo_trace=np.array(elbo_trace),
        theta_trace=np.array(theta_trace),
    )
