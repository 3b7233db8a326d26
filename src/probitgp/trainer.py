"""Variational EM: natural-gradient E-steps alternating with gradient M-steps.

The E-step fits sites at fixed hyperparameters; the M-step ascends the chosen
learning objective ("elbo" or "ep_like") in log-hyperparameter space with its
exact gradient, in steps of M_STEP that halve until the objective does not
fall, holding the sites fixed.  Each objective is read as
log Z_q + sum_i c_i(m_i, v_i) at the sites, where (m_i, v_i) are q's
marginals, so one weight matrix gives every objective's gradient.  Every
probe builds the Gram matrix and assembles the posterior once at the probed
point and returns the value and the gradient together.  The Gram matrices of
a fit share one distance matrix.  The E-step after each M-step gives the
round's ELBO; the last leaves the sites consistent with the final theta.

Each posterior is assembled once and handed on, and it carries its sites
and its Gram matrix, which carries theta, so it is the one value passed
between the steps: the E-step's last posterior serves the M-step's first
probe, and the last accepted probe's posterior the next E-step's first
iteration.  fit_start runs the opening E-step on its own, so fits that
differ only in the objective (the two methods of one CV fold) can share it.
"""

from dataclasses import dataclass, field

import numpy as np

from .cvi import STEP_SIZE, check_settings, e_step
from .errors import NumericsError
from .data import Dataset
from .kernel import Hyperparams, gram, gram_grads
from .posterior import GaussianPosterior, Sites, assemble, elbo, ep_like_energy

OBJECTIVES = ("elbo", "ep_like")
M_STEP = 0.001  # the M-step's full step on log-theta, before any halving


@dataclass(frozen=True)
class TrainConfig:
    objective: str = "elbo"
    theta0: Hyperparams = field(default_factory=Hyperparams)
    e_iters: int = 20
    e_step_size: float = STEP_SIZE
    m_iters: int = 20
    outer_rounds: int = 50
    outer_tol: float = 1e-4

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        check_settings(self.e_step_size, self.e_iters)
        if self.m_iters < 0 or self.outer_rounds < 1:
            raise ValueError("iteration counts out of range")
        if not 0 <= self.outer_tol < np.inf:  # NaN fails too
            raise ValueError("outer_tol must be finite and >= 0")


@dataclass(frozen=True)
class TrainResult:
    objective_trace: np.ndarray   # objective after each outer round
    elbo_trace: np.ndarray        # ELBO after each outer round
    theta_trace: np.ndarray       # hyperparameters after each outer round
    posterior: GaussianPosterior  # of the final sites under theta, from the last E-step
    stopped: str                  # "tolerance", "stalled" or "round_cap"; see fit

    @property
    def theta(self):
        """The final hyperparameters, those of the posterior's Gram matrix."""
        return self.posterior.K.theta


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
    return (cfg.theta0, cfg.e_iters, cfg.e_step_size)


def _objective_terms(post, y, objective):
    """(value, h) of the objective ("elbo" or "ep_like") at post, read as
    log Z_q + sum_i c_i(m_i, v_i): h = (dc/dm, dc/dv) per marginal, or None
    for log Z_q (ep_like_energy) alone.  The ELBO's c_i is
    E_q[log Phi(y_i f_i) - lam1 f_i - lam2 f_i^2]; with b = -2 lam2 its
    h = (g_m - lam1 + b m, g_v + b / 2)."""
    if objective == "ep_like":
        return ep_like_energy(post), None
    value, g_m, g_v = elbo(post, y)
    b = -2.0 * post.sites.lam2
    return value, (g_m - post.sites.lam1 + b * post.m, g_v + 0.5 * b)


def learning_objective(post, y, objective):
    """The learning objective ("elbo" or "ep_like") of post's sites under
    post's Gram matrix."""
    return _objective_terms(post, y, objective)[0]


def _value_and_grad(dataset, post, objective):
    """The objective at post and its gradient wrt log-theta at fixed sites.

    post is the posterior of the sites under
    gram(dataset.X, theta, dataset.distances) for the theta post.K carries.
    With B = diag(-2 lam2), Woodbury gives W = B^1/2 A^-1 B^1/2 = B - BSB and
    Mt = (I + B K)^-1 = I - BS from the posterior covariance S.  With
    dm = Mt' dK alpha and dS = Mt' dK Mt, every objective's weights wrt K are
    G = (alpha alpha' - W) / 2 + Mt diag(h_v) Mt' + alpha (Mt h_m)', Mt formed
    only when h is given.  Each gradient entry is sum(G * dK) over one kernel
    derivative (GPML eq. 5.9), formed after S, W and Mt are freed.  At
    extreme states either may come out non-finite, without a warning:
    _m_step rejects such a probe, and stops on such a gradient.
    """
    alpha = post.alpha
    b = -2.0 * post.sites.lam2
    with np.errstate(over="ignore", invalid="ignore"):
        value, h = _objective_terms(post, dataset.y, objective)
        S = post.covariance()
        W = np.diag(b) - b[:, None] * S * b[None, :]
        Mt = None if h is None else np.eye(b.size) - b[:, None] * S
        del S
        G = 0.5 * (np.outer(alpha, alpha) - W)
        del W
        if h is not None:
            h_m, h_v = h
            G += Mt @ (h_v[:, None] * Mt.T)
            G += np.outer(alpha, Mt @ h_m)
        del Mt
        d_ell, d_sig = gram_grads(dataset.distances, post.K)
        d_ell *= G
        d_sig *= G
        return value, np.array([np.sum(d_ell), np.sum(d_sig)])


def _m_step(dataset, cfg, post):
    """cfg.m_iters exact-gradient ascent steps of M_STEP on log-theta from
    post.K.theta; step halving up to 10 times per iteration; post.sites stay
    fixed throughout.

    post serves the first probe.  Returns (value, post, accepted) at the
    last accepted point: the objective there, the posterior the probe built
    there (its Gram matrix carries the new theta), and whether any probe
    was accepted.  A step that overflows is a rejected probe.  With
    cfg.m_iters == 0 only the value is computed.
    """
    if cfg.m_iters == 0:
        return learning_objective(post, dataset.y, cfg.objective), post, False
    sites = post.sites

    def probe(vec):
        if not np.isfinite(vec).all():
            raise NumericsError("the step overflowed")
        th = Hyperparams(float(vec[0]), float(vec[1]))
        post = assemble(gram(dataset.X, th, dataset.distances), sites)
        if not np.all(post.var >= 0.0):  # neither the ELBO nor the next E-step could read it
            raise NumericsError("probe posterior has a negative marginal variance")
        return *_value_and_grad(dataset, post, cfg.objective), post

    th = post.K.theta.as_array()
    current, grad = _value_and_grad(dataset, post, cfg.objective)
    accepted = False
    for _ in range(cfg.m_iters):
        if not np.isfinite(grad).all():
            break
        step = M_STEP
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
                accepted = True
                break
            probed = None  # free a rejected probe before the next one
            step *= 0.5
        else:
            break  # every probe failed; the next iteration would repeat them
    return current, post, accepted


def fit_start(dataset, cfg):
    """The opening E-step of fit(dataset, cfg): cfg.e_iters updates from zero
    sites under gram(dataset.X, cfg.theta0).

    It depends on the dataset, theta0 and the E-step budget (e_iters and
    e_step_size), not on the objective or the M-step settings, so one start
    serves every fit that agrees on those.
    """
    K = gram(dataset.X, cfg.theta0, dataset.distances)
    post, _ = e_step(
        assemble(K, Sites.zeros(dataset.n)), dataset.y, step_size=cfg.e_step_size, iters=cfg.e_iters
    )
    return FitStart(dataset, _start_key(cfg), post)


def fit(dataset, cfg, start=None):
    """Alternate E- and M-steps until the hyperparameter move stalls.

    Stops after cfg.outer_rounds rounds or when the max absolute change of
    log-theta over a round drops below cfg.outer_tol.  TrainResult.stopped
    says which: "round_cap", or "tolerance", or "stalled" when that round's
    M-step had iterations (cfg.m_iters > 0) but accepted no probe.
    The E-step after the last M-step refreshes the sites, and
    its posterior is TrainResult.posterior.  start is fit_start(dataset, cfg)
    or any start built for this dataset object with the same theta0 and
    E-step budget (ValueError otherwise); None runs it here.
    The result is bitwise the same either way.  Deterministic: no randomness
    anywhere.
    """
    if start is None:
        start = fit_start(dataset, cfg)
    elif start.dataset is not dataset or start.key != _start_key(cfg):
        raise ValueError("start was built for another dataset or configuration")
    post = start.post
    del start
    objective_trace, elbo_trace, theta_trace = [], [], []
    stopped = "round_cap"
    for _ in range(cfg.outer_rounds):
        theta = post.K.theta
        obj, post, accepted = _m_step(dataset, cfg, post)
        post, e_trace = e_step(post, dataset.y, step_size=cfg.e_step_size, iters=cfg.e_iters)
        new_theta = post.K.theta
        objective_trace.append(obj)
        elbo_trace.append(e_trace[0])  # ELBO at the M-step's sites and new_theta
        theta_trace.append(new_theta.as_array())
        delta = np.max(np.abs(new_theta.as_array() - theta.as_array()))
        if delta < cfg.outer_tol:
            stopped = "stalled" if cfg.m_iters > 0 and not accepted else "tolerance"
            break
    return TrainResult(objective_trace=np.array(objective_trace), elbo_trace=np.array(elbo_trace),
                       theta_trace=np.array(theta_trace), posterior=post, stopped=stopped)
