"""Shared test utilities: quadrature oracles, random instances, data access.

Oracles here are deliberately independent of the library's own algebra:
dense tensor-product Gauss-Hermite integration, Monte Carlo, and closed-form
conjugate identities only.
"""

import csv
import os
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.optimize import minimize
from scipy.special import log_ndtr, ndtr, roots_hermite

from probitgp import (
    AisEstimate,
    Dataset,
    MarginalMoments,
    GramMatrix,
    Hyperparams,
    FactorizationError,
    NumericsError,
    Sites,
    assemble,
    cross_gram,
    elbo,
    ep_like_energy,
    ep_tilted_moments,
    ess_step,
    expectation_stats,
    gram,
    latent_predict,
    temperature,
)
from probitgp import ep, trainer
from probitgp.data import _parse_float
from probitgp.kernel import JITTER_DEFAULT, _matern, euclidean, gram_grads
from probitgp.likelihood import QUAD_ORDER, check_labels
from probitgp.posterior import LAMBDA2_CEIL, VAR_TOL

DATA_DIR = Path(os.environ.get("PROBITGP_DATA", Path(__file__).resolve().parent.parent / "data"))

DATASET_FILES = {
    "sonar": "sonar.csv",
    "ionosphere": "ionosphere.csv",
    "diabetes": "diabetes.csv",
}


def dataset_path(name):
    return DATA_DIR / DATASET_FILES[name]


def have_dataset(name):
    return dataset_path(name).exists()


def gram_from_matrix(K):
    """Wrap an explicit SPD matrix as a GramMatrix (no jitter added)."""
    K = np.asarray(K, dtype=float)
    cholesky(K, lower=True)  # raises LinAlgError unless K is positive definite
    return GramMatrix(K=K, jitter=0.0, X=None, theta=None)


def jitter_free_gram(X, theta):
    """The Matern Gram matrix of X with no jitter, as a GramMatrix."""
    return gram_from_matrix(cross_gram(X, X, theta))


def rung(K, theta):
    """Index k of the jitter rung JITTER_DEFAULT * 10^k * magnitude^2 that
    gram(X, theta) = K took."""
    return int(np.rint(np.log10(K.jitter / (JITTER_DEFAULT * theta.magnitude ** 2))))


def failing_cholesky(fails, per_call=False):
    """A stand-in for probitgp.kernel.cholesky whose first `fails` calls
    factor the matrix and then raise LinAlgError, as on a matrix that is not
    positive definite; later calls return the factor.  So gram climbs
    `fails` rungs, or raises FactorizationError from 5 on.  With per_call
    the count restarts after each success: every gram call climbs."""
    failed = [0]

    def stand_in(*args, **kwargs):
        factor = cholesky(*args, **kwargs)  # the work, and the scratch, of a real attempt
        if failed[0] < fails:
            failed[0] += 1
            raise np.linalg.LinAlgError("not positive definite")
        if per_call:
            failed[0] = 0
        return factor

    return stand_in


def random_spd(n, rng, scale=1.0):
    """Well-conditioned random SPD matrix with unit-order diagonal."""
    A = rng.standard_normal((n, n))
    K = A @ A.T / n + 0.5 * np.eye(n)
    return scale * K


def random_sites_arrays(n, rng, lam1_range=2.0, lam2_range=(-3.0, -0.05)):
    lam1 = rng.uniform(-lam1_range, lam1_range, n)
    lam2 = rng.uniform(lam2_range[0], lam2_range[1], n)
    return lam1, lam2


def gauss_expect(fn, K, order=400):
    """E[fn(f)] under f ~ N(0, K) by tensor-product Gauss-Hermite, n <= 3.

    fn maps an (m, n) batch of states to an (m,) batch of values.  Strongly
    shifted integrands (large site shifts) converge slowly, hence the high
    default order; scipy's rule stays stable where numpy's overflows.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    n = K.shape[0]
    L = cholesky(K, lower=True)
    x, w = roots_hermite(order)
    grids = np.meshgrid(*([x] * n), indexing="ij")
    z = np.stack([g.ravel() for g in grids], axis=1) * np.sqrt(2.0)
    f = z @ L.T
    weights = np.ones(z.shape[0])
    for g in np.meshgrid(*([w] * n), indexing="ij"):
        weights *= g.ravel()
    return float(np.sum(weights * fn(f)) / np.pi ** (n / 2.0))


def probit_evidence_quadrature(Kmat, y, order=400):
    """Dense-quadrature log evidence of the probit model, for tiny n."""
    y = np.asarray(y, dtype=float)

    def integrand(f):
        return np.prod(ndtr(y[None, :] * f), axis=1)

    return float(np.log(gauss_expect(integrand, Kmat, order=order)))


def site_energy_quadrature(Kmat, lam1, lam2, order=400):
    """Dense-quadrature value of log E_N(0,K)[exp(lam1'f + f' diag(lam2) f)]."""
    lam1 = np.asarray(lam1, dtype=float)
    lam2 = np.asarray(lam2, dtype=float)

    def integrand(f):
        return np.exp(f @ lam1 + (f * f) @ lam2)

    return float(np.log(gauss_expect(integrand, Kmat, order=order)))


def make_blobs(n, d, seed, spread=1.2):
    """Two-cluster synthetic binary dataset, labels split half/half."""
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.concatenate([
        rng.standard_normal((half, d)) - spread,
        rng.standard_normal((n - half, d)) + spread,
    ])
    y = np.concatenate([-np.ones(half), np.ones(n - half)])
    perm = rng.permutation(n)
    return Dataset(name=f"blobs{n}x{d}", X=X[perm], y=y[perm])


def make_probit_gp(n, d, seed, theta=None):
    """(dataset, f): labels sampled from the generative model itself at the
    given theta, and the latent f ~ N(0, gram(X, theta).K) that drew them.

    A one-class draw of (f, y) is redrawn whole, so the returned f is an
    exact draw from the posterior p(f | y) of the returned labels.
    """
    theta = theta or Hyperparams(0.0, 0.0)
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, (n, d))
    L = cholesky(gram(X, theta).K, lower=True)
    while True:
        f = L @ rng.standard_normal(n)
        y = np.where(rng.uniform(size=n) < ndtr(f), 1.0, -1.0)
        if not np.all(y == y[0]):
            return Dataset(name=f"gp{n}x{d}", X=X, y=y), f


def gaussian_loglik_stats(noise_var, targets):
    """Per-point expectations for a conjugate Gaussian likelihood surrogate.

    Closed form: E[log N(t | f, s)] under f ~ N(m, v) is
    -((t - m)^2 + v) / (2 s) - log(2 pi s)/2, with g_m = (t - m)/s and
    g_v = -1/(2 s).
    """
    targets = np.asarray(targets, dtype=float)

    def stats(y, m, v):
        e = -((targets - m) ** 2 + v) / (2.0 * noise_var) - 0.5 * np.log(2.0 * np.pi * noise_var)
        g_m = (targets - m) / noise_var
        g_v = np.full_like(m, -0.5 / noise_var)
        return e, g_m, g_v

    return stats


def objective_value(dataset, sites, theta, objective, K=None):
    """Learning objective ("elbo" or "ep_like") at (sites, theta), from a
    fresh posterior under K, by default a fresh gram(dataset.X, theta)."""
    if K is None:
        K = gram(dataset.X, theta, dataset.distances)
    post = assemble(K, sites)
    if objective == "elbo":
        return elbo(post, dataset.y)[0]
    return ep_like_energy(post)


def value_and_grad_reference(dataset, post, objective):
    """The M-step's value and log-theta gradient as trainer._value_and_grad
    computed them with one gradient formula per objective.

    With B = diag(-2 lam2), W = B - BSB and Mt = I - BS from the posterior
    covariance S.  The energy has weights G = (alpha alpha' - W) / 2 wrt K;
    the ELBO chains dm = S K^-1 dK alpha and dS = S K^-1 dK K^-1 S through
    the expectation derivatives (g_m, g_v) and the KL.
    """
    alpha = post.alpha
    b = -2.0 * post.sites.lam2
    with np.errstate(over="ignore", invalid="ignore"):
        S = post.covariance()
        W = np.diag(b) - b[:, None] * S * b[None, :]
        if objective == "elbo":
            value, g_m, g_v = elbo(post, dataset.y)
            Mt = np.eye(b.size) - b[:, None] * S
            c = Mt @ (g_m + b * post.m) - 0.5 * alpha
            G = Mt @ ((g_v + 0.5 * b)[:, None] * Mt.T) + np.outer(alpha, c) - 0.5 * W
        else:
            value = ep_like_energy(post)
            G = 0.5 * (np.outer(alpha, alpha) - W)
        d_ell, d_sig = gram_grads(dataset.distances, post.K)
        d_ell *= G
        d_sig *= G
        return value, np.array([np.sum(d_ell), np.sum(d_sig)])


class ExpectationStats(NamedTuple):
    """E[log p(y|f)] and its derivatives w.r.t. the marginal mean and variance."""

    e: float
    g_m: float
    g_v: float


def expected_loglik(y, moments):
    """Scalar ExpectationStats of log Phi(y f) under f ~ N(moments), by
    likelihood.expectation_stats."""
    e, g_m, g_v = expectation_stats([y], [moments.mean], [moments.var])
    return ExpectationStats(e=float(e[0]), g_m=float(g_m[0]), g_v=float(g_v[0]))


def fd_m_step(dataset, sites, theta, cfg, h=1e-4):
    """Finite-difference M-step, the trainer's former implementation.

    cfg.m_iters ascent steps of trainer.M_STEP on log-theta with
    central-difference gradients (step h); step halving up to 10 times per
    iteration; sites stay fixed.
    """

    def value_at(vec):
        try:
            return objective_value(
                dataset, sites, Hyperparams(vec[0], vec[1]), cfg.objective
            )
        except NumericsError:
            return -np.inf

    th = theta.as_array()
    current = value_at(th)
    for _ in range(cfg.m_iters):
        grad = np.empty(2)
        for j in range(2):
            offset = np.zeros(2)
            offset[j] = h
            grad[j] = (value_at(th + offset) - value_at(th - offset)) / (2.0 * h)
        if not np.isfinite(grad).all():
            break
        step = trainer.M_STEP
        for _ in range(11):  # full step, then up to 10 halvings
            cand = th + step * grad
            val = value_at(cand)
            if np.isfinite(val) and val >= current:
                th, current = cand, val
                break
            step *= 0.5
    return Hyperparams(float(th[0]), float(th[1]))


_TWO_PI = 2.0 * np.pi
_MAX_SHRINK = 1000


def _ess_step_reference(f, loglik, prior_chol, rng, cur_loglik=None):
    """One elliptical slice transition; invariant for exp(loglik(f)) * N(0, K).

    prior_chol is the lower Cholesky factor of K.  Non-finite proposal
    log-likelihoods are treated as rejections.  The accepted state is the last
    point loglik was evaluated at, which callers may exploit to cache values.
    """
    f = np.asarray(f, dtype=float)
    nu = prior_chol @ rng.standard_normal(f.size)
    if cur_loglik is None:
        cur_loglik = loglik(f)
    threshold = cur_loglik + np.log(rng.uniform())
    angle = rng.uniform(0.0, _TWO_PI)
    lo, hi = angle - _TWO_PI, angle
    for _ in range(_MAX_SHRINK):
        proposal = f * np.cos(angle) + nu * np.sin(angle)
        value = loglik(proposal)
        if np.isfinite(value) and value > threshold:
            return proposal
        if angle < 0.0:
            lo = angle
        else:
            hi = angle
        angle = rng.uniform(lo, hi)
    raise NumericsError("elliptical slice bracket collapsed without acceptance")


def reverse_ais(K, y, f, cfg):
    """Per-chain reverse annealing estimates from an exact posterior sample f
    (bidirectional Monte Carlo: Grosse, Ghahramani & Adams 2015).

    ais_lml's chain run backwards, on seeds cfg.seed, cfg.seed + 1, ...: from
    g = y * f at tau = 1, step t = cfg.steps, ..., 1 adds
    (tau_t - tau_{t-1}) * loglik(g), then moves g by ess_step at tau_{t-1}.
    exp(-estimate) is unbiased for 1 / p(y), so each estimate is a
    stochastic upper bound on log p(y), as ais_lml's are lower bounds.
    """
    y = check_labels(y)
    L = y[:, None] * cholesky(K.K, lower=True)  # prior factor of g = y * f
    taus = [temperature(t, cfg.steps) for t in range(cfg.steps + 1)]
    per_chain = np.empty(cfg.repeats)
    for r in range(cfg.repeats):
        rng = np.random.default_rng(cfg.seed + r)
        g = y * f
        cur = float(np.sum(log_ndtr(g)))
        total = 0.0
        for tau_prev, tau_now in zip(taus[-2::-1], taus[:0:-1]):
            total += (tau_now - tau_prev) * cur
            g, cur = ess_step(g, L, rng, cur_loglik=cur, tau=tau_prev)
        per_chain[r] = total
    return per_chain


def ais_lml_reference(K, y, cfg):
    """Annealed-importance estimate of log p(y), the library's former implementation.

    One closure and one dict cache per step, the schedule recomputed per
    step, and the chain run in f rather than y * f.  ais_lml must reproduce
    its per_repeat bit for bit.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    if K.n != n:
        raise ValueError("labels must match the Gram matrix")
    L = cholesky(K.K, lower=True)

    def base_loglik(state):
        return float(np.sum(log_ndtr(y * state)))

    per_repeat = np.empty(cfg.repeats)
    for r in range(cfg.repeats):
        rng = np.random.default_rng(cfg.seed + r)
        f = L @ rng.standard_normal(n)
        cur = base_loglik(f)
        total = 0.0
        for t in range(1, cfg.steps + 1):
            tau_prev = temperature(t - 1, cfg.steps)
            tau_now = temperature(t, cfg.steps)
            cache = {"value": cur}

            def tempered(state, _tau=tau_prev, _cache=cache):
                value = base_loglik(state)
                _cache["value"] = value
                return _tau * value

            f = _ess_step_reference(f, tempered, L, rng, cur_loglik=tau_prev * cur)
            cur = cache["value"]  # loglik of the accepted state (last evaluated)
            total += (tau_now - tau_prev) * cur
        per_repeat[r] = total
    if not np.isfinite(per_repeat).all():
        raise NumericsError("non-finite annealing estimate")
    return AisEstimate(log_ml=float(per_repeat.mean()), per_repeat=per_repeat)


def ep_inference_reference(K, y, tol=ep.CONVERGENCE_TOL):
    """Sequential EP (GPML Alg. 3.5), the library's former loop: the oracle
    for the fixed point that ep_inference's parallel sweeps reach.

    Each site's cavity is taken from the posterior that the sites before it
    in the sweep have already moved: each site update forms the rank-one
    correction as an outer product and recomputes m = S lam1 in full.  Same
    sweep cap, damping, skips and site integrals; returns (post, log_scale,
    converged).
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    lam1 = np.zeros(n)
    lam2 = np.zeros(n)
    log_scale = np.zeros(n)
    post = assemble(K, Sites(lam1, lam2))
    converged = False
    for _ in range(ep.SWEEPS):
        S = post.covariance()
        m = post.m.copy()
        max_delta = 0.0
        for i in range(n):
            s_ii = S[i, i]
            tau = -2.0 * lam2[i]
            nu = lam1[i]
            cav_rho = 1.0 / s_ii - tau
            cav_gam = m[i] / s_ii - nu
            if cav_rho <= 0 or not np.isfinite(cav_rho):
                continue
            cav = MarginalMoments(mean=cav_gam / cav_rho, var=1.0 / cav_rho)
            log_z, tilted = ep_tilted_moments(y[i], cav)
            tau_new = 1.0 / tilted.var - cav_rho
            nu_new = tilted.mean / tilted.var - cav_gam
            tau_d = max((1.0 - ep.DAMPING) * tau + ep.DAMPING * tau_new, -2.0 * LAMBDA2_CEIL)
            nu_d = (1.0 - ep.DAMPING) * nu + ep.DAMPING * nu_new
            d_tau = tau_d - tau
            d_nu = nu_d - nu
            lam1[i] = nu_d
            lam2[i] = -0.5 * tau_d
            log_scale[i] = log_z - ep._log_gauss_site_integral(
                cav.mean, cav.var, nu_d, -0.5 * tau_d
            )
            s_col = S[:, i].copy()
            S -= (d_tau / (1.0 + d_tau * s_ii)) * np.outer(s_col, s_col)
            m = S @ lam1
            max_delta = max(max_delta, abs(d_tau), abs(d_nu))
        post = assemble(K, Sites(lam1, lam2))
        if max_delta < tol:
            converged = True
            break
    if not np.isfinite(log_scale).all():
        raise NumericsError("EP site log scales are not finite")
    return post, log_scale, converged


# ep_type2_fit's log-theta box: the grid's default range [-1, 5], widened
# to -3 at the short-lengthscale and small-magnitude ends
EP_TYPE2_BOX = ((-3.0, 5.0), (-3.0, 5.0))


def ep_evidence(dataset, log_theta, tol):
    """(ep_energy, posterior) of EP run from zero sites to tol at log-theta;
    NumericsError unless it converged."""
    K = gram(dataset.X, Hyperparams(*log_theta), dataset.distances)
    post, log_scale, converged = ep.ep_inference(K, dataset.y, tol=tol)
    if not converged:
        raise NumericsError(f"EP did not converge at log-theta {log_theta}")
    return ep.ep_energy(post, log_scale), post


def ep_type2_fit(dataset, theta0, tol=1e-10):
    """EP type-II learning: L-BFGS-B on -ep_energy over log-theta within
    EP_TYPE2_BOX, EP re-run from zero sites to tol at every probe.

    At EP's fixed point only K's explicit dependence on theta counts (GPML
    5.5.2), so the gradient is trainer._value_and_grad's ep_like gradient at
    EP's sites.  Returns (theta, energy, result): the Hyperparams reached,
    EP's evidence there and scipy's OptimizeResult.
    """
    def negated(log_theta):
        energy, post = ep_evidence(dataset, log_theta, tol)
        return -energy, -trainer._value_and_grad(dataset, post, "ep_like")[1]

    result = minimize(negated, theta0.as_array(), jac=True, method="L-BFGS-B",
                      bounds=EP_TYPE2_BOX)
    return Hyperparams(*result.x), -float(result.fun), result


def gram_reference(X, theta, jitter):
    """Matern-5/2 Gram matrix of X plus jitter * I, in the operation order
    kernel.gram used when it built every matrix from its distances itself;
    the distances are kernel.euclidean(X), as gram's are."""
    r = euclidean(X) / theta.lengthscale
    u = np.sqrt(5.0) * r
    return theta.magnitude ** 2 * ((1.0 + u + u * u / 3.0) * np.exp(-u)) + jitter * np.eye(len(X))


def assemble_reference(K, sites):
    """Posterior assembly as it was before S became lazy: forms the full S
    with the n-RHS solve and V'V, and m = S lam1.  Returns a namespace with
    the former GaussianPosterior fields."""
    Km = K.K
    n = Km.shape[0]
    if sites.n != n:
        raise ValueError("site count must match the Gram matrix")
    sqrt_b = np.sqrt(-2.0 * sites.lam2)
    A = np.eye(n) + sqrt_b[:, None] * Km * sqrt_b[None, :]
    try:
        chol_a = cholesky(A, lower=True)
    except np.linalg.LinAlgError as exc:  # B >= 0 makes this near-impossible
        raise FactorizationError("posterior factorization failed") from exc
    V = solve_triangular(chol_a, sqrt_b[:, None] * Km, lower=True)
    S = Km - V.T @ V
    S = 0.5 * (S + S.T)
    m = S @ sites.lam1
    k_lam = Km @ sites.lam1
    alpha = sites.lam1 - sqrt_b * cho_solve((chol_a, True), sqrt_b * k_lam)
    log_det_ikb = 2.0 * float(np.sum(np.log(np.diag(chol_a))))
    if not (np.isfinite(m).all() and np.isfinite(S).all()):
        raise NumericsError("posterior assembly produced non-finite values")
    return SimpleNamespace(
        m=m, S=S, alpha=alpha, sqrt_b=sqrt_b, chol_a=chol_a, log_det_ikb=log_det_ikb
    )


def assemble_in_new_arrays(K, sites):
    """posterior.assemble as it was before it worked in place: B^1/2 K and A
    in C order, cholesky's copy of A and solve_triangular's copy of B^1/2 K.
    Returns a namespace with the fields GaussianPosterior computes."""
    Km = K.K
    n = Km.shape[0]
    sqrt_b = np.sqrt(-2.0 * sites.lam2)
    bk = sqrt_b[:, None] * Km
    A = bk * sqrt_b[None, :]
    A += 0.0
    A[np.diag_indices(n)] += 1.0
    chol_a = cholesky(A, lower=True)
    V = solve_triangular(chol_a, bk, lower=True, check_finite=False)
    var = np.diag(Km) - np.einsum("ij,ij->j", V, V)
    k_lam = Km @ sites.lam1
    alpha = sites.lam1 - sqrt_b * cho_solve((chol_a, True), sqrt_b * k_lam, check_finite=False)
    m = Km @ alpha
    log_det_ikb = 2.0 * float(np.sum(np.log(np.diag(chol_a))))
    return SimpleNamespace(
        m=m, var=var, alpha=alpha, sqrt_b=sqrt_b, chol_a=chol_a, log_det_ikb=log_det_ikb, V=V
    )


def prior_kl_reference(post):
    """KL( N(m, S) || N(0, K) ) with tr(A^-1) from an explicit triangular
    inverse of chol_a, as it was computed before the Woodbury trace."""
    n = post.m.size
    tri = solve_triangular(post.chol_a, np.eye(n), lower=True)
    trace_term = float(np.sum(tri * tri))          # tr(K^-1 S) = tr(A^-1)
    quad_term = float(post.m @ post.alpha)         # m' K^-1 m
    return 0.5 * (trace_term + quad_term - n + post.log_det_ikb)


def phi_over_cdf(z):
    """phi(z)/Phi(z) with a log_ndtr evaluation of its own, in the operation
    order of the library's one statement of the ratio."""
    return np.exp(-0.5 * (z * z + np.log(2.0 * np.pi)) - log_ndtr(z))


def expectation_stats_reference(y, mean, var, quad_order=QUAD_ORDER):
    """likelihood.expectation_stats as it was with two log_ndtr evaluations
    per quadrature node (one inside phi_over_cdf), at any Gauss-Hermite
    order."""
    y = check_labels(np.atleast_1d(y))
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    var = np.atleast_1d(np.asarray(var, dtype=float))
    if not (y.shape == mean.shape == var.shape):
        raise ValueError("y, mean, var must align")
    if np.any(var < 0):
        raise ValueError("variances must be >= 0")
    x, w = np.polynomial.hermite.hermgauss(quad_order)
    w = w / np.sqrt(np.pi)

    f = mean[:, None] + np.sqrt(2.0 * var)[:, None] * x[None, :]
    z = y[:, None] * f
    lp = log_ndtr(z)
    ratio = phi_over_cdf(z)
    d1 = y[:, None] * ratio           # d/df log Phi(y f)
    d2 = -ratio * (z + ratio)         # d^2/df^2, independent of y since y^2 = 1

    e = lp @ w
    g_m = d1 @ w
    g_v = 0.5 * (d2 @ w)
    return e, g_m, g_v


def matern52(x, x_other, theta):
    """Covariance between two points; inputs must share dimensionality."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    x_other = np.atleast_1d(np.asarray(x_other, dtype=float))
    if x.ndim != 1 or x.shape != x_other.shape:
        raise ValueError("inputs must be 1-d and of equal dimension")
    return float(_matern(float(np.linalg.norm(x - x_other)), theta))


def log_lik(y, f):
    """log p(y|f) = log Phi(y f) for a single point."""
    y = float(y)
    if y not in (-1.0, 1.0):
        raise ValueError("labels must lie in {-1, +1}")
    if not np.isfinite(f):
        raise ValueError("latent value must be finite")
    return float(log_ndtr(y * f))


def predictive_prob(y, moments):
    """p(y) = Phi(y mean / sqrt(1 + var)) for a latent Gaussian marginal."""
    y = float(y)
    if y not in (-1.0, 1.0):
        raise ValueError("labels must lie in {-1, +1}")
    m, v = float(moments.mean), float(moments.var)
    if v < 0:
        raise ValueError("variance must be >= 0")
    return float(ndtr(y * m / np.sqrt(1.0 + v)))


def predict_reference(post, theta, X_train, X_test):
    """Probit predictive z for all test rows at once, as grid cells, CV folds
    and predict computed it before prediction was blocked: one cross_gram,
    one latent_predict, mean / sqrt(1 + var).  The kernel block is built as
    predictive_z builds each of its blocks, (test rows, training rows), and
    handed on transposed.  theta and X_train are given here, not read from
    the posterior."""
    k_star = cross_gram(X_test, X_train, theta).T
    k_ss = np.full(X_test.shape[0], theta.magnitude ** 2)
    mm = latent_predict(post.scoring(), k_star, k_ss)
    return mm.mean / np.sqrt(1.0 + mm.var)


def latent_predict_reference(K, k_star, k_star_star_diag, sites, post=None):
    """Latent predictive moments at test points.

    k_star[i, j] = k(train_i, test_j); k_star_star_diag[j] = k(test_j, test_j).
    Returns MarginalMoments with aligned mean/var arrays; variances are clamped
    at zero and must not fall below -1e-10 beforehand.
    """
    if post is None:
        post = assemble(K, sites)
    k_star = np.asarray(k_star, dtype=float)
    k_ss = np.asarray(k_star_star_diag, dtype=float)
    if k_star.ndim != 2 or k_star.shape[0] != post.m.size:
        raise ValueError("k_star must be (n_train, n_test)")
    if k_ss.shape != (k_star.shape[1],):
        raise ValueError("k_star_star_diag must align with k_star columns")
    mean = k_star.T @ post.alpha
    V = solve_triangular(post.chol_a, post.sqrt_b[:, None] * k_star, lower=True)
    var = k_ss - np.sum(V * V, axis=0)
    if np.any(var < VAR_TOL):
        raise NumericsError("predictive variance fell below tolerance")
    var = np.clip(var, 0.0, None)
    return MarginalMoments(mean=mean, var=var)


def matern_expression(dist, theta):
    """Matern-5/2 of a distance as the plain expression kernel._matern
    evaluated before it worked in place."""
    u = np.sqrt(5.0) * (dist / theta.lengthscale)
    return theta.magnitude ** 2 * ((1.0 + u + u * u / 3.0) * np.exp(-u))


# The CSV reader as it was before it became one pass: every row kept as a
# list of cell strings, then resolved and parsed.  load_csv_reference and
# read_feature_rows_reference are the former load_csv and read_feature_rows.

def _read_rows(path):
    with open(path, newline="") as handle:
        rows = [row for row in csv.reader(handle) if any(cell.strip() for cell in row)]
    if not rows:
        raise ValueError(f"{path}: empty file")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError(f"{path}: ragged rows")
    return rows


def _resolve_label_column(path, rows, label_column):
    """Returns (data_rows, label_index). Header row is auto-detected: a named
    label column requires one; for positional labels the first row is a header
    iff any non-label cell fails to parse as a number."""
    width = len(rows[0])
    if width < 2:
        raise ValueError(f"{path}: need at least one feature and one label column")
    positional = None
    if isinstance(label_column, int):
        positional = label_column
    elif isinstance(label_column, str):
        stripped = label_column.strip()
        if stripped == "last":
            positional = width - 1
        else:
            try:
                positional = int(stripped)
            except ValueError:
                positional = None
    if positional is not None:
        idx = positional if positional >= 0 else width + positional
        if not 0 <= idx < width:
            raise ValueError(f"label column {label_column} out of range for width {width}")
        first_features = [c for j, c in enumerate(rows[0]) if j != idx]
        has_header = any(_parse_float(c) is None for c in first_features)
        return (rows[1:] if has_header else rows), idx
    header = [c.strip() for c in rows[0]]
    if label_column not in header:
        raise ValueError(f"label column {label_column!r} not found in header")
    return rows[1:], header.index(label_column)


def _parse_features(path, data_rows, skip):
    """Finite float matrix of data_rows without column skip (None keeps all)."""
    if not data_rows:
        raise ValueError(f"{path}: no data rows")
    feats = []
    for rownum, row in enumerate(data_rows):
        cells = [cell for j, cell in enumerate(row) if j != skip]
        vals = [_parse_float(cell) for cell in cells]
        if None in vals:
            bad = cells[vals.index(None)]
            raise ValueError(f"{path}: non-numeric feature {bad!r} in row {rownum}")
        feats.append(vals)
    X = np.array(feats, dtype=float)
    nonfinite = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if nonfinite.size:
        raise ValueError(f"{path}: non-finite feature in row {nonfinite[0]}")
    return X


def load_csv_reference(path, label_column="last"):
    """(X, raw label strings) as the former load_csv read them."""
    rows = _read_rows(path)
    data_rows, idx = _resolve_label_column(path, rows, label_column)
    X = _parse_features(path, data_rows, idx)
    return X, [row[idx] for row in data_rows]


def read_feature_rows_reference(path, label_column=None):
    rows = _read_rows(path)
    if label_column is None:
        first = rows[0]
        has_header = any(_parse_float(c) is None for c in first)
        data_rows, idx = (rows[1:] if has_header else rows), None
    else:
        data_rows, idx = _resolve_label_column(path, rows, label_column)
    return _parse_features(path, data_rows, idx)
