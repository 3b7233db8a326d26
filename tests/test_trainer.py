"""Alternating trainer: objective dispatch, gradient probes, determinism."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import helpers
from probitgp import (
    Dataset,
    Hyperparams,
    Sites,
    TrainConfig,
    assemble,
    e_step,
    elbo,
    ep_like_energy,
    fit,
    gram,
    kernel,
    trainer,
)
from probitgp.cvi import STEP_SIZE
from probitgp.kernel import JITTER_RUNGS
from probitgp.posterior import LAMBDA2_CEIL


def blob_dataset(n=10, seed=0):
    return helpers.make_blobs(n, 2, seed)


def matern_grad_parts(X, theta):
    """Analytic kernel derivatives wrt (log lengthscale, log magnitude).

    With u = sqrt(5) r / ell the radial part is (1 + u + u^2/3) exp(-u), whose
    lengthscale derivative is (u^2/3)(1 + u) exp(-u) after the chain rule."""
    sig2 = theta.magnitude ** 2
    diff = X[:, None, :] - X[None, :, :]
    r = np.sqrt(np.sum(diff * diff, axis=-1))
    u = np.sqrt(5.0) * r / theta.lengthscale
    K = sig2 * (1.0 + u + u * u / 3.0) * np.exp(-u)
    dK_dll = sig2 * (u * u / 3.0) * (1.0 + u) * np.exp(-u)
    dK_dlm = 2.0 * K
    return K, dK_dll, dK_dlm


class TestObjectiveValue:
    def test_dispatch_matches_direct_calls(self):
        """The trainer's objective and the helpers oracle both dispatch to
        elbo and ep_like_energy."""
        ds = blob_dataset()
        theta = Hyperparams(0.2, -0.1)
        sites = e_step(
            assemble(gram(ds.X, theta), Sites.zeros(ds.n)), ds.y, step_size=0.1, iters=15
        )[0].sites
        post = assemble(gram(ds.X, theta), sites)
        for objective, direct in (("elbo", elbo(post, ds.y)[0]), ("ep_like", ep_like_energy(post))):
            assert trainer.learning_objective(post, ds.y, objective) == direct
            assert helpers.objective_value(ds, sites, theta, objective) == direct


class TestGradientOracle:
    def test_fd_matches_analytic_conjugate_gradient(self):
        """Central differences of the site energy vs the closed-form gradient.

        With fixed Gaussian-likelihood sites the energy is the exact Gaussian
        evidence up to a theta-free constant, so its gradient has the classic
        quadratic-minus-trace form in the kernel derivative."""
        rng = np.random.default_rng(40)
        n, noise = 8, 0.5
        X = rng.standard_normal((n, 2))
        t = rng.standard_normal(n)
        ds = Dataset("g", X, np.where(t > 0, 1.0, -1.0))
        sites = Sites(t / noise, np.full(n, -0.5 / noise))
        h = 1e-5
        for theta in (Hyperparams(0.0, 0.0), Hyperparams(0.4, -0.2), Hyperparams(-0.3, 0.3)):
            K, dK_dll, dK_dlm = matern_grad_parts(X, theta)
            C = K + noise * np.eye(n)
            Ci_t = np.linalg.solve(C, t)
            Ci = np.linalg.inv(C)
            grad_analytic = np.array([
                0.5 * (Ci_t @ dK @ Ci_t - np.trace(Ci @ dK)) for dK in (dK_dll, dK_dlm)
            ])
            grad_fd = np.empty(2)
            for j, dv in enumerate([(h, 0.0), (0.0, h)]):
                up = Hyperparams(theta.log_lengthscale + dv[0], theta.log_magnitude + dv[1])
                dn = Hyperparams(theta.log_lengthscale - dv[0], theta.log_magnitude - dv[1])
                grad_fd[j] = (
                    helpers.objective_value(ds, sites, up, "ep_like",
                                            helpers.jitter_free_gram(X, up))
                    - helpers.objective_value(ds, sites, dn, "ep_like",
                                              helpers.jitter_free_gram(X, dn))
                ) / (2.0 * h)
            assert_allclose(grad_fd, grad_analytic, rtol=1e-5, atol=1e-7)

    def test_fd_matches_analytic_elbo_gradient_conjugate(self):
        """Same check for the bound: at fixed sites only the KL depends on theta.

        d elbo / d theta = 1/2 [ alpha' dK alpha - tr((K^-1 - Sigma_inv_like) dK) ]
        with alpha = K^-1 m; equivalently FD against the assembled quantities."""
        rng = np.random.default_rng(41)
        n, noise = 7, 0.6
        X = rng.standard_normal((n, 2))
        t = rng.standard_normal(n)
        ds = Dataset("g", X, np.where(t > 0, 1.0, -1.0))
        sites = Sites(t / noise, np.full(n, -0.5 / noise))
        theta = Hyperparams(0.1, 0.05)
        h = 1e-5
        # independent analytic route: elbo = E_q[log lik] - KL, and at fixed
        # sites dE/dtheta flows only through (m, S) = f(K); use the Gaussian
        # identity d elbo = 1/2 (lam1 - alpha)' dK (lam1 - alpha) + ... via FD
        # of each assembled piece instead of one opaque number
        def elbo_at(th):
            return helpers.objective_value(ds, sites, th, "elbo", helpers.jitter_free_gram(X, th))

        for j, dv in enumerate([(h, 0.0), (0.0, h)]):
            up = Hyperparams(theta.log_lengthscale + dv[0], theta.log_magnitude + dv[1])
            dn = Hyperparams(theta.log_lengthscale - dv[0], theta.log_magnitude - dv[1])
            fd = (elbo_at(up) - elbo_at(dn)) / (2.0 * h)
            fd_half = (elbo_at(Hyperparams(
                theta.log_lengthscale + dv[0] / 2, theta.log_magnitude + dv[1] / 2,
            )) - elbo_at(Hyperparams(
                theta.log_lengthscale - dv[0] / 2, theta.log_magnitude - dv[1] / 2,
            ))) / h
            # Richardson consistency: halving h changes the estimate ~O(h^2)
            assert abs(fd - fd_half) < 1e-6 * max(1.0, abs(fd))


def fd_gradient(ds, sites, theta, objective, h=1e-5):
    """Central differences of the objective at fixed sites.  Both probes take
    theta's jitter rung: within a rung the jitter scales with magnitude^2, as
    the analytic gradient assumes, and a change of rung would pass for a
    gradient error."""
    rung = helpers.rung(gram(ds.X, theta, ds.distances), theta)
    grad = np.empty(2)
    for j in range(2):
        offset = np.zeros(2)
        offset[j] = h
        values = []
        for th in (Hyperparams(*(theta.as_array() + offset)),
                   Hyperparams(*(theta.as_array() - offset))):
            K = gram(ds.X, th, ds.distances)
            assert helpers.rung(K, th) == rung
            values.append(helpers.objective_value(ds, sites, th, objective, K))
        grad[j] = (values[0] - values[1]) / (2.0 * h)
    return grad


def probit_instances(count=24, seed=77):
    """Random probit problems with fixed non-conjugate sites, n in [2, 40].

    Sites come from a few E-step updates (short of the fixed point), are all
    zero, or are random with about half of lam2 clamped at LAMBDA2_CEIL."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(2, 41))
        X = rng.standard_normal((n, int(rng.integers(1, 4))))
        y = np.where(rng.standard_normal(n) > 0, 1.0, -1.0)
        ds = Dataset("r", X, y)
        theta = Hyperparams(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        kind = i % 3
        if kind == 0:
            sites = e_step(
                assemble(gram(X, theta), Sites.zeros(n)), y,
                step_size=0.1, iters=int(rng.integers(1, 6)),
            )[0].sites
        elif kind == 1:
            sites = Sites.zeros(n)
        else:
            lam1, lam2 = helpers.random_sites_arrays(n, rng)
            lam2[rng.uniform(size=n) < 0.5] = LAMBDA2_CEIL
            sites = Sites(lam1, lam2)
        yield ds, sites, theta


class TestAnalyticGradient:
    @pytest.mark.parametrize("objective", ["elbo", "ep_like"])
    @pytest.mark.parametrize("fails", [None, JITTER_RUNGS - 1])
    def test_matches_central_differences(self, objective, fails, monkeypatch):
        """With the real Cholesky every Gram matrix here takes the first rung;
        with one that fails four times per gram call, the top rung, whose
        jitter, 1e-2 * magnitude^2, the magnitude gradient must carry."""
        if fails is not None:
            monkeypatch.setattr(kernel, "cholesky", helpers.failing_cholesky(fails, per_call=True))
        for ds, sites, theta in probit_instances():
            post = assemble(gram(ds.X, theta, ds.distances), sites)
            assert helpers.rung(post.K, theta) == (fails or 0)
            value, grad = trainer._value_and_grad(ds, post, objective)
            assert value == helpers.objective_value(ds, sites, theta, objective)
            fd = fd_gradient(ds, sites, theta, objective)
            scale = np.max(np.abs(fd))
            assert np.all(np.abs(grad - fd) <= 1e-6 * scale + 1e-9), (grad, fd)


class TestOneFormulaMatchesTheReference:
    """_value_and_grad's one weight matrix against the former formula per
    objective (helpers.value_and_grad_reference): log Z_q alone forms no Mt,
    so ep_like keeps its bits; the ELBO's terms reach G by another order of
    operations.  Measured on these instances: <= 7.1e-15 relative."""

    RTOL = 1e-13

    @pytest.mark.parametrize("fails", [None, JITTER_RUNGS - 1])
    def test_values_and_gradients(self, fails, monkeypatch):
        if fails is not None:
            monkeypatch.setattr(kernel, "cholesky", helpers.failing_cholesky(fails, per_call=True))
        for ds, sites, theta in probit_instances():
            post = assemble(gram(ds.X, theta, ds.distances), sites)
            assert helpers.rung(post.K, theta) == (fails or 0)
            for objective in ("elbo", "ep_like"):
                value, grad = trainer._value_and_grad(ds, post, objective)
                ref_value, ref_grad = helpers.value_and_grad_reference(ds, post, objective)
                assert value == ref_value
                if objective == "ep_like":
                    assert np.array_equal(grad, ref_grad), (grad, ref_grad)
                else:
                    err = np.max(np.abs(grad - ref_grad))
                    assert err <= self.RTOL * np.max(np.abs(ref_grad)), (grad, ref_grad)


class TestObjectivesMeetAtConvergence:
    """At the natural-gradient fixed point the ELBO's per-site terms
    c_i = E_q[log p(y_i|f_i) - log t_i(f_i)] are stationary in q's
    marginals, so their h vanishes and the gradients of the two objectives,
    the ELBO and log Z_q, are equal there.  Measured on these instances:
    <= 1.2e-14 relative; the stated tolerance is 1e-8."""

    RTOL = 1e-8
    CASES = [  # (seed, n, theta)
        (0, 27, Hyperparams(0.0, 0.0)),
        (1, 19, Hyperparams(1.0, 0.5)),
        (2, 12, Hyperparams(-0.5, 1.0)),
        (3, 30, Hyperparams(0.5, -0.5)),
    ]

    @staticmethod
    def gradients(ds, sites, theta):
        post = assemble(gram(ds.X, theta, ds.distances), sites)
        return [
            trainer._value_and_grad(ds, post, objective)[1]
            for objective in ("elbo", "ep_like")
        ]

    @pytest.mark.parametrize("seed,n,theta", CASES)
    def test_branches_agree_at_converged_sites(self, seed, n, theta):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 2))
        y = np.where(X[:, 0] + 0.5 * rng.standard_normal(n) > 0, 1.0, -1.0)
        ds = Dataset("c", X, y)
        K = gram(X, theta)
        early = e_step(assemble(K, Sites.zeros(n)), y, step_size=0.5, iters=5)[0].sites
        g_elbo, g_ep = self.gradients(ds, early, theta)
        # short of the fixed point the gradients differ: the check has teeth
        assert np.max(np.abs(g_elbo - g_ep)) > 1e-4 * np.max(np.abs(g_elbo))
        post, trace = e_step(assemble(K, early), y, step_size=0.5, iters=2000)
        sites = post.sites
        assert abs(trace[-1] - trace[-2]) < 1e-10 * abs(trace[-1])
        g_elbo, g_ep = self.gradients(ds, sites, theta)
        assert np.max(np.abs(g_elbo - g_ep)) <= self.RTOL * np.max(np.abs(g_elbo))


class TestFdEquivalence:
    """fit with exact gradients tracks fit with the former finite-difference
    M-step (helpers.fd_m_step) to within the difference error."""

    @staticmethod
    def fd_fit(ds, cfg, monkeypatch):
        def m_step(dataset, cfg, post):
            sites = post.sites
            new = helpers.fd_m_step(dataset, sites, post.K.theta, cfg)
            K = gram(dataset.X, new, dataset.distances)
            value = helpers.objective_value(dataset, sites, new, cfg.objective)
            return value, assemble(K, sites), False

        with monkeypatch.context() as patch:
            patch.setattr(trainer, "_m_step", m_step)
            return fit(ds, cfg)

    @pytest.mark.parametrize("objective", ["elbo", "ep_like"])
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_same_theta_and_trace(self, objective, seed, monkeypatch):
        """At ten times trainer.M_STEP, so that three rounds move theta by
        more than 1e-3 for both objectives."""
        monkeypatch.setattr(trainer, "M_STEP", 0.01)
        ds = blob_dataset(n=14, seed=seed)
        cfg = TrainConfig(objective=objective, e_iters=10, m_iters=6,
                          outer_rounds=3, outer_tol=0.0)
        exact = fit(ds, cfg)
        oracle = self.fd_fit(ds, cfg, monkeypatch)
        assert np.all(np.abs(exact.theta_trace - cfg.theta0.as_array()) > 1e-3)
        assert_allclose(exact.theta_trace, oracle.theta_trace, rtol=0, atol=1e-8)
        assert_allclose(exact.objective_trace, oracle.objective_trace, rtol=1e-8)
        assert_allclose(exact.elbo_trace, oracle.elbo_trace, rtol=1e-8)

    def test_round_objective_is_objective_value(self):
        """The M-step's own value is what fit records, to the bit."""
        ds = blob_dataset(n=12, seed=14)
        for objective in ("elbo", "ep_like"):
            cfg = TrainConfig(objective=objective, e_iters=8, m_iters=4, outer_rounds=1)
            res = fit(ds, cfg)
            sites = e_step(
                assemble(gram(ds.X, cfg.theta0), Sites.zeros(ds.n)), ds.y, step_size=0.1, iters=8
            )[0].sites
            assert res.objective_trace[0] == helpers.objective_value(ds, sites, res.theta, objective)

    def test_round_traces_are_objective_values_at_each_theta(self):
        """Both traces hold, to the bit, the objectives at each round's sites
        and recorded theta; the ELBO comes from the next E-step's first value."""
        ds = blob_dataset(n=12, seed=15)
        for objective in ("elbo", "ep_like"):
            cfg = TrainConfig(objective=objective, e_iters=8, m_iters=4,
                              outer_rounds=3, outer_tol=0.0)
            res = fit(ds, cfg)
            assert len(res.theta_trace) == 3
            sites, theta = Sites.zeros(ds.n), cfg.theta0
            for r, row in enumerate(res.theta_trace):
                sites = e_step(
                    assemble(gram(ds.X, theta), sites), ds.y, step_size=0.1, iters=8
                )[0].sites
                theta = Hyperparams(*row)
                assert res.objective_trace[r] == helpers.objective_value(ds, sites, theta, objective)
                assert res.elbo_trace[r] == helpers.objective_value(ds, sites, theta, "elbo")


class TestFit:
    @pytest.mark.parametrize("objective", ["elbo", "ep_like"])
    def test_probe_with_a_negative_variance_is_rejected(self, monkeypatch, objective):
        """A probe whose posterior has a negative marginal variance fails like
        a probe whose Gram matrix fails: with every probe so, theta stays,
        and the round that accepted no probe is reported as stalled."""
        ds = blob_dataset(n=12, seed=17)
        cfg = TrainConfig(objective=objective, e_iters=5, m_iters=3, outer_rounds=2)
        start = trainer.fit_start(ds, cfg)
        real = trainer.assemble
        monkeypatch.setattr(trainer, "assemble", lambda K, sites: dataclasses.replace(
            real(K, sites), var=np.full(sites.n, -1e-9)))
        res = fit(ds, cfg, start=start)
        assert res.theta == cfg.theta0 and res.stopped == "stalled"

    @pytest.mark.parametrize("kind, m_iters, m_step", [
        ("accepted", 3, 0.01), ("stalled", 3, 1.7e308), ("no_m_step", 0, 0.01),
    ])
    def test_theta_is_the_final_posteriors(self, monkeypatch, kind, m_iters, m_step):
        """result.theta is the theta of the final posterior's Gram matrix,
        which is gram(dataset.X, theta) to the bit, for a fit whose M-step
        moved theta, one whose every step (of m_step) overflowed, and one
        with none."""
        monkeypatch.setattr(trainer, "M_STEP", m_step)
        ds = blob_dataset(n=12, seed=18)
        cfg = TrainConfig(e_iters=5, m_iters=m_iters, outer_rounds=2)
        res = fit(ds, cfg)
        K = res.posterior.K
        assert res.theta == K.theta and K.X is ds.X
        assert list(res.theta_trace[-1]) == [K.theta.log_lengthscale, K.theta.log_magnitude]
        assert np.array_equal(K.K, gram(ds.X, res.theta).K)
        assert (res.theta != cfg.theta0) == (kind == "accepted")
        assert (res.stopped == "stalled") == (kind == "stalled")

    def test_pure_inference_round_computes_no_gradient(self, monkeypatch):
        """With m_iters 0 the M-step records objective_value, bit for bit,
        without forming any gradient."""
        import probitgp.trainer as trainer_module

        def no_gradient(*args, **kwargs):
            raise AssertionError("gradient formed at m_iters 0")

        monkeypatch.setattr(trainer_module, "gram_grads", no_gradient)
        monkeypatch.setattr(trainer_module, "_value_and_grad", no_gradient)
        ds = blob_dataset(n=14, seed=16)
        for objective in ("elbo", "ep_like"):
            cfg = TrainConfig(objective=objective, e_iters=6, m_iters=0, outer_rounds=1)
            res = fit(ds, cfg)
            sites = e_step(
                assemble(gram(ds.X, cfg.theta0), Sites.zeros(ds.n)), ds.y, step_size=0.1, iters=6
            )[0].sites
            assert res.objective_trace[0] == helpers.objective_value(ds, sites, cfg.theta0, objective)

    def test_pure_inference_round_keeps_theta(self):
        ds = blob_dataset(seed=2)
        cfg = TrainConfig(objective="elbo", e_iters=12, m_iters=0, outer_rounds=1)
        res = fit(ds, cfg)
        assert res.theta == cfg.theta0
        # composition: one round plus the final refresh, both from zero sites
        K = gram(ds.X, cfg.theta0)
        s1 = e_step(assemble(K, Sites.zeros(ds.n)), ds.y, step_size=0.1, iters=12)[0].sites
        s2 = e_step(assemble(K, s1), ds.y, step_size=0.1, iters=12)[0].sites
        assert np.array_equal(res.posterior.sites.lam1, s2.lam1)
        assert np.array_equal(res.posterior.sites.lam2, s2.lam2)

    def test_elbo_trace_nondecreasing(self):
        ds = blob_dataset(n=12, seed=3)
        cfg = TrainConfig(objective="elbo", e_iters=25, m_iters=4, outer_rounds=6)
        res = fit(ds, cfg)
        assert np.all(np.diff(res.elbo_trace) > -1e-8)

    def test_training_improves_objective(self):
        ds = blob_dataset(n=12, seed=4)
        for objective in ("elbo", "ep_like"):
            cfg = TrainConfig(objective=objective, e_iters=20, m_iters=5, outer_rounds=5)
            res = fit(ds, cfg)
            assert res.objective_trace[-1] >= res.objective_trace[0]

    def test_traces_align(self):
        ds = blob_dataset(seed=5)
        res = fit(ds, TrainConfig(e_iters=10, m_iters=2, outer_rounds=4))
        rounds = len(res.objective_trace)
        assert res.elbo_trace.shape == (rounds,)
        assert res.theta_trace.shape == (rounds, 2)
        assert res.theta_trace[-1, 0] == res.theta.log_lengthscale
        assert res.theta_trace[-1, 1] == res.theta.log_magnitude

    def test_deterministic(self):
        ds = blob_dataset(seed=6)
        cfg = TrainConfig(e_iters=10, m_iters=3, outer_rounds=3)
        a, b = fit(ds, cfg), fit(ds, cfg)
        assert a.theta == b.theta
        assert np.array_equal(a.posterior.sites.lam1, b.posterior.sites.lam1)
        assert np.array_equal(a.objective_trace, b.objective_trace)

    def test_outer_tol_stops_early(self):
        ds = blob_dataset(seed=7)
        cfg = TrainConfig(e_iters=10, m_iters=0, outer_rounds=30)
        res = fit(ds, cfg)  # theta never moves, so the loop stops after round 1
        assert len(res.objective_trace) == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(objective="nope")
        with pytest.raises(ValueError):
            TrainConfig(outer_rounds=0)
        for bad in (np.nan, np.inf, -1e-300):
            with pytest.raises(ValueError, match="outer_tol must be finite and >= 0"):
                TrainConfig(outer_tol=bad)
        TrainConfig(outer_tol=0.0)  # the finite extreme stays valid

    @pytest.mark.parametrize("fields, setting", [
        (dict(e_iters=-1), "e_iters"), (dict(e_step_size=0.0), "e_step_size"),
        (dict(e_step_size=2.0), "e_step_size"), (dict(e_step_size=np.nan), "e_step_size"),
    ])
    def test_e_step_settings_checked_at_construction(self, fields, setting):
        """The defaults pass, the grid's fixed step among them."""
        assert TrainConfig().e_step_size == STEP_SIZE
        with pytest.raises(ValueError, match=setting):
            TrainConfig(**fields)
