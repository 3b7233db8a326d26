"""Posterior hand-offs: one factorization per posterior in fit and CV, and
checks that a handed-over start belongs where it is used."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

import helpers
from probitgp import (
    Hyperparams,
    Sites,
    TrainConfig,
    assemble,
    cross_validate,
    e_step,
    fit,
    gram,
    harness,
    trainer,
)
from probitgp import cvi, ep, posterior
from probitgp.trainer import fit_start
from probitgp.data import FOLDS

CFG = TrainConfig(e_iters=6, m_iters=3, outer_rounds=3, outer_tol=0.0)


class AssembleRecorder:
    """Wraps every binding of posterior.assemble; keys each call on a digest
    of (K, lam1, lam2)."""

    NAMESPACES = (posterior, cvi, trainer, ep)

    def __init__(self, monkeypatch):
        self.keys = []
        original = posterior.assemble

        def recorded(K, sites):
            digest = hashlib.sha256()
            for a in (K.K, sites.lam1, sites.lam2):
                digest.update(np.ascontiguousarray(a).tobytes())
            self.keys.append(digest.hexdigest())
            return original(K, sites)

        for ns in self.NAMESPACES:
            if getattr(ns, "assemble", None) is original:
                monkeypatch.setattr(ns, "assemble", recorded)

    def repeats(self, keys=None):
        keys = self.keys if keys is None else keys
        return len(keys) - len(set(keys))


class TestOneFactorizationPerPosterior:
    @pytest.mark.parametrize("objective", ["elbo", "ep_like"])
    def test_fit_never_assembles_a_posterior_twice(self, objective, monkeypatch):
        ds = helpers.make_blobs(14, 2, 21)
        recorder = AssembleRecorder(monkeypatch)
        res = fit(ds, replace(CFG, objective=objective))
        assert len(res.objective_trace) == CFG.outer_rounds
        assert recorder.keys
        assert recorder.repeats() == 0

    def test_cv_fold_never_assembles_a_posterior_twice(self, monkeypatch):
        ds = helpers.make_blobs(20, 2, 22)
        recorder = AssembleRecorder(monkeypatch)
        per_fold = []
        original = harness._cv_task

        def task(args):
            start = len(recorder.keys)
            out = original(args)
            per_fold.append(recorder.keys[start:])
            return out

        monkeypatch.setattr(harness, "_cv_task", task)
        cross_validate(ds, ("vi", "ours"), CFG, seed=0)
        assert len(per_fold) == FOLDS
        for keys in per_fold:
            assert keys and recorder.repeats(keys) == 0

    @pytest.mark.parametrize("methods", [("vi",), ("vi", "ours")])
    def test_cv_runs_one_shared_start_per_fold(self, methods, monkeypatch):
        ds = helpers.make_blobs(20, 2, 23)
        calls = []
        original = trainer.e_step

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(trainer, "e_step", counted)
        cross_validate(ds, methods, replace(CFG, outer_rounds=1), seed=1)
        assert len(calls) == FOLDS * (1 + len(methods))


class TestHandedPosterior:
    def setup_method(self):
        ds = helpers.make_blobs(10, 2, 24)
        self.y = ds.y
        self.K = gram(ds.X, Hyperparams(0.3, -0.2))
        self.post, _ = e_step(assemble(self.K, Sites.zeros(ds.n)), ds.y, step_size=0.1, iters=4)
        self.sites = self.post.sites

    def test_returned_posterior_is_that_of_the_returned_sites(self):
        ref = assemble(self.K, self.sites)
        assert self.post.K is self.K and self.post.sites is self.sites
        for name in ("m", "var", "alpha", "chol_a", "V"):
            assert np.array_equal(getattr(self.post, name), getattr(ref, name))

    def test_handed_posterior_gives_the_same_e_step(self):
        a, a_trace = e_step(assemble(self.K, self.sites), self.y, step_size=0.1, iters=3)
        b, b_trace = e_step(self.post, self.y, step_size=0.1, iters=3)
        assert a_trace == b_trace
        assert np.array_equal(a.sites.lam1, b.sites.lam1)
        assert np.array_equal(a.sites.lam2, b.sites.lam2)

    def test_zero_iterations_hand_the_posterior_back(self):
        post, trace = e_step(self.post, self.y, step_size=0.1, iters=0)
        assert post is self.post and len(trace) == 1


class TestFitStart:
    def test_start_gives_the_same_fit(self):
        ds = helpers.make_blobs(12, 2, 25)
        start = fit_start(ds, CFG)
        for objective in ("elbo", "ep_like"):
            cfg = replace(CFG, objective=objective, m_iters=2, outer_tol=1e-3)
            a, b = fit(ds, cfg), fit(ds, cfg, start=start)
            assert np.array_equal(a.theta_trace, b.theta_trace)
            assert np.array_equal(a.objective_trace, b.objective_trace)
            assert np.array_equal(a.elbo_trace, b.elbo_trace)
            assert np.array_equal(a.posterior.sites.lam1, b.posterior.sites.lam1)
            assert a.stopped == b.stopped

    def test_result_posterior_is_that_of_the_final_sites_and_theta(self):
        ds = helpers.make_blobs(12, 2, 26)
        res = fit(ds, CFG)
        ref = assemble(gram(ds.X, res.theta), res.posterior.sites)
        for name in ("m", "var", "alpha", "chol_a"):
            assert np.array_equal(getattr(res.posterior, name), getattr(ref, name))

    def test_stopped_says_why_fit_stopped(self):
        ds = helpers.make_blobs(12, 2, 27)
        capped = fit(ds, CFG)
        assert capped.stopped == "round_cap" and len(capped.objective_trace) == CFG.outer_rounds
        met = fit(ds, replace(CFG, outer_tol=10.0))
        assert met.stopped == "tolerance" and len(met.objective_trace) == 1

    @pytest.mark.parametrize("change", [
        {"theta0": Hyperparams(0.1, 0.0)},
        {"e_iters": 5},
        {"e_step_size": 0.2},
        {"theta0": Hyperparams(0.0, 0.1)},
    ])
    def test_start_for_another_configuration_is_rejected(self, change):
        ds = helpers.make_blobs(12, 2, 28)
        start = fit_start(ds, CFG)
        with pytest.raises(ValueError, match="start"):
            fit(ds, replace(CFG, **change), start=start)

    def test_start_for_another_dataset_is_rejected(self):
        ds = helpers.make_blobs(12, 2, 29)
        twin = replace(ds)  # equal values, another object
        with pytest.raises(ValueError, match="start"):
            fit(twin, CFG, start=fit_start(ds, CFG))
