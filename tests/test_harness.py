"""Surface sweeps, cross-validation, and the paired test."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import helpers
from probitgp import (
    AisConfig,
    GridSpec,
    MarginalMoments,
    TrainConfig,
    cross_validate,
    grid_sweep,
    paired_t_test,
)
from probitgp import ep, harness
from probitgp.ais import ais_lml
from probitgp.cvi import STEP_SIZE, e_step
from probitgp.kernel import Hyperparams, gram
from probitgp.posterior import Sites, assemble
from probitgp.data import FOLDS
from probitgp.errors import NumericsError

DESK = dict(e_iters=40, ais=AisConfig(steps=60, repeats=1))  # each test's GridSpec budgets


def same_records(a, b):
    """Bitwise record equality with nan == nan."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if (ra.log_lengthscale, ra.log_magnitude, ra.method) != (
            rb.log_lengthscale, rb.log_magnitude, rb.method,
        ):
            return False
        for va, vb in ((ra.lml_per_n, rb.lml_per_n), (ra.lpd_per_n, rb.lpd_per_n)):
            if not (va == vb or (np.isnan(va) and np.isnan(vb))):
                return False
    return True


def split_blobs(n=14, seed=0):
    from probitgp import Dataset

    ds = helpers.make_blobs(n, 2, seed)
    cut = n - 4
    return (
        Dataset("train", ds.X[:cut], ds.y[:cut]),
        Dataset("test", ds.X[cut:], ds.y[cut:]),
    )


def only_failed(records, failed):
    """The records of the methods in failed are NaN; every other method's
    value is finite, and its predictive column too, except annealing's,
    which has none."""
    for r in records:
        if r.method in failed:
            assert np.isnan(r.lml_per_n) and np.isnan(r.lpd_per_n)
        else:
            assert np.isfinite(r.lml_per_n)
            assert np.isfinite(r.lpd_per_n) or r.method == "mcmc"


class TestGridSpec:
    def test_axis_endpoints_and_count(self):
        spec = GridSpec(lo=-1.0, hi=5.0, points=21)
        ax = spec.axis()
        assert ax.shape == (21,)
        assert ax[0] == -1.0 and ax[-1] == 5.0
        assert_allclose(np.diff(ax), 0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(lo=2.0, hi=1.0)
        for lo, hi in ((0.0, np.inf), (np.nan, 1.0), (-1e308, 1e308)):  # axis() would warn
            with pytest.raises(ValueError, match="need finite lo < hi"):
                GridSpec(lo=lo, hi=hi)
        with pytest.raises(ValueError):
            GridSpec(points=1)
        with pytest.raises(ValueError):
            GridSpec(methods=("vi", "bogus"))
        with pytest.raises(ValueError):
            GridSpec(methods=())
        with pytest.raises(ValueError, match="e_iters"):
            GridSpec(e_iters=-1)

    def test_methods_name_each_method_once(self):
        with pytest.raises(ValueError):
            GridSpec(methods=("vi", "vi"))


class TestGridSweep:
    def test_record_layout_and_order(self):
        train, test = split_blobs()
        spec = GridSpec(lo=-0.5, hi=0.5, points=2, methods=("vi", "ours"), **DESK)
        recs = grid_sweep(train, test, spec)
        assert len(recs) == 2 * 2 * 2
        keys = [(r.log_lengthscale, r.log_magnitude, r.method) for r in recs]
        assert keys == sorted(keys)
        assert {r.method for r in recs} == {"vi", "ours"}

    def test_vi_and_ours_share_predictive_column(self):
        """Both labels come from one inference, so lpd matches bit for bit."""
        train, test = split_blobs(seed=1)
        spec = GridSpec(lo=-0.5, hi=1.0, points=3, methods=("vi", "ours"), **DESK)
        recs = grid_sweep(train, test, spec)
        by_cell = {}
        for r in recs:
            by_cell.setdefault((r.log_lengthscale, r.log_magnitude), {})[r.method] = r
        for cell in by_cell.values():
            assert cell["vi"].lpd_per_n == cell["ours"].lpd_per_n
            # the evidence estimates differ (bound vs energy)
            assert cell["vi"].lml_per_n <= cell["ours"].lml_per_n + 1e-12

    def test_all_methods_produce_finite_records_on_easy_cell(self):
        train, test = split_blobs(seed=2)
        spec = GridSpec(lo=0.0, hi=1.0, points=2, methods=("vi", "ours", "ep", "mcmc"), **DESK)
        recs = grid_sweep(train, test, spec)
        assert len(recs) == 4 * 4
        for r in recs:
            assert np.isfinite(r.lml_per_n)
            if r.method == "mcmc":
                assert np.isnan(r.lpd_per_n)  # no predictive column for annealing
            else:
                assert np.isfinite(r.lpd_per_n)

    def test_a_failed_ep_costs_the_cell_its_ep_records_only(self, monkeypatch):
        """A non-finite EP log scale is a NumericsError, so the cell records
        NaN for ep and keeps the other methods' values."""
        monkeypatch.setattr(ep, "_log_gauss_site_integral", lambda *args: np.inf)
        train, test = split_blobs(seed=2)
        spec = GridSpec(lo=0.0, hi=1.0, points=2, methods=("vi", "ours", "ep", "mcmc"), **DESK)
        recs = grid_sweep(train, test, spec)
        assert len(recs) == 4 * 4
        only_failed(recs, {"ep"})

    def test_a_non_finite_ep_site_costs_the_cell_its_ep_record_only(self, monkeypatch):
        """A non-finite tilted moment is a NumericsError in EP, so the cell
        records NaN for ep and keeps the other methods' values."""
        nan = float("nan")
        monkeypatch.setattr(ep, "ep_tilted_moments", lambda y, cav: (0.0, MarginalMoments(nan, nan)))
        train, test = split_blobs(seed=2)
        spec = GridSpec(methods=("vi", "ours", "ep", "mcmc"), **DESK)
        records = harness._sweep_cell((train.X, train.y, test.X, test.y, 0.5, 1.0, spec, 3))
        assert [r.method for r in records] == list(spec.methods)
        only_failed(records, {"ep"})

    @staticmethod
    def cell_with_failing(monkeypatch, name):
        """The four-method cell's records with harness.<name> raising NumericsError."""
        def fail(*args, **kwargs):
            raise NumericsError(f"{name} failed")

        monkeypatch.setattr(harness, name, fail)
        train, test = split_blobs(seed=2)
        spec = GridSpec(methods=("vi", "ours", "ep", "mcmc"), **DESK)
        return harness._sweep_cell((train.X, train.y, test.X, test.y, 0.5, 1.0, spec, 3))

    def test_a_failed_shared_inference_costs_the_cell_its_vi_and_ours_records_only(
            self, monkeypatch):
        only_failed(self.cell_with_failing(monkeypatch, "e_step"), {"vi", "ours"})

    def test_a_failed_annealing_costs_the_cell_its_mcmc_record_only(self, monkeypatch):
        only_failed(self.cell_with_failing(monkeypatch, "ais_lml"), {"mcmc"})

    def test_parallel_equals_serial(self):
        train, test = split_blobs(seed=3)
        spec = GridSpec(lo=-0.5, hi=0.5, points=2, methods=("vi", "ours", "mcmc"), **DESK)
        serial = grid_sweep(train, test, spec, jobs=1)
        parallel = grid_sweep(train, test, spec, jobs=4)
        assert same_records(serial, parallel)

    def test_ais_seed_depends_on_cell_not_schedule(self):
        """Two specs sharing a cell give that cell a different linear index,
        so only an identical grid guarantees identical mcmc numbers."""
        train, test = split_blobs(seed=4)
        spec = GridSpec(lo=0.0, hi=1.0, points=2, methods=("mcmc",), **DESK)
        a = grid_sweep(train, test, spec)
        b = grid_sweep(train, test, spec)
        assert same_records(a, b)


class TestEvidenceBelowTheBound:
    """A cell logs its AIS estimate when it lies below the ELBO of the cell's
    own E-step posterior, a lower bound on the evidence it estimates."""

    LL, LS, SEED = 0.5, 1.0, 3

    def cell(self, spec):
        train, test = split_blobs(seed=6)
        args = (train.X, train.y, test.X, test.y, self.LL, self.LS, spec, self.SEED)
        return train, harness._sweep_cell(args)

    def test_one_step_annealing_below_the_elbo_is_logged_with_its_gap(self, caplog):
        """One annealing step is importance sampling from the prior."""
        spec = GridSpec(methods=("vi", "mcmc"), e_iters=40, ais=AisConfig(steps=1, repeats=2))
        train, records = self.cell(spec)
        K = gram(train.X, Hyperparams(self.LL, self.LS))
        start = assemble(K, Sites.zeros(train.n))
        bound = e_step(start, train.y, step_size=STEP_SIZE, iters=spec.e_iters)[1][-1]
        log_ml = ais_lml(K, train.y, replace(spec.ais, seed=self.SEED)).log_ml
        assert log_ml < bound and records[1].lml_per_n == log_ml / train.n
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == [
            f"cell (0.5, 1): AIS log_ml lies {bound - log_ml:.6g} nats below the E-step's ELBO"
        ]

    def test_no_e_step_no_comparison(self, caplog):
        self.cell(GridSpec(methods=("mcmc",), ais=AisConfig(steps=1, repeats=2)))
        assert not [r for r in caplog.records if r.levelname == "WARNING"]


class TestCrossValidate:
    CFG = TrainConfig(e_iters=15, m_iters=2, outer_rounds=2)

    def test_report_shape_and_determinism(self):
        ds = helpers.make_blobs(20, 2, 10)
        rep = cross_validate(ds, ("vi", "ours"), self.CFG, seed=0)
        assert rep.methods == ("vi", "ours")
        for m in ("vi", "ours"):
            assert rep.accuracy[m].shape == (FOLDS,)
            assert rep.lpd[m].shape == (FOLDS,)
            assert np.all(rep.lpd[m] < 0)
        rep2 = cross_validate(ds, ("vi", "ours"), self.CFG, seed=0)
        assert np.array_equal(rep.accuracy["vi"], rep2.accuracy["vi"])
        assert np.array_equal(rep.lpd["ours"], rep2.lpd["ours"])

    def test_easy_separation_is_learnable(self):
        ds = helpers.make_blobs(24, 2, 11, spread=2.5)
        rep = cross_validate(ds, ("vi",), self.CFG, seed=1)
        assert rep.accuracy["vi"].mean() > 0.9

    def test_parallel_equals_serial(self):
        ds = helpers.make_blobs(18, 2, 12)
        a = cross_validate(ds, ("vi", "ours"), self.CFG, seed=2, jobs=1)
        b = cross_validate(ds, ("vi", "ours"), self.CFG, seed=2, jobs=3)
        for m in ("vi", "ours"):
            assert np.array_equal(a.accuracy[m], b.accuracy[m])
            assert np.array_equal(a.lpd[m], b.lpd[m])

    def test_rejects_untrainable_methods(self):
        ds = helpers.make_blobs(12, 2, 13)
        for bad in (("ep",), ("mcmc",), ("vi", "ep"), (), ("vi", "vi")):
            with pytest.raises(ValueError):
                cross_validate(ds, bad, self.CFG, seed=0)

    def test_mean_sd_accessor(self):
        ds = helpers.make_blobs(16, 2, 14)
        rep = cross_validate(ds, ("vi",), self.CFG, seed=3)
        mean, sd = rep.mean_sd("vi", "accuracy")
        assert mean == pytest.approx(float(rep.accuracy["vi"].mean()))
        assert sd == pytest.approx(float(np.std(rep.accuracy["vi"], ddof=1)))


class TestPairedTTest:
    def test_frozen_worked_example(self):
        """d = (1..5): t = sqrt(5) mean/sd = 3/sqrt(0.5); table p at 4 dof."""
        a = np.array([2.0, 3.0, 4.0, 5.0, 6.0])
        b = np.array([1.0, 1.0, 1.0, 1.0, 1.0])
        t, p = paired_t_test(a, b)
        assert_allclose(t, 4.242640687119285, rtol=1e-12)
        assert_allclose(p, 0.013235599563682690, rtol=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(6), rng.standard_normal(6)
        t_ab, p_ab = paired_t_test(a, b)
        t_ba, p_ba = paired_t_test(b, a)
        assert t_ab == -t_ba and p_ab == p_ba

    def test_identical_vectors_convention(self):
        v = np.array([0.3, 0.3, 0.9])
        assert paired_t_test(v, v) == (0.0, 1.0)

    def test_constant_nonzero_difference_convention(self):
        a = np.array([1.0, 2.0, 3.0])
        t, p = paired_t_test(a + 0.5, a)
        assert t == np.inf and p == 0.0
        t, p = paired_t_test(a - 0.5, a)
        assert t == -np.inf and p == 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            paired_t_test(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            paired_t_test(np.ones(1), np.ones(1))
