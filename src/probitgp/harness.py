"""Experiment harness: hyperparameter surface sweeps, k-fold CV, the paired t-test.

Grid cells and CV folds are independent pure functions of their inputs, so
they run under an optional process pool; results are reduced in a canonical
order and are bitwise identical for any worker count.  paired_t_test
compares two methods' fold columns of a CvReport.
"""

import logging
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import log_ndtr, ndtr, stdtr

from .ais import AisConfig, ais_lml
from .cvi import e_step
from .data import fold_datasets, make_folds, standardize
from .ep import ep_energy, ep_inference
from .errors import NumericsError
from .kernel import Hyperparams, gram
from .posterior import Sites, assemble, elbo, ep_like_energy, predictive_z
from .trainer import fit, fit_start

logger = logging.getLogger(__name__)

METHODS = ("vi", "ours", "ep", "mcmc")
OBJECTIVE_OF = {"vi": "elbo", "ours": "ep_like"}  # each trainable method's learning objective
TRAINABLE_METHODS = tuple(OBJECTIVE_OF)


def _check_methods(methods, allowed):
    if not methods or len(set(methods)) != len(methods) or not set(methods) <= set(allowed):
        raise ValueError(f"methods must name each of a non-empty subset of {allowed} once")


@dataclass(frozen=True)
class GridSpec:
    """Square sweep grid over (log lengthscale, log magnitude)."""

    lo: float = -1.0
    hi: float = 5.0
    points: int = 21
    methods: tuple = METHODS

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")
        if self.points < 2:
            raise ValueError("need at least 2 points per axis")
        _check_methods(self.methods, METHODS)

    def axis(self):
        return np.linspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class SweepConfig:
    """Per-cell inference budgets for surface sweeps; cell i anneals with
    ais.seed + i * ais.repeats."""

    e_iters: int = 200
    e_step_size: float = 0.1
    jitter: float | None = None
    ais: AisConfig = AisConfig()


@dataclass(frozen=True)
class SurfaceRecord:
    log_lengthscale: float
    log_magnitude: float
    method: str
    lml_per_n: float
    lpd_per_n: float


@dataclass(frozen=True)
class CvReport:
    """Per-fold metrics by method: accuracy[m] and lpd[m] hold k values."""

    dataset: str
    k: int
    methods: tuple
    accuracy: dict
    lpd: dict

    def mean_sd(self, method, metric):
        vals = getattr(self, metric)[method]
        return float(np.mean(vals)), float(np.std(vals, ddof=1))


def _mean_lpd(post, theta, X_train, X_test, y_test):
    return float(np.mean(log_ndtr(y_test * predictive_z(post, theta, X_train, X_test))))


def _sweep_cell(args):
    (X_train, y_train, X_test, y_test, ll, ls, methods, cfg, cell_seed) = args
    theta = Hyperparams(ll, ls)
    n = y_train.size
    records = {}
    try:
        K = gram(X_train, theta, cfg.jitter)
    except NumericsError:
        logger.warning("cell (%g, %g): covariance factorization failed", ll, ls)
        return [
            SurfaceRecord(ll, ls, m, float("nan"), float("nan")) for m in methods
        ]

    if "vi" in methods or "ours" in methods:
        try:
            post, _ = e_step(
                assemble(K, Sites.zeros(n)), y_train, step_size=cfg.e_step_size, iters=cfg.e_iters
            )
            lpd = _mean_lpd(post, theta, X_train, X_test, y_test)
            if "vi" in methods:
                records["vi"] = (elbo(post, y_train) / n, lpd)
            if "ours" in methods:
                records["ours"] = (ep_like_energy(post) / n, lpd)
        except NumericsError as exc:
            logger.warning("cell (%g, %g): shared inference failed: %s", ll, ls, exc)

    if "ep" in methods:
        try:
            ep_post, log_scale, _ = ep_inference(K, y_train)
            lpd = _mean_lpd(ep_post, theta, X_train, X_test, y_test)
            records["ep"] = (ep_energy(ep_post, log_scale) / n, lpd)
        except NumericsError as exc:
            logger.warning("cell (%g, %g): EP failed: %s", ll, ls, exc)

    if "mcmc" in methods:
        try:
            est = ais_lml(K, y_train, replace(cfg.ais, seed=cell_seed))
            records["mcmc"] = (est.log_ml / n, float("nan"))
        except NumericsError as exc:
            logger.warning("cell (%g, %g): annealing failed: %s", ll, ls, exc)

    logger.info("cell (%g, %g) done", ll, ls)
    nan = float("nan")
    return [
        SurfaceRecord(ll, ls, m, *records.get(m, (nan, nan))) for m in methods
    ]


def _pmap(fn, items, jobs):
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    ctx = multiprocessing.get_context("fork")
    workers = min(jobs, len(items))
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        return list(pool.map(fn, items))


def grid_sweep(train, test, spec, cfg, jobs=1):
    """Evaluate every method on every grid cell; failures yield NaN records.

    vi and ours share one natural-gradient inference per cell, so their
    held-out predictive columns coincide exactly.  AIS seeds derive from the
    linear cell index, keeping results independent of worker scheduling.
    Records are sorted by (log lengthscale, log magnitude, method).
    """
    axis = spec.axis()
    args = []
    for i, ll in enumerate(axis):
        for j, ls in enumerate(axis):
            cell_index = i * spec.points + j
            args.append((
                train.X, train.y, test.X, test.y,
                float(ll), float(ls), tuple(spec.methods), cfg,
                cfg.ais.seed + cell_index * cfg.ais.repeats,
            ))
    cell_lists = _pmap(_sweep_cell, args, jobs)
    records = [rec for cell in cell_lists for rec in cell]
    records.sort(key=lambda r: (r.log_lengthscale, r.log_magnitude, r.method))
    return records


def _cv_task(args):
    """One fold: every method's fit from the fold's one shared start."""
    dataset, folds, fold, methods, cfg = args
    train_raw, test_raw = fold_datasets(dataset, folds, fold)
    train, (test,) = standardize(train_raw, [test_raw])
    start = fit_start(train, cfg)  # the objective does not enter the E-step
    scores = []
    for method in methods:
        result = fit(train, replace(cfg, objective=OBJECTIVE_OF[method]), start=start)
        z = predictive_z(result.posterior, result.theta, train.X, test.X)
        del result  # its posterior need not outlive scoring into the next fit
        predicted = np.where(ndtr(z) >= 0.5, 1.0, -1.0)
        accuracy = float(np.mean(predicted == test.y))
        lpd = float(np.mean(log_ndtr(test.y * z)))
        logger.info("fold %d method %s: accuracy %.4f lpd %.4f", fold, method, accuracy, lpd)
        scores.append((fold, method, accuracy, lpd))
    return scores


def cross_validate(dataset, k, methods, cfg, seed, jobs=1):
    """k-fold CV of the trainable methods; standardization per train fold.

    methods must come from {"vi", "ours"} (the two learning objectives).
    Each fold is one task: one opening E-step (trainer.fit_start), shared by
    the fold's fits of every method, since the methods differ only in the
    M-step's objective.  Folds are independent and may run in parallel, so
    at most k workers are busy.
    """
    methods = tuple(methods)
    _check_methods(methods, TRAINABLE_METHODS)
    folds = make_folds(dataset.n, k, seed)
    args = [(dataset, folds, fold, methods, cfg) for fold in range(k)]
    results = _pmap(_cv_task, args, jobs)
    accuracy = {m: np.empty(k) for m in methods}
    lpd = {m: np.empty(k) for m in methods}
    for fold, method, acc, lp in (score for scores in results for score in scores):
        accuracy[method][fold] = acc
        lpd[method][fold] = lp
    return CvReport(dataset=dataset.name, k=k, methods=methods, accuracy=accuracy, lpd=lpd)


def paired_t_test(a, b):
    """Two-sided paired t-test; returns (t, p) with the degenerate conventions
    a == b -> (0, 1) and zero-variance nonzero mean -> (+/-inf, 0)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need two aligned vectors of length >= 2")
    d = a - b
    if np.all(d == 0.0):
        return 0.0, 1.0
    sd = float(np.std(d, ddof=1))
    mean = float(np.mean(d))
    if sd == 0.0:
        return float(np.sign(mean) * np.inf), 0.0
    t_stat = mean / (sd / np.sqrt(d.size))
    p_val = 2.0 * float(stdtr(d.size - 1, -abs(t_stat)))  # what scipy.stats.t.sf computes
    return float(t_stat), p_val
