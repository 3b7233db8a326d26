"""Experiment harness: hyperparameter surface sweeps, FOLDS-fold CV, the paired t-test.

Grid cells and CV folds are independent pure functions of their inputs, so
they run under an optional process pool; results are reduced in a canonical
order and are bitwise identical for any worker count.  Both drivers hold
rows out the same way (held_out_split) and score them by the same mean log
predictive density.
"""

import itertools
import logging
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import log_ndtr, ndtr, stdtr

from .ais import AisConfig, ais_lml
from .cvi import STEP_SIZE, check_settings, e_step
from .data import FOLDS, apply_standardization, feature_stats, fold_datasets, make_folds
from .ep import ep_energy, ep_inference
from .errors import NumericsError
from .kernel import Hyperparams, gram
from .posterior import Sites, assemble, predictive_z
from .trainer import fit, fit_start, learning_objective

logger = logging.getLogger(__name__)

METHODS = ("vi", "ours", "ep", "mcmc")
OBJECTIVE_OF = {"vi": "elbo", "ours": "ep_like"}  # each trainable method's learning objective
TRAINABLE_METHODS = tuple(OBJECTIVE_OF)


def _check_methods(methods, allowed):
    if not methods or len(set(methods)) != len(methods) or not set(methods) <= set(allowed):
        raise ValueError(f"methods must name each of a non-empty subset of {allowed} once")


@dataclass(frozen=True)
class GridSpec:
    """Square sweep grid over (log lengthscale, log magnitude) and each
    cell's budgets: e_iters E-step updates at cvi.STEP_SIZE, and AIS under
    ais, cell i annealing with ais.seed + i * ais.repeats."""

    lo: float = -1.0
    hi: float = 5.0
    points: int = 21
    methods: tuple = METHODS
    e_iters: int = 200
    ais: AisConfig = AisConfig()

    def __post_init__(self):
        if not (np.isfinite(self.hi - self.lo) and self.lo < self.hi):
            raise ValueError("need finite lo < hi")
        if self.points < 2:
            raise ValueError("need at least 2 points per axis")
        _check_methods(self.methods, METHODS)
        check_settings(STEP_SIZE, self.e_iters)

    def axis(self):
        return np.linspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class SurfaceRecord:
    log_lengthscale: float
    log_magnitude: float
    method: str
    lml_per_n: float
    lpd_per_n: float


@dataclass(frozen=True)
class CvReport:
    """Per-fold metrics by method: accuracy[m] and lpd[m] hold FOLDS values."""

    methods: tuple
    accuracy: dict
    lpd: dict

    def mean_sd(self, method, metric):
        vals = getattr(self, metric)[method]
        return float(np.mean(vals)), float(np.std(vals, ddof=1))


def held_out_split(dataset, folds, fold):
    """(train, test) of one fold, both standardized by the train rows'
    statistics, which a column that overflows them reports under dataset's name."""
    train, test = fold_datasets(dataset, folds, fold)
    mean, scale = feature_stats(replace(train, name=dataset.name))
    return apply_standardization(train, mean, scale), apply_standardization(test, mean, scale)


def _mean_lpd(y, z):
    """Held-out log predictive density per row, for p(y | x) = Phi(y z)."""
    return float(np.mean(log_ndtr(y * z)))


def _sweep_cell(args):
    (X_train, y_train, X_test, y_test, ll, ls, spec, cell_seed) = args
    n = y_train.size
    records = {}
    nan = float("nan")
    try:
        K = gram(X_train, Hyperparams(ll, ls))
    except NumericsError:
        logger.warning("cell (%g, %g): covariance factorization failed", ll, ls)
        return [SurfaceRecord(ll, ls, m, nan, nan) for m in spec.methods]

    shared = [m for m in TRAINABLE_METHODS if m in spec.methods]
    bound = None  # the shared posterior's ELBO, a lower bound on log p(y)
    if shared:
        try:
            post, trace = e_step(
                assemble(K, Sites.zeros(n)), y_train, step_size=STEP_SIZE, iters=spec.e_iters
            )
            bound = trace[-1]
            lpd = _mean_lpd(y_test, predictive_z(post.scoring(), X_test))
            for method in shared:
                value = learning_objective(post, y_train, OBJECTIVE_OF[method])
                records[method] = (value / n, lpd)
        except NumericsError as exc:
            logger.warning("cell (%g, %g): shared inference failed: %s", ll, ls, exc)

    if "ep" in spec.methods:
        try:
            ep_post, log_scale, _ = ep_inference(K, y_train)
            lpd = _mean_lpd(y_test, predictive_z(ep_post.scoring(), X_test))
            records["ep"] = (ep_energy(ep_post, log_scale) / n, lpd)
        except NumericsError as exc:
            logger.warning("cell (%g, %g): EP failed: %s", ll, ls, exc)

    if "mcmc" in spec.methods:
        try:
            est = ais_lml(K, y_train, replace(spec.ais, seed=cell_seed))
            records["mcmc"] = (est.log_ml / n, nan)
            if bound is not None and est.log_ml < bound:
                logger.warning("cell (%g, %g): AIS log_ml lies %.6g nats below the E-step's ELBO",
                               ll, ls, bound - est.log_ml)
        except NumericsError as exc:
            logger.warning("cell (%g, %g): annealing failed: %s", ll, ls, exc)

    logger.info("cell (%g, %g) done", ll, ls)
    return [SurfaceRecord(ll, ls, m, *records.get(m, (nan, nan))) for m in spec.methods]


def _pmap(fn, items, jobs):
    if jobs < 1:  # more likely a typo than a request for serial work
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    ctx = multiprocessing.get_context("fork")
    workers = min(jobs, len(items))
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        return list(pool.map(fn, items))


def grid_sweep(train, test, spec, jobs=1):
    """Evaluate every method on every grid cell; failures yield NaN records.

    vi and ours share one natural-gradient inference per cell, so their
    held-out predictive columns coincide exactly.  AIS seeds derive from the
    linear cell index, keeping results independent of worker scheduling.
    Records are sorted by (log lengthscale, log magnitude, method).
    """
    args = [
        (train.X, train.y, test.X, test.y, float(ll), float(ls), spec,
         spec.ais.seed + cell_index * spec.ais.repeats)
        for cell_index, (ll, ls) in enumerate(itertools.product(spec.axis(), repeat=2))
    ]
    cell_lists = _pmap(_sweep_cell, args, jobs)
    records = [rec for cell in cell_lists for rec in cell]
    records.sort(key=lambda r: (r.log_lengthscale, r.log_magnitude, r.method))
    return records


def _cv_task(args):
    """One fold: every method's fit from the fold's one shared start."""
    dataset, folds, fold, methods, cfg = args
    train, test = held_out_split(dataset, folds, fold)
    start = fit_start(train, cfg)  # the objective does not enter the E-step
    scores = []
    for method in methods:
        result = fit(train, replace(cfg, objective=OBJECTIVE_OF[method]), start=start)
        z = predictive_z(result.posterior.scoring(), test.X)
        del result  # its posterior need not outlive scoring into the next fit
        predicted = np.where(ndtr(z) >= 0.5, 1.0, -1.0)
        accuracy = float(np.mean(predicted == test.y))
        lpd = _mean_lpd(test.y, z)
        logger.info("fold %d method %s: accuracy %.4f lpd %.4f", fold, method, accuracy, lpd)
        scores.append((fold, method, accuracy, lpd))
    return scores


def cross_validate(dataset, methods, cfg, seed, jobs=1):
    """FOLDS-fold CV of the trainable methods; standardization per train fold.

    methods must come from {"vi", "ours"} (the two learning objectives).
    Each fold is one task: one opening E-step (trainer.fit_start), shared by
    the fold's fits of every method, since the methods differ only in the
    M-step's objective.  Folds are independent and may run in parallel, so
    at most FOLDS workers are busy.
    """
    methods = tuple(methods)
    _check_methods(methods, TRAINABLE_METHODS)
    folds = make_folds(dataset.n, seed)
    args = [(dataset, folds, fold, methods, cfg) for fold in range(FOLDS)]
    results = _pmap(_cv_task, args, jobs)
    accuracy = {m: np.empty(FOLDS) for m in methods}
    lpd = {m: np.empty(FOLDS) for m in methods}
    for fold, method, acc, lp in (score for scores in results for score in scores):
        accuracy[method][fold] = acc
        lpd[method][fold] = lp
    return CvReport(methods=methods, accuracy=accuracy, lpd=lpd)


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
