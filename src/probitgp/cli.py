"""Command-line front end: fit, predict, grid, cv, ais.

Exit codes: 0 on success, 1 on usage errors, 2 on numeric failures.  Every
output CSV starts with a comment line holding the fully resolved command
(all defaults materialized); re-running that command reproduces the file
bit for bit, whatever OPENBLAS_NUM_THREADS says: run sets the OpenBLAS that
numpy and scipy each bundle to one thread before any work, once per process
(--jobs workers inherit it).  A build without those libraries keeps its own
BLAS threads and logs one line.  The library API leaves the caller's thread
setting alone.  A flag's default is read from the library type that owns
the setting: TrainConfig for fit and cv, GridSpec for grid, AisConfig for
ais.  --methods is checked where the library checks a method list:
GridSpec, cross_validate.
"""

import argparse
import ctypes
import functools
import logging
import sys
from pathlib import Path

import numpy
import scipy
from scipy.special import ndtr

from .ais import AisConfig, ais_lml
from .data import load_csv, make_folds, read_feature_rows, standardize, standardize_rows
from .errors import NumericsError
from .harness import (
    FOLDS, TRAINABLE_METHODS, GridSpec, cross_validate, grid_sweep, held_out_split, paired_t_test,
)
from .kernel import Hyperparams, gram
from .model_io import ModelArtifact, load_model, number_text, save_model
from .posterior import assemble, predictive_z
from .trainer import OBJECTIVES, TrainConfig, fit as train_fit

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2

logger = logging.getLogger(__name__)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        # a subcommand's parser is a _Parser too, so it rejects the flags it
        # does not know itself, and their error carries its usage
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _none_or(parse):
    """argparse type of a flag that also takes the word none, read as None."""
    return lambda text: None if text == "none" else parse(text)


_TRAIN = TrainConfig()
_GRID = GridSpec()
_AIS = AisConfig()

# fit's and cv's training flags, and grid's and ais's annealing flags
_TRAIN_FLAGS = [
    ("--log-lengthscale", dict(type=float, default=_TRAIN.theta0.log_lengthscale,
                               help="initial log lengthscale")),
    ("--log-magnitude", dict(type=float, default=_TRAIN.theta0.log_magnitude,
                             help="initial log magnitude")),
    ("--e-iters", dict(type=int, default=_TRAIN.e_iters)),
    ("--m-iters", dict(type=int, default=_TRAIN.m_iters)),
    ("--e-step-size", dict(type=float, default=_TRAIN.e_step_size)),
    ("--rounds", dict(type=int, default=_TRAIN.outer_rounds)),
    ("--tol", dict(type=float, default=_TRAIN.outer_tol)),
]
_AIS_FLAGS = [
    ("--ais-T", dict(type=int, default=_AIS.steps)),
    ("--ais-repeats", dict(type=int, default=_AIS.repeats)),
]

# flag registry per subcommand, in header order: (flag, adder kwargs)
_SPECS = {
    "fit": [
        ("--data", dict(required=True, help="training CSV")),
        ("--label", dict(default="last", help="label column: name, index, or 'last'")),
        ("--out", dict(required=True, help="model artifact path (trace CSV beside it)")),
        ("--objective", dict(choices=OBJECTIVES, default=_TRAIN.objective)),
        *_TRAIN_FLAGS,
    ],
    "predict": [
        ("--model", dict(required=True, help="model artifact from fit")),
        ("--data", dict(required=True, help="CSV of rows to score")),
        ("--label", dict(type=_none_or(str), default=None,
                         help="label column to drop, if present")),
        ("--out", dict(required=True, help="output CSV")),
    ],
    "grid": [
        ("--data", dict(required=True)),
        ("--label", dict(default="last")),
        ("--out", dict(required=True)),
        ("--seed", dict(type=int, default=_AIS.seed)),
        ("--lo", dict(type=float, default=_GRID.lo)),
        ("--hi", dict(type=float, default=_GRID.hi)),
        ("--points", dict(type=int, default=_GRID.points)),
        ("--methods", dict(default=",".join(_GRID.methods))),
        ("--e-iters", dict(type=int, default=_GRID.e_iters)),
        *_AIS_FLAGS,
        ("--jobs", dict(type=int, default=1)),
    ],
    "cv": [
        ("--data", dict(required=True)),
        ("--label", dict(default="last")),
        ("--out", dict(required=True, help="per-fold CSV (summary written beside it)")),
        ("--seed", dict(type=int, default=0)),
        ("--methods", dict(default=",".join(TRAINABLE_METHODS))),
        *_TRAIN_FLAGS,
        ("--jobs", dict(type=int, default=1)),
    ],
    "ais": [
        ("--data", dict(required=True)),
        ("--label", dict(default="last")),
        ("--out", dict(type=_none_or(str), default=None, help="optional CSV for the estimate")),
        ("--seed", dict(type=int, default=_AIS.seed)),
        ("--log-lengthscale", dict(type=float, default=Hyperparams().log_lengthscale)),
        ("--log-magnitude", dict(type=float, default=Hyperparams().log_magnitude)),
        *_AIS_FLAGS,
    ],
}


def build_parser():
    parser = _Parser(prog="probitgp", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    for name, flags in _SPECS.items():
        sub = subs.add_parser(name, prog=f"probitgp {name}")
        for flag, kwargs in flags:
            sub.add_argument(flag, **kwargs)
    return parser


def _resolved_command(args):
    parts = [f"probitgp {args.command}"]
    for flag, _ in _SPECS[args.command]:
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        parts.append(f"{flag} {number_text('none' if value is None else value)}")
    return " ".join(parts)


def _write_csv(path, header_comment, columns, rows):
    with open(path, "w") as handle:
        handle.write(f"# {header_comment}\n")
        handle.write(",".join(columns) + "\n")
        for row in rows:
            handle.write(",".join(number_text(v) for v in row) + "\n")


def _methods(text):
    return tuple(m.strip() for m in text.split(",") if m.strip())


def _train_config(args, **fields):
    # cv passes no objective: cross_validate sets each method's own
    return TrainConfig(
        **fields,
        theta0=Hyperparams(args.log_lengthscale, args.log_magnitude),
        e_iters=args.e_iters,
        e_step_size=args.e_step_size,
        m_iters=args.m_iters,
        outer_rounds=args.rounds,
        outer_tol=args.tol,
    )


def _ais_config(args):
    return AisConfig(steps=args.ais_T, repeats=args.ais_repeats, seed=args.seed)


def _cmd_fit(args):
    dataset = load_csv(args.data, args.label)
    train, mean, scale = standardize(dataset)
    result = train_fit(train, _train_config(args, objective=args.objective))
    artifact = ModelArtifact(
        name=dataset.name, objective=args.objective,
        theta=result.theta, sites=result.posterior.sites,
        feature_mean=mean, feature_scale=scale, features=train.X,
    )
    save_model(args.out, artifact)
    rounds = result.objective_trace.size
    trace_rows = zip(range(rounds), result.objective_trace, result.elbo_trace,
                     *result.theta_trace.T)
    _write_csv(
        str(args.out) + ".trace.csv", _resolved_command(args),
        ("round", "objective", "elbo", "log_lengthscale", "log_magnitude"),
        trace_rows,
    )
    print(
        f"fit {dataset.name}: rounds={rounds} "
        f"log_lengthscale={number_text(result.theta.log_lengthscale)} "
        f"log_magnitude={number_text(result.theta.log_magnitude)} "
        f"objective={number_text(float(result.objective_trace[-1]))} "
        f"stopped={result.stopped}"
    )
    return EXIT_OK


def _cmd_predict(args):
    artifact = load_model(args.model)
    X = read_feature_rows(args.data, args.label)
    if X.shape[1] != artifact.features.shape[1]:
        raise _UsageError(f"{args.data}: feature count {X.shape[1]} does not match the model "
                          f"({artifact.features.shape[1]})")
    Xs = standardize_rows(X, artifact.feature_mean, artifact.feature_scale, args.data)
    # keeping only the scoring state frees K, V and chol_a before the first block
    state = assemble(gram(artifact.features, artifact.theta), artifact.sites).scoring()
    try:
        p_pos = ndtr(predictive_z(state, Xs))
    except ValueError as exc:  # a row whose kernel values overflow
        raise ValueError(f"{args.data}: {exc}") from None
    with open(args.out, "w") as handle:
        handle.write(f"# {_resolved_command(args)}\n")
        handle.write("row,p_positive,label\n")
        # one format string: the bytes number_text gives an int, a float, an int
        handle.writelines("%d,%.17g,%d\n" % (i, p, 1 if p >= 0.5 else -1)
                          for i, p in enumerate(p_pos.tolist()))
    print(f"predicted {Xs.shape[0]} rows -> {args.out}")
    return EXIT_OK


def _cmd_grid(args):
    spec = GridSpec(lo=args.lo, hi=args.hi, points=args.points, methods=_methods(args.methods),
                    e_iters=args.e_iters, ais=_ais_config(args))
    dataset = load_csv(args.data, args.label)
    train, test = held_out_split(dataset, make_folds(dataset.n, args.seed), 0)
    records = grid_sweep(train, test, spec, jobs=args.jobs)
    rows = [
        (r.log_lengthscale, r.log_magnitude, r.method, r.lml_per_n, r.lpd_per_n)
        for r in records
    ]
    _write_csv(
        args.out, _resolved_command(args),
        ("log_lengthscale", "log_magnitude", "method", "lml_per_n", "lpd_per_n"),
        rows,
    )
    print(f"grid {dataset.name}: {len(rows)} rows -> {args.out}")
    return EXIT_OK


def _cmd_cv(args):
    dataset = load_csv(args.data, args.label)
    report = cross_validate(
        dataset, _methods(args.methods), _train_config(args), args.seed, jobs=args.jobs
    )
    methods = report.methods
    fold_rows = [
        (dataset.name, fold, method, report.accuracy[method][fold], report.lpd[method][fold])
        for fold in range(FOLDS)
        for method in methods
    ]
    _write_csv(
        args.out, _resolved_command(args),
        ("dataset", "fold", "method", "accuracy", "lpd"),
        fold_rows,
    )
    # t and p pair each method's folds with the first method's; the first
    # method's own row reads paired_t_test's (0, 1) for identical columns
    summary_rows = []
    for metric in ("accuracy", "lpd"):
        folds = getattr(report, metric)
        for method in methods:
            t_stat, p_val = paired_t_test(folds[methods[0]], folds[method])
            summary_rows.append(
                (dataset.name, metric, method, *report.mean_sd(method, metric), t_stat, p_val)
            )
    summary_path = str(Path(args.out).with_suffix(".summary.csv"))
    _write_csv(
        summary_path, _resolved_command(args),
        ("dataset", "metric", "method", "mean", "sd", "t", "p"),
        summary_rows,
    )
    for method in methods:
        acc, acc_sd = report.mean_sd(method, "accuracy")
        lpd, lpd_sd = report.mean_sd(method, "lpd")
        print(
            f"cv {dataset.name} {method}: accuracy {acc:.4f} +/- {acc_sd:.4f}, "
            f"lpd {lpd:.4f} +/- {lpd_sd:.4f}"
        )
    return EXIT_OK


def _cmd_ais(args):
    dataset = load_csv(args.data, args.label)
    train = standardize(dataset)[0]
    theta = Hyperparams(args.log_lengthscale, args.log_magnitude)
    K = gram(train.X, theta)
    est = ais_lml(K, train.y, _ais_config(args))
    per = ",".join(number_text(float(v)) for v in est.per_repeat)
    print(f"log_ml={number_text(est.log_ml)} per_repeat={per} n={dataset.n}")
    if args.out:
        rows = [("log_ml", est.log_ml)]
        rows += [(f"repeat_{r}", float(v)) for r, v in enumerate(est.per_repeat)]
        _write_csv(args.out, _resolved_command(args), ("quantity", "value"), rows)
    return EXIT_OK


# the OpenBLAS that numpy's and scipy's wheels each bundle, and its thread setter
_OPENBLAS_SETTERS = (
    (numpy, "scipy_openblas_set_num_threads64_"),
    (scipy, "scipy_openblas_set_num_threads"),
)


@functools.cache
def _one_blas_thread():
    """Set the OpenBLAS pools bundled with numpy and scipy to one thread,
    once per process.  A pool whose library or setter is not found (another
    BLAS) is left as it is, and one line says so."""
    missing = []
    for package, symbol in _OPENBLAS_SETTERS:
        libs = Path(package.__file__).parents[1] / f"{package.__name__}.libs"
        try:
            setter = getattr(ctypes.CDLL(str(next(libs.glob("libscipy_openblas*.so")))), symbol)
        except (StopIteration, OSError, AttributeError):
            missing.append(package.__name__)
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)
    if missing:
        logger.info("no bundled OpenBLAS thread setter in %s: BLAS threads left as they are",
                    " and ".join(missing))


_HANDLERS = {
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "grid": _cmd_grid,
    "cv": _cmd_cv,
    "ais": _cmd_ais,
}


def run(argv):
    """Parse argv (without the program name) and execute; returns exit code.
    BLAS runs on one thread from here on, in this process and its workers."""
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    _one_blas_thread()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
