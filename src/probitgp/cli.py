"""Command-line front end: fit, predict, grid, cv, ais.

Exit codes: 0 on success, 1 on usage errors, 2 on numeric failures.  Every
output CSV starts with a comment line holding the fully resolved command
(all defaults materialized); re-running that command reproduces the file
bit for bit.  A flag's default is read from the library type that owns the
setting (TrainConfig, SweepConfig, GridSpec, AisConfig), and --methods is
checked where the library checks a method list: GridSpec, cross_validate.
"""

import argparse
import logging
import sys
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from .ais import AisConfig, ais_lml
from .data import feature_stats, load_csv, make_folds, fold_datasets, read_feature_rows, standardize
from .errors import NumericsError
from .harness import (
    TRAINABLE_METHODS, GridSpec, SweepConfig, cross_validate, grid_sweep, paired_t_test,
)
from .kernel import Hyperparams, gram
from .model_io import ModelArtifact, load_model, save_model
from .posterior import ScoringState, assemble, predictive_z
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


def _fmt(x):
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def _jitter_arg(text):
    if text == "none":
        return None
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid jitter {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError("jitter must be >= 0")
    return value


_TRAIN = TrainConfig()
_SWEEP = SweepConfig()
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
    ("--m-lr", dict(type=float, default=_TRAIN.m_lr)),
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
        ("--jitter", dict(type=_jitter_arg, default=_TRAIN.jitter)),
    ],
    "predict": [
        ("--model", dict(required=True, help="model artifact from fit")),
        ("--data", dict(required=True, help="CSV of rows to score")),
        ("--label", dict(default=None, help="label column to drop, if present")),
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
        ("--e-iters", dict(type=int, default=_SWEEP.e_iters)),
        ("--e-step-size", dict(type=float, default=_SWEEP.e_step_size)),
        *_AIS_FLAGS,
        ("--jobs", dict(type=int, default=1)),
        ("--jitter", dict(type=_jitter_arg, default=_SWEEP.jitter)),
    ],
    "cv": [
        ("--data", dict(required=True)),
        ("--label", dict(default="last")),
        ("--out", dict(required=True, help="per-fold CSV (summary written beside it)")),
        ("--seed", dict(type=int, default=0)),
        ("--methods", dict(default=",".join(TRAINABLE_METHODS))),
        *_TRAIN_FLAGS,
        ("--jobs", dict(type=int, default=1)),
        ("--jitter", dict(type=_jitter_arg, default=_TRAIN.jitter)),
    ],
    "ais": [
        ("--data", dict(required=True)),
        ("--label", dict(default="last")),
        ("--out", dict(default=None, help="optional CSV for the estimate")),
        ("--seed", dict(type=int, default=_AIS.seed)),
        ("--log-lengthscale", dict(type=float, default=Hyperparams().log_lengthscale)),
        ("--log-magnitude", dict(type=float, default=Hyperparams().log_magnitude)),
        *_AIS_FLAGS,
        ("--jitter", dict(type=_jitter_arg, default=None)),
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
        dest = flag.lstrip("-").replace("-", "_")
        value = getattr(args, dest)
        if value is None:
            value = "none"
        parts.append(f"{flag} {_fmt(value)}")
    return " ".join(parts)


def _write_csv(path, header_comment, columns, rows):
    with open(path, "w") as handle:
        handle.write(f"# {header_comment}\n")
        handle.write(",".join(columns) + "\n")
        for row in rows:
            handle.write(",".join(_fmt(v) for v in row) + "\n")


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
        m_lr=args.m_lr,
        outer_rounds=args.rounds,
        outer_tol=args.tol,
        jitter=args.jitter,
    )


def _ais_config(args):
    return AisConfig(steps=args.ais_T, repeats=args.ais_repeats, seed=args.seed)


def _cmd_fit(args):
    dataset = load_csv(args.data, args.label)
    train, _ = standardize(dataset)
    result = train_fit(train, _train_config(args, objective=args.objective))
    mean, scale = feature_stats(dataset)
    artifact = ModelArtifact(
        name=dataset.name, objective=args.objective, jitter=args.jitter,
        theta=result.theta, sites=result.posterior.sites,
        feature_mean=mean, feature_scale=scale, features=train.X,
    )
    save_model(args.out, artifact)
    rounds = result.objective_trace.size
    trace_rows = [
        (
            r,
            result.objective_trace[r],
            result.elbo_trace[r],
            result.theta_trace[r, 0],
            result.theta_trace[r, 1],
        )
        for r in range(rounds)
    ]
    _write_csv(
        str(args.out) + ".trace.csv", _resolved_command(args),
        ("round", "objective", "elbo", "log_lengthscale", "log_magnitude"),
        trace_rows,
    )
    print(
        f"fit {dataset.name}: rounds={rounds} "
        f"log_lengthscale={_fmt(result.theta.log_lengthscale)} "
        f"log_magnitude={_fmt(result.theta.log_magnitude)} "
        f"objective={_fmt(float(result.objective_trace[-1]))} "
        f"stopped={result.stopped}"
    )
    return EXIT_OK


def _cmd_predict(args):
    artifact = load_model(args.model)
    label = None if args.label in (None, "none") else args.label
    X = read_feature_rows(args.data, label)
    if X.shape[1] != artifact.features.shape[1]:
        raise _UsageError(
            f"feature count {X.shape[1]} does not match the model ({artifact.features.shape[1]})"
        )
    with np.errstate(over="ignore"):  # overflow is reported below, by row
        Xs = (X - artifact.feature_mean) / artifact.feature_scale
    nonfinite = np.flatnonzero(~np.isfinite(Xs).all(axis=1))
    if nonfinite.size:
        raise ValueError(f"{args.data}: non-finite standardized feature in row {nonfinite[0]}")
    post = assemble(gram(artifact.features, artifact.theta, artifact.jitter), artifact.sites)
    # scoring reads only alpha and R: keeping just those frees K, V and
    # chol_a before the first block
    post = ScoringState(post.alpha, post.R)
    p_pos = ndtr(predictive_z(post, artifact.theta, artifact.features, Xs))
    with open(args.out, "w") as handle:
        handle.write(f"# {_resolved_command(args)}\n")
        handle.write("row,p_positive,label\n")
        # one format string: the bytes _write_csv's _fmt gives an int, a float, an int
        handle.writelines("%d,%.17g,%d\n" % (i, p, 1 if p >= 0.5 else -1)
                          for i, p in enumerate(p_pos.tolist()))
    print(f"predicted {Xs.shape[0]} rows -> {args.out}")
    return EXIT_OK


def _cmd_grid(args):
    spec = GridSpec(lo=args.lo, hi=args.hi, points=args.points, methods=_methods(args.methods))
    dataset = load_csv(args.data, args.label)
    folds = make_folds(dataset.n, 5, args.seed)
    train_raw, test_raw = fold_datasets(dataset, folds, 0)
    train, (test,) = standardize(train_raw, [test_raw])
    cfg = SweepConfig(
        e_iters=args.e_iters, e_step_size=args.e_step_size, jitter=args.jitter,
        ais=_ais_config(args),
    )
    records = grid_sweep(train, test, spec, cfg, jobs=args.jobs)
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
        dataset, 5, _methods(args.methods), _train_config(args), args.seed, jobs=args.jobs
    )
    methods = report.methods
    fold_rows = [
        (dataset.name, fold, method, report.accuracy[method][fold], report.lpd[method][fold])
        for fold in range(report.k)
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
    train, _ = standardize(dataset)
    theta = Hyperparams(args.log_lengthscale, args.log_magnitude)
    K = gram(train.X, theta, args.jitter)
    est = ais_lml(K, train.y, _ais_config(args))
    per = ",".join(_fmt(float(v)) for v in est.per_repeat)
    print(f"log_ml={_fmt(est.log_ml)} per_repeat={per} n={dataset.n}")
    out = None if args.out in (None, "none") else args.out
    if out:
        rows = [("log_ml", est.log_ml)]
        rows += [(f"repeat_{r}", float(v)) for r, v in enumerate(est.per_repeat)]
        _write_csv(out, _resolved_command(args), ("quantity", "value"), rows)
    return EXIT_OK


_HANDLERS = {
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "grid": _cmd_grid,
    "cv": _cmd_cv,
    "ais": _cmd_ais,
}


def run(argv):
    """Parse argv (without the program name) and execute; returns exit code."""
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
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
