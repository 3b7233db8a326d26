"""Command-line front end: fit, predict, grid, cv, ais.

Exit codes: 0 on success, 1 on usage errors, 2 on numeric failures.  Every
output CSV starts with a comment line holding the fully resolved command
(all defaults materialized); re-running that command reproduces the file
bit for bit.
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
from .harness import METHODS, TRAINABLE_METHODS, GridSpec, SweepConfig, cross_validate, grid_sweep
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


# flag registry per subcommand, in header order: (flag, dest, adder kwargs)
_SPECS = {
    "fit": [
        ("--data", dict(required=True, help="training CSV")),
        ("--label", dict(default="last", help="label column: name, index, or 'last'")),
        ("--out", dict(required=True, help="model artifact path (trace CSV beside it)")),
        ("--objective", dict(choices=OBJECTIVES, default="elbo")),
        ("--log-lengthscale", dict(type=float, default=0.0, help="initial log lengthscale")),
        ("--log-magnitude", dict(type=float, default=0.0, help="initial log magnitude")),
        ("--e-iters", dict(type=int, default=20)),
        ("--m-iters", dict(type=int, default=20)),
        ("--e-step-size", dict(type=float, default=0.1)),
        ("--m-lr", dict(type=float, default=0.001)),
        ("--rounds", dict(type=int, default=50)),
        ("--tol", dict(type=float, default=1e-4)),
        ("--jitter", dict(type=_jitter_arg, default=None)),
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
        ("--seed", dict(type=int, default=0)),
        ("--lo", dict(type=float, default=-1.0)),
        ("--hi", dict(type=float, default=5.0)),
        ("--points", dict(type=int, default=21)),
        ("--methods", dict(default="vi,ours,ep,mcmc")),
        ("--e-iters", dict(type=int, default=200)),
        ("--e-step-size", dict(type=float, default=0.1)),
        ("--ais-T", dict(type=int, default=8000)),
        ("--ais-repeats", dict(type=int, default=3)),
        ("--jobs", dict(type=int, default=1)),
        ("--jitter", dict(type=_jitter_arg, default=None)),
    ],
    "cv": [
        ("--data", dict(required=True)),
        ("--label", dict(default="last")),
        ("--out", dict(required=True, help="per-fold CSV (summary written beside it)")),
        ("--seed", dict(type=int, default=0)),
        ("--methods", dict(default="vi,ours")),
        ("--log-lengthscale", dict(type=float, default=0.0)),
        ("--log-magnitude", dict(type=float, default=0.0)),
        ("--e-iters", dict(type=int, default=20)),
        ("--m-iters", dict(type=int, default=20)),
        ("--e-step-size", dict(type=float, default=0.1)),
        ("--m-lr", dict(type=float, default=0.001)),
        ("--rounds", dict(type=int, default=50)),
        ("--tol", dict(type=float, default=1e-4)),
        ("--jobs", dict(type=int, default=1)),
        ("--jitter", dict(type=_jitter_arg, default=None)),
    ],
    "ais": [
        ("--data", dict(required=True)),
        ("--label", dict(default="last")),
        ("--out", dict(default=None, help="optional CSV for the estimate")),
        ("--seed", dict(type=int, default=0)),
        ("--log-lengthscale", dict(type=float, default=0.0)),
        ("--log-magnitude", dict(type=float, default=0.0)),
        ("--ais-T", dict(type=int, default=8000)),
        ("--ais-repeats", dict(type=int, default=3)),
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


def _parse_methods(text, allowed):
    methods = tuple(m.strip() for m in text.split(",") if m.strip())
    bad = [m for m in methods if m not in allowed]
    if bad or not methods:
        raise _UsageError(f"--methods must name a non-empty subset of {allowed}")
    if len(set(methods)) != len(methods):
        raise _UsageError("--methods has duplicates")
    return methods


def _train_config(args, objective="elbo"):
    # cv keeps the default: cross_validate sets each method's own objective
    return TrainConfig(
        objective=objective,
        theta0=Hyperparams(args.log_lengthscale, args.log_magnitude),
        e_iters=args.e_iters,
        e_step_size=args.e_step_size,
        m_iters=args.m_iters,
        m_lr=args.m_lr,
        outer_rounds=args.rounds,
        outer_tol=args.tol,
        jitter=args.jitter,
    )


def _cmd_fit(args):
    dataset = load_csv(args.data, args.label)
    train, _ = standardize(dataset)
    result = train_fit(train, _train_config(args, args.objective))
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
        f"stopped={'tolerance' if result.converged else 'round_cap'}"
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
    methods = _parse_methods(args.methods, METHODS)
    dataset = load_csv(args.data, args.label)
    folds = make_folds(dataset.n, 5, args.seed)
    train_raw, test_raw = fold_datasets(dataset, folds, 0)
    train, (test,) = standardize(train_raw, [test_raw])
    spec = GridSpec(lo=args.lo, hi=args.hi, points=args.points, methods=methods)
    cfg = SweepConfig(
        e_iters=args.e_iters, e_step_size=args.e_step_size,
        ais_steps=args.ais_T, ais_repeats=args.ais_repeats,
        jitter=args.jitter, seed=args.seed,
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
    methods = _parse_methods(args.methods, TRAINABLE_METHODS)
    dataset = load_csv(args.data, args.label)
    report = cross_validate(
        dataset, 5, methods, _train_config(args), args.seed, jobs=args.jobs
    )
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
    pair_lookup = {
        (t.metric, t.method_a, t.method_b): t for t in report.tests
    }
    summary_rows = []
    baseline = methods[0]
    for metric in ("accuracy", "lpd"):
        for method in methods:
            mean, sd = report.mean_sd(method, metric)
            if method == baseline:
                t_stat, p_val = 0.0, 1.0
            else:
                test = pair_lookup[(metric, baseline, method)]
                t_stat, p_val = test.t_statistic, test.p_value
            summary_rows.append((dataset.name, metric, method, mean, sd, t_stat, p_val))
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
    cfg = AisConfig(steps=args.ais_T, repeats=args.ais_repeats, seed=args.seed)
    est = ais_lml(K, train.y, cfg)
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
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
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
