"""The benchmark's three workloads: inputs, CLI invocations and output checks.

Each workload drives probitgp's command line in process, through
probitgp.cli.run, with --jobs 1:

- surface_grid: `probitgp grid` with vi,ours,ep,mcmc at the CLI's default
  budgets on a coarse 3 x 3 grid over the default range, sonar-shaped data.
- train_cv: `probitgp cv` of vi and ours with one outer round and --tol 0,
  so every fit does the same number of rounds, on sonar-shaped data.
- predict_batch: `probitgp predict` of a diabetes-shaped model (614 training
  rows) over PREDICT_ROWS labelled rows.

An invocation's outputs are checked before its units count; check_* return
an Outcome whose problems list is empty when every check passes.  A unit
with a recorded NaN counts as failed without being a check problem.
"""

import math
from dataclasses import dataclass, field
from pathlib import Path

import gen

GRID_POINTS = 3
CV_ROUNDS = 1
CV_THETA0 = ("--log-lengthscale", "2", "--log-magnitude", "1")
PREDICT_TRAIN_ROWS = 614
PREDICT_ROWS = 20000
PREDICT_FIT = (
    "--rounds", "1", "--m-iters", "0", "--e-iters", "10", "--e-step-size", "0.5",
    "--log-lengthscale", "1", "--log-magnitude", "1",
)


@dataclass
class Outcome:
    """Checked result of one invocation."""

    units: int
    failed: int = 0
    lpd: list = field(default_factory=list)      # held-out log densities, nats/point
    problems: list = field(default_factory=list)
    body: bytes = b""                            # output CSV bodies, header comment dropped


def read_csv(path):
    """(body bytes, column names, rows as string lists) of a program CSV."""
    text = Path(path).read_text()
    first, _, body = text.partition("\n")
    if not first.startswith("# "):
        raise ValueError(f"{path}: missing command comment")
    lines = body.splitlines()
    return body.encode(), lines[0].split(","), [line.split(",") for line in lines[1:]]


# -- surface_grid -----------------------------------------------------------

def grid_setup(work, seed, run, rows=None):
    gen.write_csv(work / "sonar.csv", *gen.draw("sonar", seed, rows))


def grid_argv(work, extra=()):
    return ["grid", "--data", str(work / "sonar.csv"), "--out", str(work / "surface.csv"),
            "--points", str(GRID_POINTS), "--methods", "vi,ours,ep,mcmc", "--jobs", "1", *extra]


def check_grid(work):
    body, columns, rows = read_csv(work / "surface.csv")
    by_cell = {}
    for r in rows:
        by_cell.setdefault((r[0], r[1]), {})[r[2]] = (float(r[3]), float(r[4]))
    out = Outcome(units=len(by_cell), body=body)
    if columns != ["log_lengthscale", "log_magnitude", "method", "lml_per_n", "lpd_per_n"]:
        out.problems.append(f"grid columns {columns}")
        return out
    if len(rows) != 4 * out.units:
        out.problems.append(f"grid has {len(rows)} rows for {out.units} cells")
    for cell, methods in by_cell.items():
        values = [v for m, pair in methods.items() for v in (pair if m != "mcmc" else pair[:1])]
        if any(math.isinf(v) for v in values):
            out.problems.append(f"cell {cell}: infinite value")
        if any(math.isnan(v) for v in values):
            out.failed += 1          # a recorded NaN: the cell failed
            continue
        if "mcmc" in methods and not math.isnan(methods["mcmc"][1]):
            out.problems.append(f"cell {cell}: mcmc has a predictive column")
        vi, ours = methods.get("vi"), methods.get("ours")
        if vi and ours and vi[1] != ours[1]:
            out.problems.append(f"cell {cell}: vi and ours lpd differ")
        out.lpd += [methods[m][1] for m in ("vi", "ep") if m in methods]
    if any(v > 0 for v in out.lpd):
        out.problems.append("positive log predictive density")
    return out


# -- train_cv ---------------------------------------------------------------

def cv_setup(work, seed, run, rows=None):
    gen.write_csv(work / "sonar.csv", *gen.draw("sonar", seed, rows))


def cv_argv(work, extra=()):
    return ["cv", "--data", str(work / "sonar.csv"),
            "--out", str(work / "cv.csv"), "--methods", "vi,ours",
            "--rounds", str(CV_ROUNDS), "--tol", "0", *CV_THETA0, "--jobs", "1", *extra]


def check_cv(work):
    body, columns, rows = read_csv(work / "cv.csv")
    summary_body, _, summary = read_csv(work / "cv.summary.csv")
    out = Outcome(units=len(rows), body=body + summary_body)
    if columns != ["dataset", "fold", "method", "accuracy", "lpd"]:
        out.problems.append(f"cv columns {columns}")
        return out
    for r in rows:
        acc, lpd = float(r[3]), float(r[4])
        if math.isnan(acc) or math.isnan(lpd):
            out.failed += 1
            continue
        if not 0.0 <= acc <= 1.0:
            out.problems.append(f"fold {r[1]} {r[2]}: accuracy {acc} outside [0, 1]")
        if not (math.isfinite(lpd) and lpd <= 0.0):
            out.problems.append(f"fold {r[1]} {r[2]}: lpd {lpd}")
        out.lpd.append(lpd)
    for r in summary:
        mean, sd, p = float(r[3]), float(r[4]), float(r[6])
        if not (math.isfinite(mean) and math.isfinite(sd) and 0.0 <= p <= 1.0):
            out.problems.append(f"summary row {r}: bad values")
    return out


# -- predict_batch ----------------------------------------------------------

def predict_setup(work, seed, run, rows=PREDICT_ROWS, train_rows=PREDICT_TRAIN_ROWS):
    gen.write_csv(work / "train.csv", *gen.draw("diabetes", seed, rows=train_rows))
    X, labels = gen.draw("diabetes", seed, rows=rows)
    gen.write_csv(work / "score.csv", X, labels)
    (work / "score_labels.txt").write_text("\n".join(labels) + "\n")
    code = run(["fit", "--data", str(work / "train.csv"), "--out", str(work / "model.txt"), *PREDICT_FIT])
    if code != 0:
        raise RuntimeError(f"fit for the predict model exited with {code}")


def predict_argv(work, extra=()):
    return ["predict", "--model", str(work / "model.txt"), "--data", str(work / "score.csv"),
            "--label", "last", "--out", str(work / "predictions.csv"), *extra]


def check_predict(work):
    body, columns, rows = read_csv(work / "predictions.csv")
    out = Outcome(units=1, body=body)
    labels = (work / "score_labels.txt").read_text().split()
    if columns != ["row", "p_positive", "label"]:
        out.problems.append(f"predict columns {columns}")
    elif len(rows) != len(labels):
        out.problems.append(f"predict has {len(rows)} rows, expected {len(labels)}")
    else:
        positive = gen.SHAPES["diabetes"][2][1]
        total = 0.0
        for i, (r, label) in enumerate(zip(rows, labels)):
            p = float(r[1])
            if not 0.0 <= p <= 1.0:
                out.problems.append(f"row {i}: probability {p} outside [0, 1]")
                break
            if int(r[0]) != i or r[2] != ("1" if p >= 0.5 else "-1"):
                out.problems.append(f"row {i}: index or label inconsistent with p")
                break
            q = p if label == positive else 1.0 - p
            total += math.log(q) if q > 0.0 else -math.inf
        out.lpd.append(total / len(rows))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    units: int        # units per invocation
    unit_hook: tuple  # (module, attribute) wrapped to time one unit (a grid
                      # cell, a CV fit), or None: the unit is the invocation
    setup: object     # (work, seed, run, **toy sizes) -> None; run is cli.run
    argv: object      # (work, extra flags) -> argv list
    check: object     # (work) -> Outcome


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "surface_grid", GRID_POINTS ** 2, ("harness", "_sweep_cell"),
            grid_setup, grid_argv, check_grid,
        ),
        Workload(
            "train_cv", 10, ("harness", "fit"),
            cv_setup, cv_argv, check_cv,
        ),
        Workload(
            "predict_batch", 1, None,
            predict_setup, predict_argv, check_predict,
        ),
    )
}
