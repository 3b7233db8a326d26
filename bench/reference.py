"""Toy-size reference outputs, recorded once and compared on every run.

Each workload has a toy case: the same command on small fixed inputs (seed
TOY_SEED, whatever the run's seed) with smaller budgets.  A run executes its
toy case twice after the timed part; the two output bodies must be byte
identical, and the first must match reference.json within the workload's
tolerances, which reference.json states beside the recorded rows.

Record the references again, only when a change to the program is meant to
move its numbers, with:

    python3 bench/reference.py
"""

import json
import math
import shutil
from pathlib import Path

import workloads

TOY_SEED = 0
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# workload: (setup sizes, extra flags, output files, tolerances)
TOYS = {
    "surface_grid": (
        {"rows": 30},
        ("--points", "2", "--e-iters", "10", "--ais-T", "40", "--ais-repeats", "2"),
        ("surface.csv",),
        {"rtol": 1e-6, "atol": 1e-9},
    ),
    "train_cv": (
        {"rows": 30},
        ("--m-iters", "2", "--e-iters", "5"),
        ("cv.csv", "cv.summary.csv"),
        {"rtol": 1e-4, "atol": 1e-6},
    ),
    "predict_batch": (
        {"rows": 100, "train_rows": 40},
        (),
        ("predictions.csv",),
        {"rtol": 1e-6, "atol": 1e-9},
    ),
}


def run_toy(name, work, run):
    """Set up and run the toy case twice; returns (tables, problems).

    tables maps each output file to its rows (header first) from the first
    invocation.
    """
    sizes, extra, outputs, _ = TOYS[name]
    workload = workloads.WORKLOADS[name]
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    workload.setup(work, TOY_SEED, run, **sizes)
    argv = workload.argv(work, extra)
    bodies, problems = [], []
    for _ in range(2):
        code = run(argv)
        if code != 0:
            return {}, [f"toy {name} exited with {code}"]
        problems += workload.check(work).problems
        bodies.append({f: workloads.read_csv(work / f)[0] for f in outputs})
    if bodies[0] != bodies[1]:
        problems.append(f"toy {name}: two runs of one command wrote different outputs")
    tables = {f: [line.split(",") for line in body.decode().splitlines()]
              for f, body in bodies[0].items()}
    return tables, problems


def _close(got, want, tol):
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    if math.isnan(g) or math.isnan(w):
        return math.isnan(g) and math.isnan(w)
    return abs(g - w) <= tol["atol"] + tol["rtol"] * abs(w)


def compare(name, tables, reference):
    """Problems where tables differ from the recorded reference beyond tolerance."""
    tol = reference[name]["tolerance"]
    problems = []
    for f, want_rows in reference[name]["outputs"].items():
        got_rows = tables.get(f, [])
        if len(got_rows) != len(want_rows):
            problems.append(f"toy {name} {f}: {len(got_rows)} lines, reference has {len(want_rows)}")
            continue
        for i, (got, want) in enumerate(zip(got_rows, want_rows)):
            if len(got) != len(want) or not all(_close(g, w, tol) for g, w in zip(got, want)):
                problems.append(f"toy {name} {f} line {i}: {got} vs reference {want}")
                break
    return problems


def check(name, work, run):
    """Run the toy case and compare it with reference.json; returns problems."""
    tables, problems = run_toy(name, work, run)
    if tables:
        reference = json.loads(REFERENCE_FILE.read_text())
        problems += compare(name, tables, reference)
    return problems


def record(work_root, run):
    reference = {}
    for name, (_, _, _, tol) in TOYS.items():
        tables, problems = run_toy(name, work_root / name, run)
        if problems:
            raise SystemExit("\n".join(problems))
        reference[name] = {"tolerance": tol, "outputs": tables}
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    import run as bench
    record(bench.WORK_ROOT / "reference", bench.load_program().cli.run)
