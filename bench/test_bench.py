"""Smoke self-test of the benchmark at toy size; no timing gates.

    python3 -m pytest -q bench

Checks BENCHMARK.json against the names the benchmark reports, the shape of
the result line for traced and untraced runs, that the output checks fire
on corrupted outputs, and that the benchmark refuses to run without the
program's sources.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402

PACKAGE = bench.load_program()

import gen  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TOY_UNITS = {"surface_grid": 4, "train_cv": 10, "predict_batch": 1}


def toy(name):
    """The workload shrunk to its reference toy case."""
    sizes, extra, _, _ = reference.TOYS[name]
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(
        w,
        units=TOY_UNITS[name],
        setup=lambda work, seed, run: w.setup(work, seed, run, **sizes),
        argv=lambda work, _extra=(): w.argv(work, extra),
    )


def test_spec_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert SPEC["command"][1] == "bench/run.py"
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_spec_matches_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)


def test_shapes_and_overlap():
    for shape, (n, d, labels, n_pos) in gen.SHAPES.items():
        X, y = gen.draw(shape, 3)
        assert X.shape == (n, d)
        assert sorted(set(y)) == sorted(labels) and (y == labels[1]).sum() == n_pos
        X2, y2 = gen.draw(shape, 3)
        assert (X == X2).all() and (y == y2).all()
        X4, y4 = gen.draw(shape, 4)  # another seed: the same rows, columns reordered
        assert (X4 != X).any() and (np.sort(X4, axis=1) == np.sort(X, axis=1)).all()
        assert (y4 == y).all()


def _check_result(result, names):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == names
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"} and isinstance(m["value"], float)
    json.dumps(result)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_toy_runs(name):
    work = bench.WORK_ROOT / "selftest" / name
    result, _ = bench.measure(PACKAGE, toy(name), 0, 0.01, 0, work)
    _check_result(result, [m["name"] for m in SPEC["end_to_end"]])
    assert 0 < result["metrics"]["heldout_nlpd"]["value"] < 0.7
    namespaces = [PACKAGE] + [getattr(PACKAGE, layer) for layer in tracing.LAYERS]
    bindings = [dict(vars(ns)) for ns in namespaces]
    result, details = bench.measure(PACKAGE, toy(name), 0, 0.01, 1, work)
    # the tracer put every binding back
    for ns, before in zip(namespaces, bindings):
        assert all(vars(ns)[k] is v for k, v in before.items())
    _check_result(result, [m["name"] for m in SPEC["per_layer"]])
    assert details["samples"]["spans"] > 0 and (work / "spans.csv").is_file()
    values = {k: m["value"] for k, m in result["metrics"].items()}
    if name != "surface_grid":
        assert all(v == 0 for k, v in values.items() if k.startswith(("ais.", "ep.")))
    else:
        assert values["ais.ess_step.calls"] > 0 and values["ep.ep_inference.calls"] > 0
    if name == "predict_batch":
        assert values["trainer.objective_value.calls"] == 0


def _rewrite(path, fn):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:2] + [",".join(fn(r.split(","))) for r in lines[2:]]) + "\n")


@pytest.mark.parametrize("name, corrupt", [
    ("surface_grid", lambda r: r[:4] + ["-0.5"] if r[2] == "vi" else r),     # vi lpd != ours lpd
    ("surface_grid", lambda r: r[:3] + ["inf"] + r[4:]),                      # infinite value
    ("train_cv", lambda r: r[:3] + ["1.5"] + r[4:]),                          # accuracy > 1
    ("predict_batch", lambda r: [r[0], "1.25", r[2]]),                        # probability > 1
    ("predict_batch", lambda r: [r[0], r[1], "-1" if r[2] == "1" else "1"]),  # label flipped
])
def test_output_check_fires(name, corrupt):
    work = bench.WORK_ROOT / "selftest" / f"corrupt-{name}"
    tables, problems = reference.run_toy(name, work, bench.quiet(PACKAGE.cli.run))
    assert problems == []
    w = workloads.WORKLOADS[name]
    assert w.check(work).problems == []
    out = {"surface_grid": "surface.csv", "train_cv": "cv.csv", "predict_batch": "predictions.csv"}
    _rewrite(work / out[name], corrupt)
    assert w.check(work).problems


def test_recorded_nan_counts_as_failed_cell():
    work = bench.WORK_ROOT / "selftest" / "nan-cell"
    reference.run_toy("surface_grid", work, bench.quiet(PACKAGE.cli.run))
    _rewrite(work / "surface.csv", lambda r: r[:3] + ["nan"] + r[4:] if r[:2] == ["-1", "-1"] else r)
    outcome = workloads.check_grid(work)
    assert outcome.failed == 1 and outcome.problems == []


def test_reference_compare_fires():
    ref = json.loads(reference.REFERENCE_FILE.read_text())
    tables = json.loads(json.dumps(ref["train_cv"]["outputs"]))
    assert reference.compare("train_cv", tables, ref) == []
    row = tables["cv.csv"][1]
    row[4] = repr(float(row[4]) * (1 + 1e-3))
    assert reference.compare("train_cv", tables, ref)


def test_refuses_without_program():
    bare = bench.WORK_ROOT / "selftest" / "bare"
    if bare.exists():
        shutil.rmtree(bare)
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train_cv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
