"""The command line as a process: its BLAS threads and what it imports.

cli.run sets the OpenBLAS pools that numpy and scipy bundle to one thread
before any work, so its outputs do not depend on OPENBLAS_NUM_THREADS: a
toy fit, predict and grid, each run in a fresh interpreter with the variable
unset and set to 2, write the bytes of the run pinned to 1.  (Without the
pinning, this toy's model, predictions and grid all differ at 2 threads on
a 2-vCPU machine.)  The library API leaves the caller's setting alone: a
fit through it keeps the thread count it found.

The same processes report what they imported: no module under src/ needs
scipy.spatial, so neither importing probitgp.cli nor running a grid and a
predict loads it.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import probitgp

SRC = Path(probitgp.__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
ENVIRONMENTS = {"pinned": "1", "unset": None, "two": "2"}
OUTPUTS = ("model.txt", "model.txt.trace.csv", "pred.csv", "grid.csv")

# run from a directory beside train.csv and score.csv; prints one JSON report
SCRIPT = textwrap.dedent("""
    import ctypes, json, sys
    from pathlib import Path

    import numpy, scipy

    import probitgp.cli as cli
    from probitgp import Dataset, TrainConfig, fit

    def threads():
        return [getattr(ctypes.CDLL(str(next(
                    (Path(p.__file__).parents[1] / (p.__name__ + ".libs")).glob(
                        "libscipy_openblas*.so")))), symbol)()
                for p, symbol in ((numpy, "scipy_openblas_get_num_threads64_"),
                                  (scipy, "scipy_openblas_get_num_threads"))]

    report = {"spatial_after_import": "scipy.spatial" in sys.modules, "at_start": threads()}
    X = numpy.random.default_rng(0).standard_normal((30, 2))
    fit(Dataset("lib", X, numpy.where(X[:, 0] > 0, 1.0, -1.0)),
        TrainConfig(outer_rounds=1, m_iters=1, e_iters=5))
    report["after_library_fit"] = threads()
    for argv in (
        ["fit", "--data", "../train.csv", "--out", "model.txt",
         "--rounds", "1", "--m-iters", "2", "--e-iters", "10"],
        ["predict", "--model", "model.txt", "--data", "../score.csv", "--out", "pred.csv"],
        ["grid", "--data", "../train.csv", "--out", "grid.csv", "--points", "2",
         "--ais-T", "50", "--ais-repeats", "1", "--e-iters", "20", "--jobs", "1"],
    ):
        assert cli.run(argv) == 0, argv
    report["after_run"] = threads()
    report["spatial_after_commands"] = "scipy.spatial" in sys.modules
    print(json.dumps(report))
""")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """{environment: (report, {output: bytes})} for the toy in each environment."""
    root = tmp_path_factory.mktemp("threads")
    rng = np.random.default_rng(0)
    X = rng.standard_normal((200, 5))
    y = np.where(X[:, 0] + 0.5 * rng.standard_normal(200) > 0, 1, 0)
    (root / "train.csv").write_text(
        "".join(",".join(map(repr, row)) + f",{label}\n" for row, label in zip(X.tolist(), y)))
    (root / "score.csv").write_text(
        "".join(",".join(map(repr, row)) + "\n" for row in (1.5 * rng.standard_normal((2000, 5))).tolist()))
    results = {}
    for name, value in ENVIRONMENTS.items():
        env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        if value is not None:
            env["OPENBLAS_NUM_THREADS"] = value
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
        cwd = root / name
        cwd.mkdir()
        done = subprocess.run([sys.executable, "-c", SCRIPT], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.splitlines()[-1])
        results[name] = report, {out: (cwd / out).read_bytes() for out in OUTPUTS}
    return results


@pytest.mark.parametrize("name", ("unset", "two"))
def test_outputs_do_not_depend_on_the_blas_thread_environment(runs, name):
    pinned = runs["pinned"][1]
    for out, body in runs[name][1].items():
        assert body == pinned[out], out


@pytest.mark.parametrize("name", ENVIRONMENTS)
def test_run_sets_one_blas_thread_and_the_library_does_not(runs, name):
    report = runs[name][0]
    if ENVIRONMENTS[name] is not None:
        assert report["at_start"] == [int(ENVIRONMENTS[name])] * 2
    assert report["after_library_fit"] == report["at_start"]
    assert report["after_run"] == [1, 1]


def test_no_scipy_spatial_in_the_process(runs):
    for report, _ in runs.values():
        assert not report["spatial_after_import"]
        assert not report["spatial_after_commands"]
