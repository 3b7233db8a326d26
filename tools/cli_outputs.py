"""Write the outputs of a fixed set of probitgp commands, for a byte-for-byte diff.

Run from a repository root, with the tree under test on PYTHONPATH:

    PYTHONPATH=src python3 tools/cli_outputs.py OUTDIR

The commands run in process through probitgp.cli.run, inside OUTDIR, on the
benchmark's synthetic stand-ins (bench/gen.py, seed 1):

- the benchmark's grid, cv and predict set-up fit (bench/workloads.py);
- predict over the benchmark's 20 000 rows with that model;
- fit at its defaults for 5 rounds, once per objective;
- ais at its defaults, with --out;
- --help of the program and of every subcommand;
- the benchmark's toy-size grid and cv (bench/reference.py), in OUTDIR/toy,
  at --jobs 1 and then --jobs 2, whose output bodies must be byte-identical.

Every output file lands in OUTDIR, and NAME.stdout holds the standard output
of command NAME.  Paths are relative to OUTDIR, so the resolved-command
headers of two OUTDIRs agree.  probitgp comes from PYTHONPATH, so one copy of
this script serves two trees: run it once per tree's src and compare the two
OUTDIRs with `diff -r`.  When a change drops a flag, every header drops it
too; compare with

    diff -r -I '^# probitgp ' A B

which ignores the header lines.  Then only the help_*.stdout files should
differ, and the model files if the flag also had a model-file key.  A
change that moves only rounding is measured with tools/cli_diff.py A B,
which prints the largest numeric move per differing file.  The
script exits 1 if any command exits non-zero, or if a toy command's bodies
(its CSVs without their header line) differ between --jobs 1 and --jobs 2;
OUTDIR/toy keeps the --jobs 2 outputs.
Nothing under bench/ is written to.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads, as the benchmark pins them
os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width

import contextlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import reference  # noqa: E402
import workloads  # noqa: E402  (imports gen, which draws the inputs)
from probitgp.cli import _SPECS, run  # noqa: E402
from probitgp.trainer import OBJECTIVES  # noqa: E402

SEED = 1
FIT_ROUNDS = "5"


def main(argv):
    if len(argv) != 1:
        print("usage: cli_outputs.py OUTDIR", file=sys.stderr)
        return 1
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    work = Path(".")
    failures = []

    def call(name, args):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = run(args)
        Path(f"{name}.stdout").write_text(stdout.getvalue())
        if code != 0:
            failures.append(f"{name}: exit {code}")
        return code

    workloads.grid_setup(work, SEED, run)
    call("grid", workloads.grid_argv(work))
    call("cv", workloads.cv_argv(work))
    workloads.predict_setup(work, SEED, lambda args: call("predict_fit", args))
    call("predict", workloads.predict_argv(work))
    for objective in OBJECTIVES:
        call(f"fit_{objective}", ["fit", "--data", "sonar.csv", "--out", f"fit_{objective}.model",
                                  "--objective", objective, "--rounds", FIT_ROUNDS])
    call("ais", ["ais", "--data", "sonar.csv", "--out", "ais.csv"])
    toy = Path("toy")
    toy.mkdir(exist_ok=True)
    for name, command in (("surface_grid", "grid"), ("train_cv", "cv")):
        sizes, extra, outputs, _ = reference.TOYS[name]
        workload = workloads.WORKLOADS[name]
        workload.setup(toy, reference.TOY_SEED, run, **sizes)
        bodies = []
        for jobs in ("1", "2"):
            call(f"toy_{command}_jobs{jobs}", workload.argv(toy, (*extra, "--jobs", jobs)))
            bodies.append([workloads.read_csv(toy / f)[0] for f in outputs])
        if bodies[0] != bodies[1]:
            failures.append(f"toy {command}: --jobs 2 wrote other bodies than --jobs 1")
    call("help", ["--help"])
    for command in _SPECS:
        call(f"help_{command}", [command, "--help"])
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
