"""Benchmark of probitgp's command line: surface sweeps, CV training, prediction.

Run from the repository root:

    python3 bench/run.py --workload surface_grid --seed 1 --seconds 30 --trace 0

--workload all runs every workload in turn, each in its own process.

The program is imported from ./src and driven in process through
probitgp.cli.run, one client, closed loop: invocations of the workload's
command follow one another until --seconds have passed, at least one.  BLAS
and OpenMP thread pools are pinned to 1 before numpy loads.

setup_s is the median time of SETUP_REPEATS fresh interpreters importing
probitgp.cli plus the median of SETUP_REPEATS in-process set-ups (inputs
written, the predict model fitted).

--trace 0 reports the end-to-end metrics (END_TO_END below).  --trace 1
spends half the time on untraced invocations, then repeats them under the
outside-in tracer in tracing.py, and reports its per-layer metrics plus
trace.overhead_s, the median over matched invocations of traced minus
untraced wall time.

Every invocation's outputs are checked before its units count, and after
the timed part the workload's toy case runs twice and is compared with the
recorded reference (reference.py).  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  A fuller record
(versions, thread settings, sample counts) goes to
.bench_work/<workload>-s<seed>-t<trace>/result.json and, as a table, to
standard error.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 3

# (name, unit): every metric a run with --trace 0 reports
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("unit_p50_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("heldout_nlpd", "nats/point"),
)


class MissingProgram(RuntimeError):
    pass


def load_program():
    """Import probitgp from this checkout's src directory, never from elsewhere."""
    if not (SRC / "probitgp" / "__init__.py").is_file():
        raise MissingProgram(f"no probitgp package under {SRC}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("probitgp")
    importlib.import_module("probitgp.cli")
    if Path(package.__file__).resolve().parent != SRC / "probitgp":
        raise MissingProgram(f"probitgp imported from {package.__file__}, not {SRC}")
    return package


def quiet(run):
    """cli.run with the program's own stdout lines sent to stderr."""
    def call(argv):
        with contextlib.redirect_stdout(sys.stderr):
            return run(argv)
    return call


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


@contextlib.contextmanager
def unit_timer(package, hook, durations):
    """Time each call of the workload's unit function; restores it on exit."""
    if hook is None:
        yield
        return
    module = importlib.import_module(f"{package.__name__}.{hook[0]}")
    original = getattr(module, hook[1])

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            durations.append(time.perf_counter() - start)

    setattr(module, hook[1], timed)
    try:
        yield
    finally:
        setattr(module, hook[1], original)


class Session:
    """One workload run: invocations, their checked outcomes and timings."""

    def __init__(self, package, workload, work):
        self.package = package
        self.workload = workload
        self.work = work
        self.walls, self.cpus, self.units = [], [], []
        self.outcomes = []
        self.bodies = {}      # argv -> output body of its first invocation
        self.problems = []

    def invoke(self, i):
        """Run invocation i, time it, check its outputs; returns its wall time."""
        import workloads

        argv = self.workload.argv(self.work)
        run = quiet(self.package.cli.run)  # looked up now, so a tracer's wrapper is used
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        with unit_timer(self.package, self.workload.unit_hook, self.units):
            try:
                code = run(argv)
            except Exception:
                traceback.print_exc()
                code = None
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu0
        if self.workload.unit_hook is None:
            self.units.append(wall)
        outcome = None
        if code == 0:
            try:
                outcome = self.workload.check(self.work)
            except (OSError, ValueError, IndexError) as exc:
                self.problems.append(f"invocation {i}: unreadable output: {exc}")
        else:
            self.problems.append(f"invocation {i}: exit code {code}")
        if outcome is None:
            outcome = workloads.Outcome(units=self.workload.units, failed=self.workload.units)
        else:
            if outcome.units != self.workload.units:
                outcome.problems.append(f"{outcome.units} units, expected {self.workload.units}")
            first = self.bodies.setdefault(tuple(argv), outcome.body)
            if first != outcome.body:
                outcome.problems.append("same command, same inputs, different output")
        if outcome.problems:
            outcome.failed = outcome.units
        self.problems += [f"invocation {i}: {p}" for p in outcome.problems]
        self.outcomes.append(outcome)
        self.walls.append(wall)
        self.cpus.append(cpu)
        return wall

    def loop(self, seconds):
        """Invoke 0, 1, ... until the next would end after `seconds`; returns the count."""
        start = time.perf_counter()
        i = 0
        while True:
            wall = self.invoke(i)
            i += 1
            if time.perf_counter() - start + wall > seconds:
                return i


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest():
    """sha256 over src/probitgp/*.py, so runs of identical code are recognizable."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "probitgp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_record(args):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {
            k: v for k, v in sorted(os.environ.items())
            if k.endswith("_NUM_THREADS") or k in ("OMP_PROC_BIND", "OPENBLAS_CORETYPE")
        },
        "platform": platform.platform(),
    }


def end_to_end(session, setup_s, samples):
    """END_TO_END metrics; fills samples with each one's sample count."""
    outcomes = session.outcomes
    units = sum(o.units for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    lpd = outcomes[0].lpd  # every invocation has the same inputs and, checked, outputs

    def median(xs):
        return statistics.median(xs) if xs else float("nan")

    values = {
        "setup_s": (setup_s, SETUP_REPEATS),
        "wall_s": (median(session.walls), len(session.walls)),
        "unit_p50_s": (median(session.units), len(session.units)),
        "cpu_s": (median(session.cpus), len(session.cpus)),
        "peak_rss_mb": (peak_rss_mb(), 1),
        "ok_frac": ((units - failed) / units, units),
        "heldout_nlpd": (-statistics.fmean(lpd) if lpd else float("nan"), len(lpd)),
    }
    metrics = {}
    for name, unit in END_TO_END:
        value, n = values[name]
        metrics[name] = {"value": value, "unit": unit}
        samples[name] = n
    return metrics


def print_table(record, result, details):
    err = sys.stderr
    samples = details["samples"]
    print(f"\n{record['workload']} seed={record['seed']} trace={record['trace']} "
          f"python={record['python']} numpy={record['numpy']} scipy={record['scipy']} "
          f"blas={record['blas']} nproc={record['nproc']} commit={record['git_commit']}", file=err)
    for name, m in result["metrics"].items():
        n = samples.get(name)
        line = f"  {name:40s} {m['value']:>14.6g} {m['unit']:<12s}"
        if n is not None:
            line += f" n={n}"
        print(line, file=err)
    if "heldout_nlpd" in result["metrics"]:
        lpd = -result["metrics"]["heldout_nlpd"]["value"]
        print(f"  {'heldout_lpd':40s} {lpd:>14.6g} nats/point", file=err)
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_frac':40s} {failed / attempted:>14.6g} ratio        "
          f"n={attempted}; correct={result['correct']}", file=err)


def import_times():
    """Wall times of SETUP_REPEATS fresh interpreters that import probitgp.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import probitgp.cli"],
                       env=env, cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def measure(package, workload, seed, seconds, trace, work):
    """Set up, run and check one workload; returns (result, details).

    result is the JSON object the run prints last; details holds what
    result.json keeps beside it.
    """
    import reference
    import tracing

    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    run = quiet(package.cli.run)

    imports = import_times()
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup(work, seed, run)
        setups.append(time.perf_counter() - start)
    setup_s = statistics.median(imports) + statistics.median(setups)

    session = Session(package, workload, work)
    samples = {}
    if trace:
        untraced = session.loop(seconds / 2)
        with tracing.Tracer().install(package) as tracer:
            traced = session.loop(seconds / 2)  # the same invocations again
        plain, spanned = session.walls[:untraced], session.walls[untraced:]
        overhead = statistics.median(t - u for t, u in zip(spanned, plain))
        metrics = tracer.layer_metrics(traced, overhead)
        tracer.write_spans(work / "spans.csv")
        samples["spans"] = tracer.span_count
    else:
        session.loop(seconds)
        metrics = end_to_end(session, setup_s, samples)

    problems = session.problems + reference.check(workload.name, work / "toy", run)
    failed = sum(o.failed for o in session.outcomes)
    result = {
        "correct": not problems and failed == 0,
        "attempted": sum(o.units for o in session.outcomes),
        "failed": failed,
        "metrics": metrics,
    }
    details = {
        "samples": samples, "problems": problems, "import_repeats_s": imports, "setup_repeats_s": setups, "walls_s": session.walls, "units_s": session.units,
    }
    return result, details


def run_all(args, names):
    """--workload all: every workload in turn, each in its own process.

    Their tables go to standard error as they finish; the last line combines
    their results, with metric names prefixed by the workload's.
    """
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        package = load_program()
    except (MissingProgram, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = WORK_ROOT / f"{args.workload}-s{args.seed}-t{args.trace}"
    result, details = measure(
        package, workloads.WORKLOADS[args.workload], args.seed, args.seconds, args.trace, work,
    )
    record = run_record(args)
    (work / "result.json").write_text(
        json.dumps({"record": record, **details, **result}, indent=1) + "\n"
    )
    for problem in details["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print_table(record, result, details)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
