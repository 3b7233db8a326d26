"""Measure the run-to-run spread of every metric and record it in baseline.json.

    python3 bench/baseline.py

Runs bench/run.py for BENCHMARK.json's run_seconds once per seed in SEEDS and
workload with --trace 0, each in its own process, then once per workload
with --trace 1 on the first seed.  For each end-to-end metric it records the
median, the quartiles (as statistics.quantiles(values, n=4) gives them) and
the spread, the distance between the quartiles as a share of the median.
BENCHMARK.json's bounds on time and memory were set from these spreads.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = list(range(1, 11))


def run_once(workload, seed, seconds, trace):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1]), elapsed


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0, "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    out = {"seeds": SEEDS, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs, elapsed = [], []
        for seed in SEEDS:
            result, took = run_once(workload, seed, seconds, 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: output check failed")
            runs.append(result)
            elapsed.append(took)
            print(workload, seed, f"{took:.1f}s",
                  {k: round(m["value"], 4) for k, m in result["metrics"].items()}, flush=True)
        traced, traced_took = run_once(workload, SEEDS[0], seconds, 1)
        end_to_end = {
            m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs])
            for m in spec["end_to_end"]
        }
        for name, s in end_to_end.items():
            print(f"  {name:14s} median {s['median']:.5g} spread {s['spread']:.4f}", flush=True)
        out["workloads"][workload] = {
            "end_to_end": end_to_end,
            "run_elapsed_s": elapsed,
            "traced_run_elapsed_s": traced_took,
            "per_layer_seed": SEEDS[0],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    last = ROOT / ".bench_work" / f"{workload}-s{SEEDS[0]}-t1" / "result.json"
    out["record"] = json.loads(last.read_text())["record"]
    with open(BENCH_DIR / "baseline.json", "w") as handle:
        json.dump(out, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
