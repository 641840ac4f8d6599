"""Run every workload on several seeds and record medians and spreads.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py [--seeds 1-10] [--seconds 35] [--out perfbench/baseline.json]

For each workload it runs run.py once per seed with --trace 0, then once
with --trace 1 on the first seed, and writes the medians, quartiles and
spread (interquartile range over median) of every metric, with the
environment the runs saw.  Compare two commits by running this on each.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["run_s"] = time.perf_counter() - start
    return result


def spread_of(values) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            return next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor() or platform.machine()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()
    import numpy

    seeds = seed_list(args.seeds)
    report = {
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "threads": "OMP/OPENBLAS/MKL/NUMEXPR_NUM_THREADS=1",
        },
        "seconds": args.seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in workloads.GENERATORS:
        runs = []
        for seed in seeds:
            runs.append(run(workload, seed, args.seconds, 0))
            values = {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()}
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']} {values}", flush=True)
        traced = run(workload, seeds[0], args.seconds, 1)
        metrics = {name: spread_of([r["metrics"][name]["value"] for r in runs]) for name in runs[0]["metrics"]}
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "run_s_max": max(r["run_s"] for r in runs + [traced]),
            "end_to_end": metrics,
            "per_layer": {name: v["value"] for name, v in traced["metrics"].items()},
        }
        for name, m in metrics.items():
            print(f"  {name}: median {m['median']:.6g}, spread {m['spread']:.4f}")
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
