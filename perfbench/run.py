"""Outside-in benchmark of the selfmaps command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan|group|battery --seed N --seconds S --trace 0|1

One run generates the seeded inputs of one workload (workloads.py),
times the import of selfmaps.cli in fresh interpreters (setup_s), then
starts worker.py in a fresh interpreter, which runs the workload's round
of ops in a closed loop (one client, no extra threads) for S seconds.
Afterwards every op's output is checked (check.py), the checker is fed
deliberately corrupted outputs, and the metrics are printed: a readable
summary, then one JSON line.  With --trace 0 the JSON carries the
end-to-end metrics; with --trace 1 rounds alternate untraced and traced
and it carries the per-layer metrics of tracer.py.

The host is shared, and its speed drifts by up to half between
back-to-back runs of the same op.  So the worker samples the host's
speed all run long with a fixed slice of work (worker.SpeedProbe), and
each op time is also divided by the probe times around it; those "ref"
quotients are what the JSON reports.  Each op counts at the median of
its repetitions in the run; percentiles are taken over the ops of a
round.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import worker
import workloads
from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 9
# Lower quartile of worker.probe_once in a warm loop on the host the
# baseline ran on; setup_s is reported at this probe speed so that the
# host's drift between runs cancels.
NOMINAL_PROBE_S = 0.0007
WORKER_TIMEOUT_S = 150
# Speed probes this close to an op also describe it; at one probe per
# 0.1 s this gives a millisecond op about five of them.
PROBE_WINDOW_S = 0.25
PROBE_MIN = 4
# Names the summary lines give the generic end-to-end metrics on each workload.
SUMMARY_NAMES = {
    "scan": {"work_per": "primes_per_s", "anchor_op": "anchor_scan_s", "op": "scan"},
    "group": {"work_per": "table_entries_per_s", "anchor_op": "semidirect97_s", "op": "group_job"},
    "battery": {"work_per": "classify_per_s", "anchor_op": "verify_paper_s", "op": "classify"},
}


def measure_setup(env) -> tuple[float, float]:
    """Median over fresh interpreters importing selfmaps.cli, in seconds
    and in seconds at the nominal host speed: each import divided by the
    lower quartile of ten speed probes taken around it, times
    NOMINAL_PROBE_S."""
    cmd = [sys.executable, "-c", "import selfmaps.cli"]
    subprocess.run(cmd, env=env, check=True)  # writes the bytecode cache, untimed
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        before = [worker.probe_once() for _ in range(5)]
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        took = time.perf_counter() - start
        after = [worker.probe_once() for _ in range(5)]
        raw.append(took)
        scaled.append(took / statistics.quantiles(before + after, n=4)[0] * NOMINAL_PROBE_S)
    return statistics.median(raw), statistics.median(scaled)


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def op_medians(result, traced):
    """Per op, the median over its repetitions of its seconds and of its
    seconds divided by the speed probes around it ("ref" units).

    The probes taken during an op and within PROBE_WINDOW_S of it, at
    least PROBE_MIN of them, describe how fast the host ran it; their
    lower quartile is the probe time with little interference."""
    probes = result["probes"]
    when = [t for t, _ in probes]
    raw, norm = {}, {}
    for op_id, _round, was_traced, seconds, _code, _sha, start, end in result["samples"]:
        if was_traced != traced:
            continue
        first = bisect.bisect_left(when, start - PROBE_WINDOW_S)
        last = bisect.bisect_right(when, end + PROBE_WINDOW_S)
        while last - first < PROBE_MIN and (first > 0 or last < len(probes)):
            first, last = max(first - 1, 0), min(last + 1, len(probes))
        reference = statistics.quantiles([s for _, s in probes[first:last]], n=4)[0]
        raw.setdefault(op_id, []).append(seconds)
        norm.setdefault(op_id, []).append(seconds / reference)
    return ({k: statistics.median(v) for k, v in raw.items()}, {k: statistics.median(v) for k, v in norm.items()})


def summarize(ops, times):
    """Round wall time, work rate, anchor op and percentiles over the other ops."""
    working = [op for op in ops if op["work"]]
    others = sorted(times[op["id"]] for op in ops if not op["anchor"])
    return {
        "wall": sum(times.values()),
        "work_per": sum(op["work"] for op in working) / sum(times[op["id"]] for op in working),
        "anchor_op": next(times[op["id"]] for op in ops if op["anchor"]),
        "op_p50": percentile(others, 50),
        "op_p90": percentile(others, 90),
    }


def evaluate(ops, result, out_dir):
    """Check every op's first output and compare repetitions by digest.

    Returns the parsed outputs, the problems of each failed op, and each
    op's digest."""
    by_op = {}
    for op_id, _round, _traced, _seconds, code, sha, _start, _end in result["samples"]:
        by_op.setdefault(op_id, []).append((code, sha))
    outputs, failed_ops, digests = {}, {}, {}
    for op in ops:
        runs = by_op[op["id"]]
        digests[op["id"]] = runs[0][1]
        problems = []
        if any(code != 0 for code, _ in runs):
            problems.append(f"exit codes {sorted({code for code, _ in runs})}")
        if len({sha for _, sha in runs}) != 1:
            problems.append("output differs between repetitions")
        try:
            outputs[op["id"]] = json.loads((out_dir / f"{op['id']}.out").read_text())
        except ValueError:
            problems.append("output is not JSON")
        else:
            problems += check.check(op, outputs[op["id"]])
        if problems:
            failed_ops[op["id"]] = problems
    return outputs, failed_ops, digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "selfmaps" / "cli.py").is_file():
        print(f"error: no selfmaps sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    out_dir = work / "out"
    out_dir.mkdir(parents=True)
    ops = workloads.generate(args.workload, args.seed, work / "inputs")
    (work / "ops.json").write_text(json.dumps(ops))

    env = dict(os.environ, PYTHONPATH=str(src), **{var: "1" for var in THREAD_VARS})
    setup_raw_s, setup_s = measure_setup(env)
    cmd = [sys.executable, str(HERE / "worker.py"), str(work / "ops.json"), str(out_dir), str(args.seconds), str(args.trace)]
    try:
        subprocess.run(cmd, env=env, check=True, timeout=WORKER_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1
    result = json.loads((out_dir / "result.json").read_text())

    outputs, failed_ops, digests = evaluate(ops, result, out_dir)
    if len(outputs) == len(ops):
        faults = check.self_test(args.workload, ops, outputs)
    else:
        faults = [("self-test on unparsable outputs", False)]
    (work / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True))
    shutil.rmtree(work / "inputs")
    for output in out_dir.glob("*.out"):
        output.unlink()

    samples = result["samples"]
    attempted = len(samples)
    failed = sum(1 for s in samples if s[0] in failed_ops)
    raw, norm = op_medians(result, traced=False)
    plain, scaled = summarize(ops, raw), summarize(ops, norm)
    metrics = {
        "wall_ref": (scaled["wall"], "ref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "work_per_ref": (scaled["work_per"], "1/ref"),
        "anchor_op_ref": (scaled["anchor_op"], "ref"),
    }

    names = SUMMARY_NAMES[args.workload]
    reference_ms = statistics.fmean(s for _, s in result["probes"]) * 1000
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops a round, {result['rounds']} rounds in "
          f"{args.seconds:g} s, trace {args.trace}; speed probe mean {reference_ms:.4f} ms")
    print(f"environment: Python {result['python']}, numpy {result['numpy']}, nproc {os.cpu_count()}, "
          f"machine {platform.machine()}, {', '.join(f'{v}=1' for v in THREAD_VARS)}")
    if args.workload == "scan":
        print(f"scan bound: {workloads.SCAN_BOUND}")
    n_others = sum(not op["anchor"] for op in ops)
    print(f"  wall_s = {plain['wall']:.6g} s  (wall_ref = {scaled['wall']:.6g} ref)")
    print(f"  setup_s = {setup_s:.6g} s at the nominal probe speed  ({setup_raw_s:.6g} s as timed)")
    print(f"  peak_rss_mb = {result['peak_rss_mb']:.6g} MB")
    print(f"  failed_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    print(f"  {names['work_per']} = {plain['work_per']:.6g} 1/s  (work_per_ref = {scaled['work_per']:.6g} 1/ref)")
    print(f"  {names['anchor_op']} = {plain['anchor_op']:.6g} s  (anchor_op_ref = {scaled['anchor_op']:.6g} ref)")
    for q in ("p50", "p90"):
        print(f"  {names['op']}_{q}_ms = {plain['op_' + q] * 1000:.6g} ms  ({scaled['op_' + q]:.6g} ref, "
              f"{n_others} {names['op']} ops)")
    for op_id, problems in failed_ops.items():
        print(f"  FAILED {op_id}: {'; '.join(problems[:3])}")
    for op_id, err in result["errors"].items():
        print(f"  stderr of {op_id}: {err.strip()[:300]}")
    for fault, caught in faults:
        print(f"  checker self-test, {fault}: {'caught' if caught else 'MISSED'}")
    print(f"  output digests (sha256 of each payload minus timing_ms): {work / 'digests.json'}")

    if args.trace:
        layers = result["layers"]
        units = {name: unit for name, unit, _better in PER_LAYER}
        metrics = {name: (statistics.median_low(r[name] for r in layers), units[name]) for name in layers[0]}
        metrics["trace_overhead"] = (sum(op_medians(result, traced=True)[1].values()) / scaled["wall"], "ratio")
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
    correct = not failed_ops and all(caught for _fault, caught in faults)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
