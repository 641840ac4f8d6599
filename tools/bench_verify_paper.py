"""Time `selfmaps verify-paper --json` end to end and claim by claim.

Usage:
    python3 tools/bench_verify_paper.py --label NAME [--checkout DIR] [--out FILE]

End to end: runs `python -m selfmaps.cli verify-paper --json` against
DIR/src in RUNS (5) fresh interpreters, one after another, and records the
median wall time (time.perf_counter around each subprocess) and the
peak RSS of the largest of them (ru_maxrss of each child, from
os.wait4).  Every run must exit 0 and print the same payload once its
timing_ms line is removed; the sha256 of that payload is stored, so two
checkouts can be shown to print the same report.  tools/bench_scan.py
reuses cli_runs for `scan`.

Claim by claim: imports selfmaps from DIR/src into this process, wraps
each `_check_*` function of the claims module with a timer and calls
run_claims RUNS times; each claim's seconds are the median over the calls.
The first call also pays the one-time set-up (caches and sieves).

The result goes under runs[NAME] in FILE (default BENCH_verify_paper.json
at the repository root), so measurements of several checkouts, such as a
commit and its parent, sit side by side.  Measure only with nothing else
heavy running: the numbers are wall times on a shared host.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
RUNS = 5
_TIMING_LINE = re.compile(r'^  "timing_ms": [^\n]*\n', re.MULTILINE)


def _describe(checkout: Path) -> str | None:
    proc = subprocess.run(
        ["git", "-C", str(checkout), "describe", "--always", "--dirty"],
        capture_output=True,
        text=True,
    )
    return proc.stdout.strip() or None


def _run_child(argv: list[str], env: dict) -> tuple[int, str, str, int]:
    """Exit code, stdout, stderr and peak RSS in kB of one child process.

    os.wait4 gives this child's own ru_maxrss; RUSAGE_CHILDREN would hold
    the largest of every child waited for so far, earlier cases included.
    Linux carries the peak across fork and exec, so the figure is never
    below this process's own peak RSS: keep the runner smaller than what
    it measures.
    """
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss


def cli_runs(src: Path, argv: list[str]) -> dict:
    """Median wall and peak RSS of `python -m selfmaps.cli ARGV` in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(src))
    walls, digests, peak_kb = [], set(), 0
    for _ in range(RUNS):
        start = time.perf_counter()
        code, stdout, stderr, rss_kb = _run_child([sys.executable, "-m", "selfmaps.cli", *argv], env)
        walls.append(time.perf_counter() - start)
        if code != 0:
            raise SystemExit(f"{argv[0]} exited {code}: {stderr}")
        peak_kb = max(peak_kb, rss_kb)
        digests.add(hashlib.sha256(_TIMING_LINE.sub("", stdout, count=1).encode()).hexdigest())
    if len(digests) != 1:
        raise SystemExit(f"{argv[0]} printed {len(digests)} different payloads")
    return {
        "wall_s_median": round(statistics.median(walls), 4),
        "wall_s_runs": [round(w, 4) for w in walls],
        # Linux reports ru_maxrss in kB.
        "peak_rss_mb": round(peak_kb / 1024, 1),
        "payload_sha256": digests.pop(),
    }


def claim_seconds(src: Path) -> dict:
    """Median in-process seconds of each claim over RUNS calls of run_claims."""
    sys.path.insert(0, str(src))
    claims = importlib.import_module("selfmaps.claims")
    spent: dict[str, list[float]] = {}

    def timed(name, check):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return check(*args, **kwargs)
            finally:
                spent.setdefault(name, []).append(time.perf_counter() - start)

        return wrapper

    # run_claims looks the checks up as module globals on each call, so
    # replacing them here times every claim, exceptional-families included.
    for attr in [a for a in vars(claims) if a.startswith("_check_")]:
        claim = attr.removeprefix("_check_").replace("_", "-")
        setattr(claims, attr, timed(claim, getattr(claims, attr)))
    totals = []
    for _ in range(RUNS):
        start = time.perf_counter()
        results = claims.run_claims()
        totals.append(time.perf_counter() - start)
        if not all(r.passed for r in results):
            raise SystemExit("a claim failed: " + "; ".join(r.line for r in results if not r.passed))
    if set(spent) != {r.name for r in results}:
        raise SystemExit(f"timed {sorted(spent)}, but the battery ran {[r.name for r in results]}")
    return {
        "run_claims_s_median": round(statistics.median(totals), 4),
        "claims_s_median": {name: round(statistics.median(s), 4) for name, s in spent.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key of this measurement under runs")
    parser.add_argument("--checkout", type=Path, default=REPO, help="checkout whose src/ is timed")
    parser.add_argument("--out", type=Path, default=REPO / "BENCH_verify_paper.json")
    args = parser.parse_args()
    src = args.checkout.resolve() / "src"
    record = {
        "checkout": _describe(args.checkout),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(), "python": platform.python_version()},
        "runs": RUNS,
        "cli": cli_runs(src, ["verify-paper", "--json"]),
        "in_process": claim_seconds(src),
    }
    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    bench["command"] = "python -m selfmaps.cli verify-paper --json"
    bench.setdefault("runs", {})[args.label] = record
    args.out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(json.dumps({args.label: record}, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
