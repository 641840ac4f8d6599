"""Time `selfmaps verify-paper --json` end to end and claim by claim.

Usage:
    python3 tools/bench_verify_paper.py --label NAME [--checkout DIR] [--out FILE]

End to end: runs `python -m selfmaps.cli verify-paper --json` against
DIR/src in RUNS (5) fresh interpreters, one after another, and records the
median wall time (time.perf_counter around each subprocess) and the
peak RSS of the largest of them (ru_maxrss of
resource.getrusage(RUSAGE_CHILDREN), which holds the maximum over
waited-for children).  Every run must exit 0 and print the same payload
once its timing_ms line is removed; the sha256 of that payload is
stored, so two checkouts can be shown to print the same report.

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
import resource
import statistics
import subprocess
import sys
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


def cli_runs(src: Path) -> dict:
    """Median wall and peak RSS of `verify-paper --json` in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(src))
    walls, digests = [], set()
    for _ in range(RUNS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "selfmaps.cli", "verify-paper", "--json"],
            capture_output=True,
            text=True,
            env=env,
        )
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"verify-paper exited {proc.returncode}: {proc.stderr}")
        digests.add(hashlib.sha256(_TIMING_LINE.sub("", proc.stdout, count=1).encode()).hexdigest())
    if len(digests) != 1:
        raise SystemExit(f"verify-paper printed {len(digests)} different payloads")
    return {
        "wall_s_median": round(statistics.median(walls), 4),
        "wall_s_runs": [round(w, 4) for w in walls],
        # Linux reports ru_maxrss in kB.
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, 1),
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
        "cli": cli_runs(src),
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
