"""Time `selfmaps scan --json` at bound 10^6 end to end.

Usage:
    python3 tools/bench_scan.py --label NAME [--checkout DIR] [--out FILE]

Runs two scan cases against DIR/src, each through
bench_verify_paper.cli_runs: RUNS (5) fresh interpreters of
`python -m selfmaps.cli scan DESC --bound 1000000 --json`, one after
another, recording the median wall time, the largest peak RSS and the
sha256 of the payload minus its timing_ms line.

    gauss-k5: Gauss order, k = 5, point (4, 2); every prime is achievable,
              so the JSON (about 25 MB) dominates
    gauss-k7: Gauss order, k = 7, point (1, 0); 52,344 of the 78,498
              primes are missing, ruled out by the lattice pass

The result goes under runs[NAME] in FILE (default BENCH_scan.json at the
repository root), so a commit and its parent sit side by side.  Measure
only with nothing else heavy running: the numbers are wall times on a
shared host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_verify_paper import RUNS, _describe, cli_runs  # noqa: E402

REPO = Path(__file__).resolve().parents[1]
BOUND = 1_000_000
CASES = {
    "gauss-k5": "surface=elliptic_bundle\ncurve=cm\norder=0 1\nbundle=split_torsion\nk=5\npoint=4 2\n",
    "gauss-k7": "surface=elliptic_bundle\ncurve=cm\norder=0 1\nbundle=split_torsion\nk=7\npoint=1 0\n",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key of this measurement under runs")
    parser.add_argument("--checkout", type=Path, default=REPO, help="checkout whose src/ is timed")
    parser.add_argument("--out", type=Path, default=REPO / "BENCH_scan.json")
    args = parser.parse_args()
    src = args.checkout.resolve() / "src"
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in CASES.items():
            desc = Path(tmp) / f"{name}.desc"
            desc.write_text(text)
            cases[name] = cli_runs(src, ["scan", str(desc), "--bound", str(BOUND), "--json"])
    record = {
        "checkout": _describe(args.checkout),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(), "python": platform.python_version()},
        "runs": RUNS,
        "cases": cases,
    }
    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    bench["command"] = f"python -m selfmaps.cli scan DESC --bound {BOUND} --json"
    bench["descriptors"] = CASES
    bench.setdefault("runs", {})[args.label] = record
    args.out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(json.dumps({args.label: record}, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
