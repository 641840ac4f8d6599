"""Time `selfmaps density --json` at bounds 10^6 and 10^7 end to end.

Usage:
    python3 tools/bench_density.py --label NAME [--checkout DIR] [--out FILE]

Runs four density cases against DIR/src, each through
bench_verify_paper.cli_runs: RUNS (5) fresh interpreters of
`python -m selfmaps.cli density --order T N --bound B --json`, one after
another, recording the median wall time, the largest peak RSS and the
sha256 of the payload minus its timing_ms line.  The cases are the
Gauss order (0 1) and the order t = 1, n = 2 (discriminant -7), each at
B = 10^6 and B = 10^7.

The result goes under runs[NAME] in FILE (default BENCH_density.json at
the repository root), so a commit and its parent sit side by side.
Measure only with nothing else heavy running: the numbers are wall
times on a shared host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_verify_paper import RUNS, _describe, cli_runs  # noqa: E402

REPO = Path(__file__).resolve().parents[1]
ORDERS = {"gauss": ("0", "1"), "disc7": ("1", "2")}
BOUNDS = (10**6, 10**7)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key of this measurement under runs")
    parser.add_argument("--checkout", type=Path, default=REPO, help="checkout whose src/ is timed")
    parser.add_argument("--out", type=Path, default=REPO / "BENCH_density.json")
    args = parser.parse_args()
    src = args.checkout.resolve() / "src"
    cases = {}
    for name, (t, n) in ORDERS.items():
        for bound in BOUNDS:
            argv = ["density", "--order", t, n, "--bound", str(bound), "--json"]
            cases[f"{name}-1e{len(str(bound)) - 1}"] = cli_runs(src, argv)
    record = {
        "checkout": _describe(args.checkout),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(), "python": platform.python_version()},
        "runs": RUNS,
        "cases": cases,
    }
    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    bench["command"] = "python -m selfmaps.cli density --order T N --bound B --json"
    bench["orders"] = {name: " ".join(tn) for name, tn in ORDERS.items()}
    bench.setdefault("runs", {})[args.label] = record
    args.out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(json.dumps({args.label: record}, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
