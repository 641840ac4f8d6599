"""Time the group layer near the 10^4 order cap, end to end and in process.

Usage:
    python3 tools/bench_group.py --label NAME [--checkout DIR] [--out FILE]

CLI cases, through bench_verify_paper.cli_runs: RUNS (5) fresh
interpreters of `python -m selfmaps.cli group-check GROUP P --json`
against DIR/src, recording the median wall time, the largest peak RSS
and the sha256 of the payload minus its timing_ms line.  GROUP is
Z/71 x| (Z/71)* (order 4970) with its non-identity elements relabeled
by a fixed permutation; the table is written here with plain numpy, so
every checkout reads the same bytes.

    semidirect71-p71: the normal subgroup of order 71, covered
    semidirect71-p5:  71 subgroups of order 5, none covered

In-process case, semidirect97: RUNS fresh interpreters each import
selfmaps from DIR/src and time build_semidirect(97) (order 9312: build
and validation) followed by rho_bar_surjective at q = 97 and q = 2
with time.perf_counter.  The record holds the median of each part and
of their sum, the largest peak RSS (ru_maxrss from os.wait4) and the
sha256 of the reports' holds, images and witnesses.

The result goes under runs[NAME] in FILE (default BENCH_group.json at
the repository root), so a commit and its parent sit side by side.
Measure only with nothing else heavy running: the numbers are wall
times on a shared host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_verify_paper import RUNS, _describe, _run_child, cli_runs  # noqa: E402

REPO = Path(__file__).resolve().parents[1]
CLI_P = 71
CLI_QS = (71, 5)
LIB_P = 97
LIB_QS = (97, 2)
_ROWS = 64

# Runs in the child: prints the seconds of each part and the result summary.
_LIB_SCRIPT = """
import json, time
from selfmaps.group_condition import build_semidirect, rho_bar_surjective
start = time.perf_counter()
group = build_semidirect({p})
built = time.perf_counter()
reports = [rho_bar_surjective(group, q) for q in {qs}]
done = time.perf_counter()
summary = [
    [r.p, r.holds, sorted(r.witnesses.items()), [list(s.image) for s in r.subgroup_reports]]
    for r in reports
]
print(json.dumps({{"build_s": built - start, "rho_s": done - built, "summary": summary}}))
"""


def write_semidirect(path: Path, p: int, seed: int = 0) -> None:
    """Table file of (a, u)(b, v) = (a + u*b, u*v), elements 1..n-1 relabeled.

    Written _ROWS rows at a time: a child's ru_maxrss starts from this
    process's own peak, so building the whole table here would hide the
    RSS of every case behind it.
    """
    n = p * (p - 1)
    label = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(n - 1)])
    # row r, column c of the relabeled table is label[table[old[r], old[c]]]
    old = np.argsort(label)
    a = old // (p - 1)
    u = old % (p - 1) + 1
    with path.open("w") as out:
        out.write(f"{n}\n")
        for start in range(0, n, _ROWS):
            ra, ru = a[start : start + _ROWS, None], u[start : start + _ROWS, None]
            rows = label[((ra + ru * a) % p) * (p - 1) + (ru * u) % p - 1]
            out.writelines(" ".join(map(str, row)) + "\n" for row in rows.tolist())


def lib_runs(src: Path) -> dict:
    """Median in-process seconds and peak RSS of build_semidirect plus rho_bar_surjective."""
    env = dict(os.environ, PYTHONPATH=str(src))
    script = _LIB_SCRIPT.format(p=LIB_P, qs=LIB_QS)
    builds, rhos, totals, digests, peak_kb = [], [], [], set(), 0
    for _ in range(RUNS):
        code, stdout, stderr, rss_kb = _run_child([sys.executable, "-c", script], env)
        if code != 0:
            raise SystemExit(f"semidirect{LIB_P} exited {code}: {stderr}")
        result = json.loads(stdout)
        builds.append(result["build_s"])
        rhos.append(result["rho_s"])
        totals.append(result["build_s"] + result["rho_s"])
        peak_kb = max(peak_kb, rss_kb)
        digests.add(hashlib.sha256(json.dumps(result["summary"]).encode()).hexdigest())
    if len(digests) != 1:
        raise SystemExit(f"semidirect{LIB_P} gave {len(digests)} different results")
    return {
        "build_s_median": round(statistics.median(builds), 4),
        "rho_s_median": round(statistics.median(rhos), 4),
        "total_s_median": round(statistics.median(totals), 4),
        "total_s_runs": [round(t, 4) for t in totals],
        "peak_rss_mb": round(peak_kb / 1024, 1),
        "payload_sha256": digests.pop(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key of this measurement under runs")
    parser.add_argument("--checkout", type=Path, default=REPO, help="checkout whose src/ is timed")
    parser.add_argument("--out", type=Path, default=REPO / "BENCH_group.json")
    args = parser.parse_args()
    src = args.checkout.resolve() / "src"
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        group = Path(tmp) / f"semidirect{CLI_P}.grp"
        write_semidirect(group, CLI_P)
        for q in CLI_QS:
            cases[f"semidirect{CLI_P}-p{q}"] = cli_runs(src, ["group-check", str(group), str(q), "--json"])
    cases[f"semidirect{LIB_P}"] = lib_runs(src)
    record = {
        "checkout": _describe(args.checkout),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(), "python": platform.python_version()},
        "numpy": np.__version__,
        "runs": RUNS,
        "cases": cases,
    }
    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    bench["command"] = f"python -m selfmaps.cli group-check GROUP P --json (order {CLI_P * (CLI_P - 1)})"
    bench["in_process"] = f"build_semidirect({LIB_P}), then rho_bar_surjective at q in {list(LIB_QS)}"
    bench.setdefault("runs", {})[args.label] = record
    args.out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(json.dumps({args.label: record}, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
