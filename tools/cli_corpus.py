"""Digest the CLI's output on a fixed corpus of invocations, to diff two checkouts.

Usage:
    PYTHONPATH=DIR/src python3 tools/cli_corpus.py > DIGESTS

Runs 2927 invocations of selfmaps.cli.main in this process: scan
(text and --json, bounds 1 to 10^5) and classify on split torsion
descriptors over twelve curve models and k = 1..13, classify on every
other elliptic bundle shape at bounds -5 to 5000, density with and
without --modulus, error cases, cm-table and verify-paper.  Each line
holds the invocation, its exit code, and sha256 prefixes of stdout
(minus its timing_ms line) and of stderr.  Points are drawn from a
fixed seed, so two checkouts that behave alike print the same file:
`diff` the outputs of a commit and its parent.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
import tempfile
from math import gcd
from pathlib import Path

from selfmaps import cli

_TIMING_LINE = re.compile(r'^  "timing_ms": [^\n]*\n', re.MULTILINE)
CURVES = ["curve=nocm"] + [
    f"curve=cm\norder={t} {n}"
    for t, n in ((0, 1), (1, 1), (0, 2), (1, 2), (0, 3), (0, 5), (0, 6), (1, 3), (0, 7), (1, 5), (0, 10))
]
SHAPES = ("split_nontorsion", "atiyah_deg0", "atiyah_deg1", "split_degree\ndegree=-3")


def invocations(work: Path) -> list[list[str]]:
    """The corpus; descriptor files are written into work."""
    rng = random.Random(7)
    cases = []

    def descriptor(name: str, curve: str, bundle: str) -> str:
        path = work / name
        path.write_text(f"surface=elliptic_bundle\n{curve}\nbundle={bundle}\n")
        return str(path)

    for ci, curve in enumerate(CURVES):
        for k in range(1, 14):
            points = [(a, b) for a in range(k) for b in range(k) if gcd(gcd(a, b), k) == 1]
            for v in rng.sample(points, min(2, len(points))):
                desc = descriptor(f"c{ci}-k{k}-{v[0]}-{v[1]}.desc", curve, f"split_torsion\nk={k}\npoint={v[0]} {v[1]}")
                cases += [["scan", desc, "--bound", str(b), "--json"] for b in (1, 2, 30, 1000, 20000)]
                cases.append(["scan", desc, "--bound", "3000"])
                cases += [["classify", desc, "--bound", str(b), "--json"] for b in (1, 1000)]
        for si, shape in enumerate(SHAPES):
            desc = descriptor(f"c{ci}-s{si}.desc", curve, shape)
            cases += [["classify", desc, "--bound", str(b), "--json"] for b in (-5, 0, 1, 2, 3, 100, 1000, 5000)]
            cases.append(["classify", desc])
    for name, order in (("gauss7", "0 1"), ("disc3", "1 1")):
        desc = descriptor(f"{name}.desc", f"curve=cm\norder={order}", "split_torsion\nk=7\npoint=1 0")
        cases += [["scan", desc, "--bound", "100000", "--json"], ["scan", desc, "--bound", "-3", "--json"]]
    for t in (0, 1):
        for n in (1, 2, 3, 5, 7, 11):
            order = ["--order", str(t), str(n)]
            cases += [["density", *order, "--bound", str(b), "--json"] for b in (50, 100, 10000, 100000)]
            cases.append(["density", *order, "--bound", "20000", "--modulus", "12", "--json"])
            cases.append(["density", *order, "--bound", "20000", "--modulus", "1"])
            cases.append(["density", *order, "--bound", "300000", "--modulus", "7"])
    cases += [
        ["density", "--order", "2", "1"],
        ["density", "--order", "0", "0", "--json"],
        ["density", "--order", "0", "1", "--bound", "-4"],
        ["cm-table", "--json"],
        ["cm-table", "--max-n", "30"],
        ["verify-paper", "--json"],
        ["verify-paper"],
    ]
    return cases


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for argv in invocations(work):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            text = _TIMING_LINE.sub("", out.getvalue(), count=1)
            name = " ".join(arg.replace(tmp + "/", "") for arg in argv)
            print(
                name,
                code,
                hashlib.sha256(text.encode()).hexdigest()[:16],
                hashlib.sha256(err.getvalue().encode()).hexdigest()[:16],
                flush=True,
            )


if __name__ == "__main__":
    main()
