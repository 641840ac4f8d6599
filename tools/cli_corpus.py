"""Digest the CLI's output on a fixed corpus of invocations, to diff two checkouts.

Usage:
    PYTHONPATH=DIR/src python3 tools/cli_corpus.py > DIGESTS

Runs 3067 invocations of selfmaps.cli.main in this process: scan
(text and --json, bounds 1 to 10^5) and classify on split torsion
descriptors over twelve curve models and k = 1..13, classify on every
other elliptic bundle shape at bounds -5 to 5000, density with and
without --modulus, error cases, cm-table and verify-paper; then toric on
valid, rejected and malformed fans, group-check on a passing, a failing
and malformed group files and on files at the edge of the byte kernel of
parse_group_text, classify on the other surface kinds and on
descriptor errors, and verify-paper --negative-test; last, the JSON
writer at scale: scan --json at 10^6 on the Gauss order with k = 5,
point (4, 2) and k = 7, point (1, 0), classify --json of a no-CM
split_nontorsion bundle at 10^7, and density --json at 10^7 for two
orders and at 10^5 for n = 10^30; and the isogeny routes at scale: scan
--json at 10^6 with k = 13 on the Gauss order, point (1, 8), on the
order of discriminant -3, point (1, 3), and on the order with n = 3,
point (7, 1); the residue filter that skips the walk: scan --json at
10^6 on the Gauss order with k = 999,983, point (1, 0); and the text
report of the first two of those k = 13 scans; cm-table --json at its
--max-n cap of 10^5 and at --max-n 1, 2 and 3; classify of split_degree
bundles with degree +-1, +-2 and +-5; and group-check and high-genus
classify at p = 2, 3 and 5 on Z/48 and on Z/48 with one intercalate
swapped.  Each line holds the invocation, its exit code, and sha256
prefixes of stdout (minus its timing_ms line) and of stderr.
Points are drawn from a fixed seed, so two checkouts that behave alike
print the same file: `diff` the outputs of a commit and its parent, both
made with one copy of this script (PYTHONPATH picks the checkout).
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
# valid fans (plane, product of lines, F_3, hexagon), a clockwise plane, one fan
# for each FanValidationError subclass in validate_fan's order, malformed files
FANS = {
    "p2": "# plane\n\n1 0\n0 1\n-1 -1\n", "f0": "1 0\n0 1\n-1 0\n0 -1\n", "f3": "1 0\n0 1\n-1 3\n0 -1\n",
    "hex": "1 0\n1 1\n0 1\n-1 0\n-1 -1\n0 -1\n", "clockwise": "1 0\n-1 -1\n0 1\n", "two": "1 0\n0 1\n",
    "nonprimitive": "2 0\n0 1\n-1 -1\n", "repeat": "1 0\n1 0\n0 1\n-1 -1\n", "det2": "1 0\n0 1\n-1 -2\n",
    "winds2": "1 0\n-1 1\n0 -1\n1 1\n-1 0\n1 -1\n", "three": "1 0\n0 1 2\n", "word": "1 0\nx y\n", "none": "#\n",
}
# Z/5 x| (Z/5)* with (a, u) numbered 4a + u - 1: (a, u)(b, v) = (a + ub, uv), which passes at p = 5
AFF5 = [
    [(x // 4 + (x % 4 + 1) * (y // 4)) % 5 * 4 + (x % 4 + 1) * (y % 4 + 1) % 5 - 1 for y in range(20)] for x in range(20)
]
# name: (group file, primes to check); z7 fails at p = 7, the others are malformed or no group
GROUPS = {
    "aff5": ("20\n" + "".join(" ".join(map(str, row)) + "\n" for row in AFF5), "5 2 3 4"),
    "z7": ("7\n" + "".join(" ".join(str((a + b) % 7) for b in range(7)) + "\n" for a in range(7)), "7"),
    "order": ("x\n0\n", "2"), "rows": ("3\n0 1 2\n1 2 0\n", "2"), "word": ("2\n0 1\n1 a\n", "2"),
    "range": ("2\n0 1\n1 5\n", "2"), "cap": ("10001\n", "2"), "latin": ("2\n0 1\n1 1\n", "2"),
}


def _group_text(order, lines, sep=" ", newline="\n", final=True) -> str:
    """A group file: the order line, then one line per list of tokens."""
    text = newline.join([str(order), *(sep.join(map(str, line)) for line in lines)])
    return text + newline if final else text


# the boundary of the byte kernel of parse_group_text: the kernel reads
# CRLF, tabs, an interior comment line and a missing final newline; a
# trailing "# x", a 9-digit token and an entry of 65537 go to the row loop
Z7 = [[(a + b) % 7 for b in range(7)] for a in range(7)]
GROUPS.update(
    {
        "crlf": (_group_text(7, Z7, newline="\r\n"), "7"),
        "tabs": (_group_text(7, Z7, sep="\t"), "7"),
        "comment": (_group_text(20, AFF5[:10] + [["# the second half"]] + AFF5[10:]), "5"),
        "hash": (_group_text(7, Z7[:3] + [Z7[3] + ["#", "x"]] + Z7[4:]), "7"),
        "nine": (_group_text(7, [[f"{x:09d}" if x == 6 else x for x in row] for row in Z7]), "7"),
        "big": (_group_text(7, Z7[:2] + [[65537 if x == 6 else x for x in Z7[2]]] + Z7[3:]), "7"),
        "nofinal": (_group_text(7, Z7, final=False), "7"),
    }
)
DESCRIPTORS = {
    "abelian": "surface=abelian", "hyperelliptic": "surface=hyperelliptic", "kodaira": "surface=kodaira_one",
    "toric": "surface=toric\nfan_file=hex.fan", "hg1": "surface=high_genus_bundle\np=1",
    # p = 5 holds, 7 fails, 4 is not a prime, and aff5 has no subgroup of order 3
    **{f"hg{p}": f"surface=high_genus_bundle\np={p}\ngroup_file={g}.grp" for p, g in ((5, "aff5"), (7, "z7"))},
    **{f"hg{p}": f"surface=high_genus_bundle\np={p}\ngroup_file=aff5.grp" for p in (4, 3)},
    "k0": "surface=elliptic_bundle\ncurve=nocm\nbundle=split_torsion\nk=0\npoint=1 0",
    "degree0": "surface=elliptic_bundle\ncurve=nocm\nbundle=split_degree\ndegree=0",
    "order": "surface=elliptic_bundle\ncurve=cm\norder=2 1\nbundle=atiyah_deg0",
}


def invocations(work: Path) -> list[list[str]]:
    """The corpus; descriptor files are written into work."""
    rng = random.Random(7)
    cases = []

    def write(name: str, text: str) -> str:
        path = work / name
        path.write_text(text)
        return str(path)

    def descriptor(name: str, curve: str, bundle: str) -> str:
        return write(name, f"surface=elliptic_bundle\n{curve}\nbundle={bundle}\n")

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
    # appended after the cases above, so their lines still diff one for one
    for name, text in FANS.items():
        cases += [["toric", write(f"{name}.fan", text), *j] for j in ([], ["--json"])]
    for name, (text, primes) in GROUPS.items():
        cases += [["group-check", write(f"{name}.grp", text), p, *j] for p in primes.split() for j in ([], ["--json"])]
    for name, text in DESCRIPTORS.items():
        cases += [["classify", write(f"{name}.desc", text + "\n"), *j] for j in (["--bound", "50"], ["--json"])]
    cases += [["verify-paper", "--negative-test"], ["verify-paper", "--negative-test", "--json"]]
    # the JSON writer at scale: 78,498 scan rows each, and 664,579 missing primes
    for k, point in ((5, "4 2"), (7, "1 0")):
        desc = descriptor(f"gauss-k{k}.desc", "curve=cm\norder=0 1", f"split_torsion\nk={k}\npoint={point}")
        cases.append(["scan", desc, "--bound", "1000000", "--json"])
    desc = descriptor("nocm-nontorsion.desc", "curve=nocm", "split_nontorsion")
    cases.append(["classify", desc, "--bound", "10000000", "--json"])
    # the Legendre array pass of density at the sieve cap, and with a
    # discriminant far beyond int64
    cases += [["density", "--order", *order, "--bound", "10000000", "--json"] for order in (("0", "1"), ("1", "2"))]
    cases.append(["density", "--order", "1", str(10**30), "--bound", "100000", "--json"])
    # the first working point per prime at scale: 17,448 and 19,610 primes
    # up to 10^6 reached by an isogeny route; the bound-20000 cases above
    # are the largest others that reach any
    for name, order, point in (("gauss", "0 1", "1 8"), ("disc3", "1 1", "1 3")):
        desc = descriptor(f"{name}-k13.desc", f"curve=cm\norder={order}", f"split_torsion\nk=13\npoint={point}")
        cases.append(["scan", desc, "--bound", "1000000", "--json"])
    # the two paths of the residue filter: at k = 999,983 no needed prime
    # has a working residue, so the lattice is not walked; on the order
    # with n = 3 the point (7, 1) is an eigenvector of the dual of w, so
    # every row works and the coset walk spans several blocks
    desc = descriptor("gauss-k999983.desc", "curve=cm\norder=0 1", "split_torsion\nk=999983\npoint=1 0")
    cases.append(["scan", desc, "--bound", "1000000", "--json"])
    desc = descriptor("n3-k13.desc", "curve=cm\norder=0 3", "split_torsion\nk=13\npoint=7 1")
    cases.append(["scan", desc, "--bound", "1000000", "--json"])
    # the text report's isogeny rows at scale; above, text mode meets them
    # only up to bound 3000
    for name in ("gauss", "disc3"):
        cases.append(["scan", str(work / f"{name}-k13.desc"), "--bound", "1000000"])
    # cm-table at its cap, and on both sides of n = 2, the largest n with
    # a norm-2 element
    cases.append(["cm-table", "--max-n", "100000", "--json"])
    cases += [["cm-table", "--max-n", n, "--json"] for n in ("1", "2", "3")]
    # the square-degree certificate of split bundles with nonzero degree
    for degree in (1, -1, 2, -2, 5, -5):
        desc = descriptor(f"degree{degree}.desc", "curve=nocm", f"split_degree\ndegree={degree}")
        cases += [["classify", desc], ["classify", desc, "--json"]]
    # Light's test on a table of order 48, in blocks of middle elements:
    # Z/48, which passes, and Z/48 with the intercalate 1, 25 x 2, 26
    # swapped, which fails at the associativity stage
    z48 = [[(a + b) % 48 for b in range(48)] for a in range(48)]
    swapped = [row[:] for row in z48]
    swapped[1][2], swapped[1][26], swapped[25][2], swapped[25][26] = z48[1][26], z48[1][2], z48[25][26], z48[25][2]
    for name, table in (("z48", z48), ("z48swap", swapped)):
        group = write(f"{name}.grp", _group_text(48, table))
        for p in ("2", "3", "5"):
            desc = write(f"hg-{name}-{p}.desc", f"surface=high_genus_bundle\np={p}\ngroup_file={name}.grp\n")
            cases += [["group-check", group, p, *j] for j in ([], ["--json"])]
            cases += [["classify", desc, *j] for j in ([], ["--json"])]
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
