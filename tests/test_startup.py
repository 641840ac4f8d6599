"""Start-up: the CLI paths that run no array pass never import numpy.

The classify steps include two split torsion bundles whose all-degrees
certificate succeeds: the certificate lists the primes dividing k with
is_prime, whose sieve is a bytearray, so it needs no numpy.  They also
include a split bundle with a nontorsion summand over a curve without
CM, whose missing primes up to the default bound of 1000 come from the
same bytearray sieve.

Each case runs in a fresh interpreter, since this test process has
numpy loaded already.  The child imports selfmaps.cli, then runs the
paths one after another in the same process and records after each
step whether numpy is in sys.modules; a scan, which runs the lattice
pass, is the control that numpy does get loaded where it is used.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import selfmaps

SCRIPT = r"""
import contextlib, io, json, sys

steps = []


def step(name, argv=None):
    code = None
    if argv is not None:
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # --version exits through argparse
                code = exc.code
    steps.append([name, code, "numpy" in sys.modules])


import selfmaps.cli
from selfmaps.cli import main

step("import")
step("--version", ["--version"])
work = sys.argv[1]
step("toric", ["toric", f"{work}/plane.fan"])
for kind in ("abelian", "hyperelliptic", "kodaira_one", "toric", "certificate-k5", "certificate-k2", "nocm-nontorsion"):
    step(f"classify {kind}", ["classify", f"{work}/{kind}.desc", "--json"])
step("scan", ["scan", f"{work}/scan.desc", "--bound", "100", "--json"])
print(json.dumps({"optimize": sys.flags.optimize, "steps": steps}))
"""

DESCRIPTORS = {
    "abelian": "surface=abelian\n",
    "hyperelliptic": "surface=hyperelliptic\n",
    "kodaira_one": "surface=kodaira_one\n",
    "toric": "surface=toric\nfan_file=plane.fan\n",
    # split torsion bundles over the Gauss curve whose all-degrees
    # certificate succeeds, so classify runs no scan
    "certificate-k5": "surface=elliptic_bundle\ncurve=cm\norder=0 1\nbundle=split_torsion\nk=5\npoint=1 2\n",
    "certificate-k2": "surface=elliptic_bundle\ncurve=cm\norder=0 1\nbundle=split_torsion\nk=2\npoint=1 0\n",
    "nocm-nontorsion": "surface=elliptic_bundle\ncurve=nocm\nbundle=split_nontorsion\n",
    "scan": "surface=elliptic_bundle\ncurve=cm\norder=0 1\nbundle=split_torsion\nk=5\npoint=1 2\n",
}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_numpy_loads_only_where_an_array_pass_runs(tmp_path, flags):
    (tmp_path / "plane.fan").write_text("1 0\n0 1\n-1 -1\n")
    for name, text in DESCRIPTORS.items():
        (tmp_path / f"{name}.desc").write_text(text)
    src = str(Path(selfmaps.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", SCRIPT, str(tmp_path)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["optimize"] == len(flags)
    *numpy_free, (control, control_code, control_loaded) = out["steps"]
    assert numpy_free == [
        ["import", None, False],
        ["--version", 0, False],
        ["toric", 0, False],
        ["classify abelian", 0, False],
        ["classify hyperelliptic", 0, False],
        ["classify kodaira_one", 0, False],
        ["classify toric", 0, False],
        ["classify certificate-k5", 0, False],
        ["classify certificate-k2", 0, False],
        ["classify nocm-nontorsion", 0, False],
    ]
    assert (control, control_code, control_loaded) == ("scan", 0, True)
