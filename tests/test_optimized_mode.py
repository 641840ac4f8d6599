"""Validation and proof steps must not depend on `assert`.

`python -O` strips assert statements, so this runs the checks in an
optimized interpreter and compares with the verdicts computed here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import selfmaps
from selfmaps.cm_elliptic import CurveModel
from selfmaps.elliptic_pbundle import (
    AtiyahDegreeOne,
    AtiyahDegreeZero,
    EllipticBundleDescriptor,
    SplitNonTorsion,
    SplitNonzeroDegree,
    nonsplit_verdict,
)
from selfmaps.qorders import OrderParams
from selfmaps.verdicts import verdict_to_payload

BUNDLES = {
    "atiyah_deg0": AtiyahDegreeZero(),
    "atiyah_deg1": AtiyahDegreeOne(),
    "split_nontorsion": SplitNonTorsion(),
    "split_degree": SplitNonzeroDegree(3),
}

SCRIPT = """
import json, sys
from types import SimpleNamespace
import numpy
from selfmaps import cli, elliptic_pbundle as eb, group_condition as gc, toric
from selfmaps.cm_elliptic import CurveModel
from selfmaps.qorders import NotPrimeError, OrderParams, legendre, split_type
from selfmaps.verdicts import verdict_to_payload

def raises(fn, exc):
    try:
        fn()
    except exc:
        return True
    return False

bundles = {
    "atiyah_deg0": eb.AtiyahDegreeZero(),
    "atiyah_deg1": eb.AtiyahDegreeOne(),
    "split_nontorsion": eb.SplitNonTorsion(),
    "split_degree": eb.SplitNonzeroDegree(3),
}
curve = CurveModel.cm(OrderParams(0, 1))
out = {
    "optimize": sys.flags.optimize,
    "legendre_raises": raises(lambda: legendre(3, 9), NotPrimeError),
    "split_type_raises": raises(lambda: split_type(OrderParams(0, 1), 9), NotPrimeError),
    "verdicts": {
        name: verdict_to_payload(eb.nonsplit_verdict(eb.EllipticBundleDescriptor(curve, b), 200))
        for name, b in bundles.items()
    },
}
# a failed proof step must still stop the verdict
eb.atiyah_deg2_search = lambda: ((1, 1),)
out["deg2_proof_step_raises"] = raises(
    lambda: eb.nonsplit_verdict(eb.EllipticBundleDescriptor(curve, bundles["atiyah_deg1"])), RuntimeError
)
eb.square_degree_certificate = lambda c: SimpleNamespace(degree_is_square=False)
out["square_proof_step_raises"] = raises(
    lambda: eb.nonsplit_verdict(eb.EllipticBundleDescriptor(curve, bundles["split_degree"])), RuntimeError
)
# element 1 generates all of Z/6; claiming it has order 3 must not yield
# a six-element "subgroup of order 3"
z6 = gc.build_cyclic(6)
gc._order_q_elements = lambda group, q: numpy.array([1, 2, 4])
out["subgroup_order_step_raises"] = raises(lambda: gc.find_cyclic_subgroups(z6, 3), RuntimeError)
# a fan without negative curves must be the plane or the product of lines
five_rays = toric.validate_fan(((1, 0), (1, 1), (0, 1), (-1, 0), (0, -1)))
toric.self_intersections = lambda fan: (0,) * len(fan)
out["toric_ray_count_step_raises"] = raises(lambda: toric.toric_verdict(five_rays), RuntimeError)
# the text renderers dispatch on witness and verdict classes; an unknown
# one must raise, not fall through to the last branch
out["witness_text_dispatch_raises"] = raises(lambda: cli._witness_text(object()), TypeError)
out["verdict_lines_dispatch_raises"] = raises(
    lambda: cli._verdict_lines(SimpleNamespace(kind="unknown_kind")), TypeError
)
print(json.dumps(out))
"""


def test_checks_hold_under_python_optimize():
    src = str(Path(selfmaps.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["optimize"] == 1
    assert out["legendre_raises"] and out["split_type_raises"]
    assert out["deg2_proof_step_raises"] and out["square_proof_step_raises"]
    assert out["subgroup_order_step_raises"] and out["toric_ray_count_step_raises"]
    assert out["witness_text_dispatch_raises"] and out["verdict_lines_dispatch_raises"]
    curve = CurveModel.cm(OrderParams(0, 1))
    expected = {
        name: verdict_to_payload(nonsplit_verdict(EllipticBundleDescriptor(curve, bundle), 200))
        for name, bundle in BUNDLES.items()
    }
    assert out["verdicts"] == json.loads(json.dumps(expected))
