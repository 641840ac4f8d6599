import json

import pytest

from selfmaps.cm_elliptic import CurveModel, TorsionPoint
from selfmaps.elliptic_pbundle import (
    EllipticBundleDescriptor,
    SplitTorsion,
    admits_all_degrees,
)
from selfmaps.qorders import OrderParams, QuadElem
from selfmaps.verdicts import (
    AllDegrees,
    AutRoute,
    DegreeCertificate,
    FiniteCandidatePrimes,
    InfinitelyManyMissing,
    IsogenyRoute,
    MissingPrimes,
    SquaresOnly,
    TorsionMultiple,
    verdict_to_payload,
    witness_to_payload,
)

GAUSS = OrderParams(0, 1)

# a certificate carrying all three witness routes, its residue keys out
# of order so the payload must sort them
CERTIFICATE = DegreeCertificate(
    k=5,
    residue_witnesses={
        4: AutRoute(QuadElem(GAUSS, 0, 1), 4),
        1: AutRoute(QuadElem(GAUSS, 1, 0), 1),
        2: IsogenyRoute(QuadElem(GAUSS, 1, -1), -1),
    },
    special_witnesses={5: TorsionMultiple(5)},
)
CERTIFICATE_PAYLOAD = {
    "k": 5,
    "residues": {
        "1": {"route": "aut", "phi": {"t": 0, "n": 1, "x": 1, "y": 0}, "exponent": 1},
        "2": {"route": "isogeny", "alpha": {"t": 0, "n": 1, "x": 1, "y": -1}, "sign": -1},
        "4": {"route": "aut", "phi": {"t": 0, "n": 1, "x": 0, "y": 1}, "exponent": 4},
    },
    "special_primes": {"5": {"route": "torsion_multiple", "k": 5}},
}

# each verdict kind and the payload docs/report_schema.md lists for it
PAYLOADS = {
    "all_degrees": (
        AllDegrees(note="small torsion"),
        {"kind": "all_degrees", "certificate": None, "note": "small torsion"},
    ),
    "all_degrees_certificate": (
        AllDegrees(certificate=CERTIFICATE, note="unit pullbacks"),
        {"kind": "all_degrees", "certificate": CERTIFICATE_PAYLOAD, "note": "unit pullbacks"},
    ),
    "missing_primes": (
        MissingPrimes((2, 3), scan_bound=1000, note="scan"),
        {"kind": "missing_primes", "missing": [2, 3], "scan_bound": 1000, "note": "scan"},
    ),
    "missing_primes_unbounded": (
        MissingPrimes((2,)),
        {"kind": "missing_primes", "missing": [2], "scan_bound": None, "note": ""},
    ),
    "infinitely_many_missing": (
        InfinitelyManyMissing("no endomorphism norms", (3, 7, 11)),
        {"kind": "infinitely_many_missing", "reason": "no endomorphism norms", "missing_examples": [3, 7, 11]},
    ),
    "squares_only": (
        SquaresOnly("negative section square"),
        {"kind": "squares_only", "reason": "negative section square"},
    ),
    "finite_candidate_primes": (
        FiniteCandidatePrimes(frozenset({11, 2, 3}), note="wall candidates"),
        {"kind": "finite_candidate_primes", "candidates": [2, 3, 11], "note": "wall candidates"},
    ),
}


@pytest.mark.parametrize("name", sorted(PAYLOADS))
def test_verdict_payload_matches_schema(name):
    verdict, expected = PAYLOADS[name]
    assert verdict_to_payload(verdict) == expected


def test_payload_is_json_safe():
    desc = EllipticBundleDescriptor(
        CurveModel.cm(GAUSS), SplitTorsion(TorsionPoint(5, (1, 2)))
    )
    verdict = admits_all_degrees(desc)
    assert isinstance(verdict, AllDegrees) and verdict.certificate is not None
    for p in (verdict_to_payload(verdict), *(expected for _, expected in PAYLOADS.values())):
        assert json.loads(json.dumps(p)) == p


def test_to_payload_rejects_other_objects():
    with pytest.raises(TypeError):
        verdict_to_payload(CERTIFICATE)
    with pytest.raises(TypeError):
        witness_to_payload(AllDegrees())
