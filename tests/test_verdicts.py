import pytest

from selfmaps.cm_elliptic import CurveModel, TorsionPoint
from selfmaps.elliptic_pbundle import (
    EllipticBundleDescriptor,
    SplitTorsion,
    admits_all_degrees,
)
from selfmaps.qorders import OrderParams
from selfmaps.verdicts import (
    AllDegrees,
    FiniteCandidatePrimes,
    InfinitelyManyMissing,
    MissingPrimes,
    SquaresOnly,
    verdict_from_payload,
    verdict_to_payload,
)

GAUSS = OrderParams(0, 1)


def roundtrip(verdict):
    payload = verdict_to_payload(verdict)
    assert payload["kind"] == verdict.kind
    return verdict_from_payload(payload)


def test_simple_verdict_roundtrips():
    for verdict in (
        AllDegrees(note="small torsion"),
        MissingPrimes((2, 3), scan_bound=1000, note="scan"),
        MissingPrimes((2,)),
        InfinitelyManyMissing("no endomorphism norms", (3, 7, 11)),
        SquaresOnly("negative section square"),
        FiniteCandidatePrimes(frozenset({2, 3}), note="wall candidates"),
    ):
        assert roundtrip(verdict) == verdict


def test_certificate_roundtrip_from_classifier():
    desc = EllipticBundleDescriptor(
        CurveModel.cm(GAUSS), SplitTorsion(TorsionPoint(5, (1, 2)))
    )
    verdict = admits_all_degrees(desc)
    assert isinstance(verdict, AllDegrees) and verdict.certificate is not None
    again = roundtrip(verdict)
    assert again == verdict
    assert again.certificate.residue_witnesses == verdict.certificate.residue_witnesses
    assert again.certificate.special_witnesses == verdict.certificate.special_witnesses


def test_payload_is_json_safe():
    import json

    desc = EllipticBundleDescriptor(
        CurveModel.cm(GAUSS), SplitTorsion(TorsionPoint(5, (1, 2)))
    )
    payload = verdict_to_payload(admits_all_degrees(desc))
    text = json.dumps(payload, sort_keys=True)
    assert verdict_from_payload(json.loads(text)) == verdict_from_payload(payload)


def test_from_payload_rejects_unknown_kind():
    with pytest.raises(ValueError):
        verdict_from_payload({"kind": "sideways"})
