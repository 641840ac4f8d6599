"""Shared verdict and witness vocabulary for the classifiers.

Every classifier in the package answers with one of five verdicts, and
achievability of a single prime degree is always justified by one of
three routes.  Keeping the vocabulary in one place gives the command
line layer a single JSON mapping, documented in docs/report_schema.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .qorders import QuadElem

__all__ = [
    "TorsionMultiple",
    "AutRoute",
    "IsogenyRoute",
    "Witness",
    "PrimeDecision",
    "DegreeCertificate",
    "AllDegrees",
    "MissingPrimes",
    "InfinitelyManyMissing",
    "SquaresOnly",
    "FiniteCandidatePrimes",
    "Verdict",
    "witness_to_payload",
    "verdict_to_payload",
]


@dataclass(frozen=True)
class TorsionMultiple:
    """Degree divisible by the torsion order: the fiberwise power construction."""

    k: int


@dataclass(frozen=True)
class AutRoute:
    """Base automorphism phi with pullback exponent m; works for every
    degree congruent to m or -m mod k."""

    phi: QuadElem
    m: int


@dataclass(frozen=True)
class IsogenyRoute:
    """Base isogeny alpha whose pullback fixes the bundle (sign +1) or
    inverts it (sign -1); realizes exactly the degree of alpha."""

    alpha: QuadElem
    sign: int


Witness = Union[TorsionMultiple, AutRoute, IsogenyRoute]


@dataclass(frozen=True)
class PrimeDecision:
    prime: int
    k: int
    achievable: bool
    witness: Witness | None = None
    reason: str | None = None  # "no_residue" or "no_isogeny" when unachievable


@dataclass(frozen=True)
class DegreeCertificate:
    """Achievability certificate covering every degree at once.

    residue_witnesses assigns each residue class r coprime to k a route
    valid for every degree in that class; special_witnesses covers the
    finitely many primes dividing k.  Together with multiplicativity of
    degrees this reaches every integer at least 2.
    """

    k: int
    residue_witnesses: dict[int, Witness]
    special_witnesses: dict[int, Witness]


@dataclass(frozen=True)
class AllDegrees:
    certificate: DegreeCertificate | None = None
    note: str = ""

    kind = "all_degrees"


@dataclass(frozen=True)
class MissingPrimes:
    missing: tuple[int, ...]
    scan_bound: int | None = None
    note: str = ""

    kind = "missing_primes"


@dataclass(frozen=True)
class InfinitelyManyMissing:
    reason: str
    missing_examples: tuple[int, ...] = ()

    kind = "infinitely_many_missing"


@dataclass(frozen=True)
class SquaresOnly:
    reason: str = ""

    kind = "squares_only"


@dataclass(frozen=True)
class FiniteCandidatePrimes:
    """Upper bound only: primes outside the set are excluded, membership
    in the set is not an existence claim."""

    candidates: frozenset[int] = field(default_factory=frozenset)
    note: str = ""

    kind = "finite_candidate_primes"


Verdict = Union[
    AllDegrees, MissingPrimes, InfinitelyManyMissing, SquaresOnly, FiniteCandidatePrimes
]


def _elem_to_payload(elem: QuadElem) -> dict:
    return {"t": elem.order.t, "n": elem.order.n, "x": elem.x, "y": elem.y}


def witness_to_payload(witness: Witness) -> dict:
    if isinstance(witness, TorsionMultiple):
        return {"route": "torsion_multiple", "k": witness.k}
    if isinstance(witness, AutRoute):
        return {"route": "aut", "phi": _elem_to_payload(witness.phi), "exponent": witness.m}
    if isinstance(witness, IsogenyRoute):
        return {"route": "isogeny", "alpha": _elem_to_payload(witness.alpha), "sign": witness.sign}
    raise TypeError(f"not a witness: {witness!r}")


def _certificate_to_payload(cert: DegreeCertificate) -> dict:
    return {
        "k": cert.k,
        "residues": {
            str(r): witness_to_payload(w) for r, w in sorted(cert.residue_witnesses.items())
        },
        "special_primes": {
            str(p): witness_to_payload(w) for p, w in sorted(cert.special_witnesses.items())
        },
    }


def verdict_to_payload(verdict: Verdict) -> dict:
    if isinstance(verdict, AllDegrees):
        return {
            "kind": verdict.kind,
            "certificate": None
            if verdict.certificate is None
            else _certificate_to_payload(verdict.certificate),
            "note": verdict.note,
        }
    if isinstance(verdict, MissingPrimes):
        return {
            "kind": verdict.kind,
            "missing": list(verdict.missing),
            "scan_bound": verdict.scan_bound,
            "note": verdict.note,
        }
    if isinstance(verdict, InfinitelyManyMissing):
        return {
            "kind": verdict.kind,
            "reason": verdict.reason,
            "missing_examples": list(verdict.missing_examples),
        }
    if isinstance(verdict, SquaresOnly):
        return {"kind": verdict.kind, "reason": verdict.reason}
    if isinstance(verdict, FiniteCandidatePrimes):
        return {
            "kind": verdict.kind,
            "candidates": sorted(verdict.candidates),
            "note": verdict.note,
        }
    raise TypeError(f"not a verdict: {verdict!r}")

