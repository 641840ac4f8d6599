"""Oracles that only the tests use, written over the public code of selfmaps."""

from __future__ import annotations

from selfmaps.elliptic_pbundle import ISOGENY, ScanReport
from selfmaps.group_condition import CayleyGroup
from selfmaps.qorders import QuadElem
from selfmaps.verdicts import IsogenyRoute, Witness


def add(a: QuadElem, b: QuadElem) -> QuadElem:
    return QuadElem(a.order, a.x + b.x, a.y + b.y)


def mul(a: QuadElem, b: QuadElem) -> QuadElem:
    t, n = a.order.t, a.order.n
    # (x1 + y1 w)(x2 + y2 w) with w*w = t*w - n
    return QuadElem(a.order, a.x * b.x - n * a.y * b.y, a.x * b.y + a.y * b.x + t * a.y * b.y)


def conjugate(group: CayleyGroup, g: int, x: int) -> int:
    """g * x * g^-1."""
    return int(group.table[group.table[g, x], group.inverse[g]])


def scan_witnesses(report: ScanReport) -> dict[int, Witness | None]:
    """Each prime of the report mapped to its witness or None."""
    found = iter([IsogenyRoute(QuadElem(report.order, x, y), s) for x, y, s in zip(*(c.tolist() for c in report.isogenies))])
    return {p: next(found) if s == ISOGENY else report.routes[s] for p, s in zip(report.primes.tolist(), report.slot.tolist())}
