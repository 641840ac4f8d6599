"""Built-in claim battery: one deterministic check per headline fact.

Every check recomputes its claim from scratch through the public API
and compares against an independently stated expectation (frozen
tables, congruence oracles, seeded random sweeps).  The command line
runs the battery behind `verify-paper`; the test suite asserts each
claim on its own.  Two runs produce identical reports: the only
randomness is seeded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from math import gcd
from typing import Callable, Iterator

import numpy as np

from .cm_elliptic import (
    CurveModel,
    TorsionPoint,
    aut_group,
    kernel_on_torsion,
    torsion_action,
)
from .elliptic_pbundle import (
    AtiyahDegreeZero,
    EllipticBundleDescriptor,
    ExceptionalFamily,
    SplitTorsion,
    admits_all_degrees,
    exceptional_triples,
    matching_exceptional_family,
    nonsplit_verdict,
    scan_primes,
)
from .group_condition import (
    build_cyclic,
    build_semidirect,
    conjugation_rho,
    find_cyclic_subgroups,
    rho_bar_surjective,
)
from .ns_lattice import EndoOnNS, NSClass, atiyah_deg2_search
from .qorders import (
    OrderParams,
    QuadElem,
    degree_two_table,
    primes_up_to,
    represented_norms,
    split_symbols,
)
from .toric import PROJECTIVE_PLANE, blow_up, hirzebruch, self_intersections, toric_verdict, validate_fan
from .verdicts import AllDegrees, FiniteCandidatePrimes, InfinitelyManyMissing, MissingPrimes

GAUSS = OrderParams(0, 1)
EISENSTEIN = OrderParams(1, 1)
DISC8 = OrderParams(0, 2)
DISC7 = OrderParams(1, 2)

TEST_CURVES = (
    CurveModel.no_cm(),
    CurveModel.cm(GAUSS),
    CurveModel.cm(EISENSTEIN),
    CurveModel.cm(DISC8),
    CurveModel.cm(DISC7),
)


@dataclass(frozen=True)
class ClaimResult:
    name: str
    passed: bool
    detail: str

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"


def _exact_order_orbits(curve: CurveModel, k: int) -> Iterator[tuple[int, int]]:
    """Exact-order-k points, one representative per unit orbit."""
    actions = [torsion_action(phi, k) for phi in aut_group(curve)]
    seen: set[tuple[int, int]] = set()
    points = sorted(
        (a, b) for a in range(k) for b in range(k) if gcd(gcd(a, b), k) == 1
    )
    for v in points:
        if v in seen:
            continue
        for action in actions:
            seen.add(action.apply_mod(v, k))
        yield v


def _exact_kernel_point(family: ExceptionalFamily) -> TorsionPoint | None:
    for v in kernel_on_torsion(family.kernel_element, family.k):
        if gcd(gcd(*v), family.k) == 1:
            return TorsionPoint(family.k, v)
    return None


def _check_degree_two_table() -> tuple[bool, str]:
    table = degree_two_table(10)
    nonempty = {order: elems for order, elems in table.items() if elems}
    expected = {
        GAUSS: tuple(
            QuadElem(GAUSS, x, y) for x, y in ((-1, -1), (1, -1), (-1, 1), (1, 1))
        ),
        DISC8: tuple(QuadElem(DISC8, x, y) for x, y in ((0, -1), (0, 1))),
        DISC7: tuple(
            QuadElem(DISC7, x, y) for x, y in ((0, -1), (1, -1), (-1, 1), (0, 1))
        ),
    }
    if nonempty != expected:
        got = sorted((o.t, o.n) for o in nonempty)
        return False, f"nonempty rows at {got}, expected (0,1), (0,2), (1,2)"
    return True, "nonempty rows exactly at discriminants -4, -7, -8 with the frozen element sets"


def _check_exceptional_families(families: tuple[ExceptionalFamily, ...]) -> tuple[bool, str]:
    for family in families:
        label = f"disc {family.order.discriminant} k={family.k}"
        point = _exact_kernel_point(family)
        if point is None:
            return False, f"{label}: kernel has no point of exact order {family.k}"
        desc = EllipticBundleDescriptor(CurveModel.cm(family.order), SplitTorsion(point))
        missing = scan_primes(desc, 10_000).missing
        if missing:
            return False, f"{label}: scan to 10000 misses {missing[:5]}"
        verdict = admits_all_degrees(desc)
        if not isinstance(verdict, AllDegrees) or verdict.certificate is None:
            return False, f"{label}: no all-degrees certificate"
        wanted = {r for r in range(family.k) if gcd(r, family.k) == 1}
        if set(verdict.certificate.residue_witnesses) != wanted:
            return False, f"{label}: certificate not residue-complete"
    return True, "6 kernel descriptors scan clean to 10000 with residue-complete certificates"


def _check_necessity_grid() -> tuple[bool, str]:
    checked = 0
    for curve in TEST_CURVES:
        for k in range(4, 9):
            for v in _exact_order_orbits(curve, k):
                desc = EllipticBundleDescriptor(curve, SplitTorsion(TorsionPoint(k, v)))
                if matching_exceptional_family(desc) is not None:
                    continue
                verdict = admits_all_degrees(desc)
                if not isinstance(verdict, MissingPrimes):
                    return False, f"{curve} k={k} L={v}: expected a missing prime"
                if verdict.missing[0] > 13:
                    return False, f"{curve} k={k} L={v}: smallest missing prime {verdict.missing[0]} > 13"
                checked += 1
    return True, f"{checked} non-exceptional descriptors (k = 4..8) each miss a prime <= 13"


def _check_small_torsion() -> tuple[bool, str]:
    scans = 0
    for curve in TEST_CURVES:
        for k in (1, 2, 3):
            for v in _exact_order_orbits(curve, k):
                desc = EllipticBundleDescriptor(curve, SplitTorsion(TorsionPoint(k, v)))
                missing = scan_primes(desc, 10_000).missing
                if missing:
                    return False, f"{curve} k={k} L={v}: missing {missing[:5]}"
                scans += 1
    return True, f"{scans} descriptors with k <= 3 scan clean to 10000"


def _check_atiyah_obstructions() -> tuple[bool, str]:
    hits = atiyah_deg2_search()
    if hits:
        return False, f"degree-2 section equations unexpectedly solvable: {hits}"
    desc = EllipticBundleDescriptor(CurveModel.cm(GAUSS), AtiyahDegreeZero())
    verdict = nonsplit_verdict(desc, bound=1000)
    expected = tuple(p for p in primes_up_to(1000) if p % 4 == 3)
    if not isinstance(verdict, InfinitelyManyMissing):
        return False, "degree-0 indecomposable case did not report infinitely many missing"
    if verdict.missing_examples != expected:
        return False, "inert prime list disagrees with the 3 mod 4 congruence oracle"
    return True, f"degree-2 search empty; {len(expected)} inert primes <= 1000 match p = 3 mod 4"


def _check_toric_verdicts() -> tuple[bool, str]:
    ruled = [validate_fan(hirzebruch(n)) for n in range(6)]
    if not isinstance(toric_verdict(ruled[0]), AllDegrees):
        return False, "product of two lines should admit all degrees"
    plane = validate_fan(PROJECTIVE_PLANE)
    fixed = [("plane", plane)] + [(f"F{n}", ruled[n]) for n in range(1, 6)]
    for label, fan in fixed:
        if toric_verdict(fan).kind != "squares_only":
            return False, f"{label}: expected a squares-only verdict"
    rng = random.Random(6)
    starts = [plane] + ruled
    for trial in range(50):
        fan = rng.choice(starts)
        for _ in range(rng.randint(2, 8)):
            fan = blow_up(fan, rng.randrange(len(fan)))
        selfs = self_intersections(fan)
        if sum(selfs) != 12 - 3 * len(fan):
            return False, f"trial {trial}: self-intersection sum breaks the 12 - 3n identity"
        verdict = toric_verdict(fan)
        if not isinstance(verdict, FiniteCandidatePrimes):
            return False, f"trial {trial}: expected a finite candidate set"
        allowed = {-c for c in selfs if c < 0}
        if not set(verdict.candidates) <= allowed:
            return False, f"trial {trial}: candidate outside the negative curve values"
    return True, "plane and F_1..F_5 squares-only, F_0 all degrees; 50 random blow-up fans sound"


def _check_splitting_oracle() -> tuple[bool, str]:
    orders = (EISENSTEIN, GAUSS, DISC7, DISC8)
    primes = primes_up_to(100_000)
    ps = np.array(primes)
    for order in orders:
        norms = np.frombuffer(represented_norms(order, primes[-1]), dtype=np.uint8)
        # split_symbols cross-checks Euler's criterion against binary Jacobi
        # at every odd prime, and raises on a mismatch
        symbols = split_symbols(order, primes)
        wrong = np.flatnonzero((norms[ps] == 1) != (symbols != -1))
        if len(wrong):
            return False, f"disc {order.discriminant}, p={primes[wrong[0]]}: norm witness disagrees with split type"
        fraction = np.count_nonzero(symbols == 1) / len(primes)
        if abs(fraction - 0.5) >= 0.02:
            return False, f"disc {order.discriminant}: split fraction {fraction:.4f} off 1/2"
    return True, "norm witness = not inert on 4 orders x 9592 primes; split fractions within 0.02 of 1/2"


def _check_group_condition() -> tuple[bool, str]:
    for p in (3, 5, 7, 11, 13):
        if not rho_bar_surjective(build_semidirect(p), p).holds:
            return False, f"semidirect example at p={p} should satisfy the residue condition"
    for p in (2, 3, 5, 7, 11, 13):
        holds = rho_bar_surjective(build_cyclic(p), p).holds
        if holds != (p <= 3):
            return False, f"cyclic group at p={p}: condition holds={holds}"
    for group, p in ((build_semidirect(5), 5), (build_semidirect(7), 7)):
        for sub in find_cyclic_subgroups(group, p):
            rho = conjugation_rho(group, sub)
            members = sorted(rho)
            for a in members:
                for b in members:
                    if rho[group.mul(a, b)] != rho[a] * rho[b] % p:
                        return False, f"exponent map not multiplicative at p={p}"
    return True, "semidirect examples pass for p in 3..13, cyclic groups only for p <= 3, exponent maps multiplicative"


def _check_ns_bookkeeping() -> tuple[bool, str]:
    rng = random.Random(9)
    checked = 0
    while checked < 1000:
        base = rng.randint(1, 30)
        fiber = rng.randint(1, 30)
        e = rng.randint(-5, 5)
        if (e * (base - fiber)) % 2:
            continue
        endo = EndoOnNS.from_degrees(base, fiber, e)
        for c in (NSClass(1, 0, e), NSClass(0, 1, e), NSClass(2, -3, e)):
            image = endo.pushforward_class(endo.pullback_class(c))
            if image != NSClass(endo.degree * c.h, endo.degree * c.f, e):
                return False, f"triple ({base}, {fiber}, {e}): pushforward of pullback is not degree * id"
        checked += 1
    return True, "1000 random integral pullbacks satisfy pushforward after pullback = degree * identity"


def corrupted_families() -> tuple[ExceptionalFamily, ...]:
    """The family table with the first kernel element replaced by 2.

    Multiplication by 2 kills only the 2-torsion, so the corrupted
    family has no kernel point of exact order 4 and the family check
    must fail; used to confirm the battery detects injected faults.
    """
    families = exceptional_triples()
    broken = replace(families[0], kernel_element=QuadElem(DISC7, 2, 0))
    return (broken,) + families[1:]


def run_claims(negative_test: bool = False) -> tuple[ClaimResult, ...]:
    """Run every claim in a fixed order and collect the results."""
    families = corrupted_families() if negative_test else exceptional_triples()
    checks: tuple[tuple[str, Callable[[], tuple[bool, str]]], ...] = (
        ("degree-two-table", _check_degree_two_table),
        ("exceptional-families", lambda: _check_exceptional_families(families)),
        ("necessity-grid", _check_necessity_grid),
        ("small-torsion", _check_small_torsion),
        ("atiyah-obstructions", _check_atiyah_obstructions),
        ("toric-verdicts", _check_toric_verdicts),
        ("splitting-oracle", _check_splitting_oracle),
        ("group-condition", _check_group_condition),
        ("ns-bookkeeping", _check_ns_bookkeeping),
    )
    results = []
    for name, check in checks:
        try:
            passed, detail = check()
        except Exception as exc:  # a crashed check is a failed claim, not a crashed battery
            passed, detail = False, f"unexpected error: {exc!r}"
        results.append(ClaimResult(name, passed, detail))
    return tuple(results)
