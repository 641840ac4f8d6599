import hashlib
import json
import random
import tracemalloc
from math import gcd, isqrt

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from oracles import scan_witnesses

from selfmaps import elliptic_pbundle, qorders
from selfmaps.cm_elliptic import (
    CurveModel,
    TorsionPoint,
    aut_group,
    endomorphisms_of_degree,
    dual,
    kernel_on_torsion,
    pullback_exponent,
    torsion_action,
)
from selfmaps.elliptic_pbundle import (
    ISOGENY,
    SCAN_BOUND_CAP,
    AtiyahDegreeOne,
    AtiyahDegreeZero,
    EllipticBundleDescriptor,
    SplitNonTorsion,
    SplitNonzeroDegree,
    SplitTorsion,
    admits_all_degrees,
    exceptional_triples,
    matching_exceptional_family,
    nonsplit_verdict,
    prime_achievable,
    _aut_routes,
    _decide,
    _first_isogenies,
    _working_classes,
    scan_primes,
)
from selfmaps.qorders import OrderParams, QuadElem, coset_blocks, norm, primes_up_to
from selfmaps.verdicts import (
    AllDegrees,
    AutRoute,
    InfinitelyManyMissing,
    IsogenyRoute,
    MissingPrimes,
    PrimeDecision,
    SquaresOnly,
    TorsionMultiple,
    verdict_to_payload,
)

GAUSS = OrderParams(0, 1)
EISENSTEIN = OrderParams(1, 1)
DISC8 = OrderParams(0, 2)
DISC7 = OrderParams(1, 2)

ALL_CURVES = (
    CurveModel.no_cm(),
    CurveModel.cm(GAUSS),
    CurveModel.cm(EISENSTEIN),
    CurveModel.cm(DISC8),
    CurveModel.cm(DISC7),
)


def split_desc(curve: CurveModel, k: int, v) -> EllipticBundleDescriptor:
    return EllipticBundleDescriptor(curve=curve, bundle=SplitTorsion(TorsionPoint(k, v)))


def test_split_torsion_normalizes_to_exact_order():
    bundle = SplitTorsion(TorsionPoint(4, (2, 0)))
    assert bundle.point == TorsionPoint(2, (1, 0))
    assert bundle.k == 2


def test_prime_achievable_torsion_multiple():
    decision = prime_achievable(split_desc(CurveModel.cm(GAUSS), 5, (1, 2)), 5)
    assert decision.achievable
    assert decision.witness == TorsionMultiple(5)


def test_prime_achievable_aut_route_frozen():
    # first automorphism in scan order with a matching residue is (0, -1),
    # whose pullback exponent on (1, 2) is 3, and 2 = -3 mod 5
    decision = prime_achievable(split_desc(CurveModel.cm(GAUSS), 5, (1, 2)), 2)
    assert decision.witness == AutRoute(QuadElem(GAUSS, 0, -1), 3)


def test_prime_achievable_isogeny_route_frozen():
    # k=4 kernel point over the discriminant -7 order: residues 1, 3 miss
    # p=2, and the norm-2 elements are tried in (y, x) order
    decision = prime_achievable(split_desc(CurveModel.cm(DISC7), 4, (2, 1)), 2)
    assert decision.witness == IsogenyRoute(QuadElem(DISC7, 1, -1), -1)
    assert norm(QuadElem(DISC7, 1, -1)) == 2


def test_prime_achievable_rejections():
    desc = split_desc(CurveModel.cm(GAUSS), 5, (1, 2))
    with pytest.raises(ValueError):
        prime_achievable(desc, 4)
    nontorsion = EllipticBundleDescriptor(CurveModel.cm(GAUSS), SplitNonTorsion())
    with pytest.raises(ValueError):
        prime_achievable(nontorsion, 2)


def test_prime_not_achievable_reasons():
    # order-4 point outside both kernels on the square-lattice curve
    decision = prime_achievable(split_desc(CurveModel.cm(GAUSS), 4, (1, 0)), 2)
    assert not decision.achievable and decision.reason == "no_isogeny"
    decision = prime_achievable(split_desc(CurveModel.no_cm(), 5, (1, 0)), 2)
    assert not decision.achievable and decision.reason == "no_residue"


def test_scan_trivial_bundle_has_no_missing():
    for curve in ALL_CURVES:
        report = scan_primes(split_desc(curve, 1, (0, 0)), 100)
        assert list(scan_witnesses(report)) == primes_up_to(100)
        assert report.missing == ()
        assert all(w == TorsionMultiple(1) for w in scan_witnesses(report).values())


def test_scan_rejects_tiny_bound():
    with pytest.raises(ValueError):
        scan_primes(split_desc(CurveModel.no_cm(), 1, (0, 0)), 1)


def test_scan_no_cm_level_five():
    report = scan_primes(split_desc(CurveModel.no_cm(), 5, (1, 0)), 100)
    assert set(report.missing) == {p for p in primes_up_to(100) if p % 5 in (2, 3)}
    assert {2, 3, 7} <= set(report.missing)


def test_exceptional_triples_frozen():
    families = exceptional_triples()
    assert [(f.order, f.k, (f.kernel_element.x, f.kernel_element.y)) for f in families] == [
        (DISC7, 4, (1, 1)),
        (DISC7, 4, (2, -1)),
        (GAUSS, 5, (2, 1)),
        (GAUSS, 5, (2, -1)),
        (EISENSTEIN, 7, (2, 1)),
        (EISENSTEIN, 7, (3, -1)),
    ]
    assert [f.degree for f in families] == [4, 4, 5, 5, 7, 7]
    for family in families:
        assert norm(family.kernel_element) == family.degree
        kernel = kernel_on_torsion(family.kernel_element, family.k)
        assert len(kernel) in (family.k, family.degree)


def _exact_kernel_points(family):
    kernel = kernel_on_torsion(family.kernel_element, family.k)
    return [TorsionPoint(family.k, v) for v in kernel if gcd(gcd(*v), family.k) == 1]


def test_exceptional_families_scan_clean():
    for family in exceptional_triples():
        curve = CurveModel.cm(family.order)
        points = _exact_kernel_points(family)
        assert points, family
        for point in points:
            desc = EllipticBundleDescriptor(curve, SplitTorsion(point))
            assert matching_exceptional_family(desc) == family
            report = scan_primes(desc, 500)
            assert report.missing == (), (family, point)


def test_admits_all_degrees_on_exceptional_families():
    for family in exceptional_triples():
        curve = CurveModel.cm(family.order)
        point = _exact_kernel_points(family)[0]
        verdict = admits_all_degrees(EllipticBundleDescriptor(curve, SplitTorsion(point)))
        assert isinstance(verdict, AllDegrees)
        cert = verdict.certificate
        assert cert is not None and cert.k == family.k
        expected_residues = {r for r in range(family.k) if gcd(r, family.k) == 1}
        assert set(cert.residue_witnesses) == expected_residues
        assert set(cert.special_witnesses) == {
            p for p in primes_up_to(family.k) if family.k % p == 0
        }


def test_admits_all_degrees_small_torsion():
    for curve in ALL_CURVES:
        for k, v in ((1, (0, 0)), (2, (1, 0)), (2, (1, 1)), (3, (1, 0)), (3, (2, 1))):
            verdict = admits_all_degrees(split_desc(curve, k, v))
            assert isinstance(verdict, AllDegrees), (curve, k, v)


def test_admits_all_degrees_missing_cases():
    verdict = admits_all_degrees(split_desc(CurveModel.no_cm(), 4, (1, 0)))
    assert isinstance(verdict, MissingPrimes)
    assert verdict.missing == (2,)

    verdict = admits_all_degrees(split_desc(CurveModel.cm(GAUSS), 4, (1, 0)))
    assert isinstance(verdict, MissingPrimes)
    assert verdict.missing == (2,)

    verdict = admits_all_degrees(split_desc(CurveModel.no_cm(), 6, (1, 0)))
    assert isinstance(verdict, MissingPrimes)
    assert {2, 3} <= set(verdict.missing)

    verdict = admits_all_degrees(split_desc(CurveModel.no_cm(), 5, (1, 0)))
    assert isinstance(verdict, MissingPrimes)
    assert verdict.missing[0] == 2


def _orbit_representatives(curve: CurveModel, k: int):
    actions = [torsion_action(phi, k) for phi in aut_group(curve)]
    points = sorted(
        (a, b) for a in range(k) for b in range(k) if gcd(gcd(a, b), k) == 1
    )
    seen = set()
    for v in points:
        if v in seen:
            continue
        for action in actions:
            seen.add(action.apply_mod(v, k))
        yield v


def test_classification_matches_exceptional_grid():
    # every curve model, every torsion level up to 8, every exact-order
    # point up to unit action: all degrees exactly for k <= 3 and the
    # six exceptional families, with a small missing prime otherwise
    for curve in ALL_CURVES:
        for k in range(1, 9):
            for v in _orbit_representatives(curve, k):
                desc = split_desc(curve, k, v)
                verdict = admits_all_degrees(desc)
                expect_all = k <= 3 or matching_exceptional_family(desc) is not None
                assert isinstance(verdict, AllDegrees) == expect_all, (curve, k, v)
                if not expect_all:
                    assert verdict.missing[0] <= 13, (curve, k, v, verdict.missing)


def test_witness_soundness_on_scans():
    descs = [
        split_desc(CurveModel.cm(GAUSS), 5, (1, 2)),
        split_desc(CurveModel.cm(DISC7), 4, (2, 1)),
        split_desc(CurveModel.cm(EISENSTEIN), 7, (4, 1)),
        split_desc(CurveModel.cm(DISC8), 3, (1, 1)),
        split_desc(CurveModel.no_cm(), 2, (0, 1)),
    ]
    for desc in descs:
        k = desc.bundle.k
        report = scan_primes(desc, 200)
        assert list(scan_witnesses(report)) == primes_up_to(200)
        for p, w in scan_witnesses(report).items():
            if w is None:
                continue
            if isinstance(w, TorsionMultiple):
                assert p % w.k == 0
            elif isinstance(w, AutRoute):
                assert pullback_exponent(w.phi, desc.bundle.point) == w.m
                assert p % k in (w.m % k, -w.m % k)
            else:
                assert isinstance(w, IsogenyRoute)
                assert norm(w.alpha) == p
                expected = 1 % k if w.sign == 1 else (k - 1) % k
                assert pullback_exponent(w.alpha, desc.bundle.point) == expected


def _reference_decision(desc, p):
    """The per-prime rule spelled out: every automorphism's pullback exponent
    in aut_group order, then the brute-force norm-p elements."""
    point = desc.bundle.point
    k = point.k
    if p % k == 0:
        return PrimeDecision(prime=p, k=k, achievable=True, witness=TorsionMultiple(k))
    for phi in aut_group(desc.curve):
        m = pullback_exponent(phi, point)
        if m is not None and (p % k == m or (p + m) % k == 0):
            return PrimeDecision(prime=p, k=k, achievable=True, witness=AutRoute(phi, m))
    candidates = endomorphisms_of_degree(desc.curve, p)
    for alpha in candidates:
        m = pullback_exponent(alpha, point)
        if m == 1 % k:
            return PrimeDecision(prime=p, k=k, achievable=True, witness=IsogenyRoute(alpha, 1))
        if m == (k - 1) % k:
            return PrimeDecision(prime=p, k=k, achievable=True, witness=IsogenyRoute(alpha, -1))
    reason = "no_isogeny" if candidates else "no_residue"
    return PrimeDecision(prime=p, k=k, achievable=False, reason=reason)


def test_scan_table_matches_per_prime_rule():
    # one seeded exact-order point per (curve, k); scan_primes shares one
    # residue table and one lattice pass for the isogeny route, the
    # reference uses neither
    rng = random.Random(3)
    curves = ALL_CURVES + (CurveModel.cm(OrderParams(0, 5)), CurveModel.cm(OrderParams(0, 6)))
    primes = primes_up_to(3000)
    for curve in curves:
        for k in range(1, 13):
            points = [(a, b) for a in range(k) for b in range(k) if gcd(gcd(a, b), k) == 1]
            desc = split_desc(curve, k, rng.choice(points))
            report = scan_primes(desc, 3000)
            # scan_witnesses builds the whole dict on each call
            witnesses = scan_witnesses(report)
            assert list(witnesses) == primes
            missing = set(report.missing)
            for p in primes:
                decision = prime_achievable(desc, p)
                assert decision == _reference_decision(desc, p), (curve, k, p)
                assert witnesses[p] == decision.witness, (curve, k, p)
                assert (p in missing) == (not decision.achievable), (curve, k, p)


def isogeny_routes(curve, columns) -> dict:
    """_first_isogenies' columns as a {prime: IsogenyRoute} dict."""
    return {p: IsogenyRoute(QuadElem(curve.order, x, y), sign) for p, x, y, sign in zip(*(c.tolist() for c in columns))}


SCAN_CURVES = ALL_CURVES + (CurveModel.cm(OrderParams(0, 5)), CurveModel.cm(OrderParams(0, 6)))


@st.composite
def scan_cases(draw, max_k=13):
    curve = draw(st.sampled_from(SCAN_CURVES))
    k = draw(st.integers(1, max_k))
    points = [(a, b) for a in range(k) for b in range(k) if gcd(gcd(a, b), k) == 1]
    bound = draw(st.one_of(st.integers(2, 1000), st.integers(10_000, 20_000)))
    return curve, k, draw(st.sampled_from(points)), bound


@settings(max_examples=60, deadline=None)
@given(scan_cases())
# the first example once gave a wrong witness
@example((CurveModel.cm(DISC7), 8, (0, 1), 10_000))
@example((CurveModel.cm(OrderParams(0, 5)), 7, (1, 0), 20_000))
@example((CurveModel.cm(OrderParams(0, 6)), 13, (1, 3), 20_000))
def test_scan_matches_per_prime_oracle(case):
    curve, k, v, bound = case
    desc = split_desc(curve, k, v)
    point = desc.bundle.point
    routes = _aut_routes(curve, point)
    report = scan_primes(desc, bound)
    missing = set(report.missing)
    primes = primes_up_to(bound)
    # scan_witnesses builds the whole dict on each call
    witnesses = scan_witnesses(report)
    assert list(witnesses) == primes
    for p in primes:
        decision = _decide(curve, point, routes, p)
        assert witnesses[p] == decision.witness, (p, decision)
        assert (p in missing) == (not decision.achievable), (p, decision)


@settings(max_examples=40, deadline=None)
@given(scan_cases())
@example((CurveModel.cm(DISC7), 8, (0, 1), 10_000))
@example((CurveModel.cm(GAUSS), 7, (1, 0), 20_000))
def test_lattice_pass_matches_the_oracle_across_block_seams(case):
    curve, k, v, bound = case
    point = split_desc(curve, k, v).bundle.point
    routes = _aut_routes(curve, point)
    needed = [p for p in primes_up_to(bound) if p % k and p % k not in routes]
    expected = {p: _decide(curve, point, routes, p).witness for p in needed}
    expected = {p: w for p, w in expected.items() if w is not None}
    # blocks of one nonempty row each, of several rows, and of the default size
    for budget in (1, 50, qorders._BLOCK_POINTS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qorders, "_BLOCK_POINTS", budget)
            assert isogeny_routes(curve, _first_isogenies(curve, point, needed, bound)) == expected, budget


MISSING_CURVES = ALL_CURVES + (CurveModel.cm(OrderParams(0, 5)),)


@st.composite
def missing_cases(draw):
    curve = draw(st.sampled_from(MISSING_CURVES))
    k = draw(st.integers(1, 13))
    points = [(a, b) for a in range(k) for b in range(k) if gcd(gcd(a, b), k) == 1]
    return curve, k, draw(st.sampled_from(points)), draw(st.integers(2, 3000))


@settings(max_examples=60, deadline=None)
@given(missing_cases())
def test_scan_missing_matches_the_per_prime_oracle(case):
    curve, k, v, bound = case
    desc = split_desc(curve, k, v)
    oracle = [p for p in primes_up_to(bound) if not prime_achievable(desc, p).achievable]
    missing = scan_primes(desc, bound).missing
    # a caller's own unit routes give the same primes
    assert missing == scan_primes(desc, bound, routes=_aut_routes(curve, desc.bundle.point)).missing
    assert list(missing) == oracle


@pytest.mark.parametrize(
    "desc, bound, message",
    [
        (split_desc(CurveModel.cm(GAUSS), 7, (1, 0)), 1, "need bound >= 2, got 1"),
        (
            split_desc(CurveModel.cm(GAUSS), 7, (1, 0)),
            SCAN_BOUND_CAP + 1,
            f"bound {SCAN_BOUND_CAP + 1} is above the scan cap {SCAN_BOUND_CAP}",
        ),
        (
            EllipticBundleDescriptor(CurveModel.cm(GAUSS), SplitNonTorsion()),
            100,
            "per-prime decisions apply to split torsion bundles, got SplitNonTorsion",
        ),
    ],
    ids=["bound-1", "above-cap", "not-split-torsion"],
)
def test_scan_primes_rejects_bad_input(desc, bound, message):
    for routes in (None, {}):
        with pytest.raises(ValueError) as error:
            scan_primes(desc, bound, routes=routes)
        assert str(error.value) == message


@pytest.mark.parametrize(
    "k, v, verdict_type", [(5, (1, 2), AllDegrees), (7, (1, 0), MissingPrimes)], ids=["certificate", "missing"]
)
def test_admits_all_degrees_builds_the_unit_routes_once(monkeypatch, k, v, verdict_type):
    calls = []

    def counting(curve, point):
        calls.append(point)
        return _aut_routes(curve, point)

    monkeypatch.setattr(elliptic_pbundle, "_aut_routes", counting)
    verdict = admits_all_degrees(split_desc(CurveModel.cm(GAUSS), k, v))
    assert isinstance(verdict, verdict_type)
    assert len(calls) == 1


LARGE_LEVEL_PARAMS = [
    # beta = -50 - 7i of norm 2549 fixes v mod norm(beta - 1) = 2650,
    # the largest k at which the lattice pass still runs for this bound
    (2650, (7, 2599), 2549, True),
    (2651, (7, 2599), 2549, False),
    # far above the limit the pass is skipped, so residues this large
    # never reach its int64 products
    (2**40 + 15, (2**40 + 14, 2**40 + 13), 3000, False),
]


@pytest.mark.parametrize("k, v, bound, found", LARGE_LEVEL_PARAMS)
def test_lattice_pass_at_large_torsion_levels(k, v, bound, found):
    curve, point = CurveModel.cm(GAUSS), TorsionPoint(k, v)
    needed = [p for p in primes_up_to(bound) if p % k != 0]
    expected = {p: _decide(curve, point, {}, p).witness for p in needed}
    expected = {p: w for p, w in expected.items() if w is not None}
    assert bool(expected) == found
    assert isogeny_routes(curve, _first_isogenies(curve, point, needed, bound)) == expected


LARGE_LEVEL_CASES = [(CurveModel.cm(GAUSS), k, v, bound) for k, v, bound, _ in LARGE_LEVEL_PARAMS]


def _working_residues(curve, point, bound) -> set:
    """R of _working_classes, empty where no point works."""
    working = _working_classes(curve.order, point, bound) if curve.has_cm else None
    return set() if working is None else set(working[2].tolist())


@settings(max_examples=30, deadline=None)
@given(scan_cases(max_k=60))
@example(LARGE_LEVEL_CASES[0])
@example(LARGE_LEVEL_CASES[1])
@example(LARGE_LEVEL_CASES[2])
def test_no_isogeny_route_outside_the_working_residues(case):
    curve, k, v, bound = case
    point = split_desc(curve, k, v).bundle.point
    routes = _aut_routes(curve, point)
    residues = _working_residues(curve, point, bound)
    outside = [p for p in primes_up_to(bound) if p % k and p % k not in routes and p % k not in residues]
    for p in outside:
        assert _decide(curve, point, routes, p).witness is None, p
    # the filter leaves the lattice pass nothing to find among them
    assert isogeny_routes(curve, _first_isogenies(curve, point, outside, bound)) == {}


@settings(max_examples=40, deadline=None)
@given(scan_cases())
@example(LARGE_LEVEL_CASES[0])
@example(LARGE_LEVEL_CASES[1])
@example(LARGE_LEVEL_CASES[2])
def test_scan_columns_are_the_per_prime_decisions(case):
    curve, k, v, bound = case
    desc = split_desc(curve, k, v)
    point = desc.bundle.point
    routes = _aut_routes(curve, point)
    expected = {p: _decide(curve, point, routes, p).witness for p in primes_up_to(bound)}
    # blocks of one nonempty row each, where later blocks find smaller
    # primes, of several rows, and of the default size
    for budget in (1, 50, qorders._BLOCK_POINTS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qorders, "_BLOCK_POINTS", budget)
            report = scan_primes(desc, bound)
        # one row of isogeny columns per prime with slot ISOGENY
        assert {len(column) for column in report.isogenies} == {int((report.slot == ISOGENY).sum())}
        assert scan_witnesses(report) == expected, budget
        assert report.missing == tuple(p for p, witness in expected.items() if witness is None), budget


def _points(blocks) -> list:
    return [(y, x, m) for ys, xs, norms in blocks for y, x, m in zip(ys.tolist(), xs.tolist(), norms.tolist())]


def _box_walk(order: OrderParams, bound: int) -> list:
    """(y, x, norm) of the points x + y*w with y <= 0 and norm <= bound, in (y, x) order, by a box search."""
    # norm >= 3*y**2/4 and norm >= (x + t*y/2)**2
    y_max = isqrt(4 * bound // 3)
    x_max = isqrt(bound) + y_max // 2 + 1
    t, n = order.t, order.n
    box = ((y, x, x * x + t * x * y + n * y * y) for y in range(-y_max, 1) for x in range(-x_max, x_max + 1))
    return [point for point in box if point[2] <= bound]


@settings(max_examples=40, deadline=None)
@given(scan_cases())
# every row works, in two classes; k = 2, where the two classes are one;
# and k above the limit of _working_classes, where only 1 and -1 work
@example((CurveModel.cm(OrderParams(0, 3)), 13, (7, 1), 20_000))
@example((CurveModel.cm(EISENSTEIN), 2, (1, 1), 3000))
@example((CurveModel.cm(GAUSS), 6, (0, 1), 2))
def test_coset_walk_is_the_full_walk_at_its_working_points(case):
    curve, k, v, bound = case
    assume(curve.has_cm)
    order, point = curve.order, split_desc(curve, k, v).bundle.point
    v = point.v
    b = torsion_action(dual(QuadElem(order, 0, 1)), k).apply_mod(v, k)
    fixed_up_to_sign = {v, ((-v[0]) % k, (-v[1]) % k)}
    expected = [
        (y, x, m)
        for y, x, m in _box_walk(order, bound)
        if ((x * v[0] + y * b[0]) % k, (x * v[1] + y * b[1]) % k) in fixed_up_to_sign
    ]
    # blocks of one nonempty row each, of several rows, and of the default size
    for budget in (1, 50, qorders._BLOCK_POINTS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qorders, "_BLOCK_POINTS", budget)
            working = _working_classes(order, point, bound)
            blocks = [] if working is None else list(coset_blocks(order, working[0], k, working[1]))
        if working is None:
            assert {m for _, _, m in expected} <= {1}
        assert _points(blocks) == ([] if working is None else expected), budget
        assert all(len(ys) <= budget or len(set(ys.tolist())) == 1 for ys, _, _ in blocks), budget


# k = 9,999,971 and k + 2 are prime.  On the order with t = 1, n = k the
# dual of w fixes v = (1, k - 1) mod k, so the row y = -1 works, and
# 2 - w of norm k + 2 is the witness; there n*(y mod k)**2 would be about
# 10**21, past 2**63, where the row's own n*y**2 is k.  An order with
# n >= 2**40 (or 10**30, beyond int64) has only the row y = 0 below the
# bound, so R = {1} and nothing is found.
@pytest.mark.parametrize(
    "order, k, v, bound, needed, residues, found",
    [
        (OrderParams(1, 9_999_971), 9_999_971, (1, 9_999_970), SCAN_BOUND_CAP, [9_999_973, 9_999_991], {0, 1, 2}, True),
        (OrderParams(0, 2**40 + 15), 1009, (1, 0), 3000, [p for p in primes_up_to(3000) if p % 1009], {1}, False),
        (OrderParams(0, 10**30), 1009, (1, 0), 3000, [p for p in primes_up_to(3000) if p % 1009], {1}, False),
    ],
    ids=["n-near-the-cap", "n-2**40", "n-10**30"],
)
def test_lattice_pass_is_exact_for_large_n(order, k, v, bound, needed, residues, found):
    curve, point = CurveModel.cm(order), TorsionPoint(k, v)
    assert _working_residues(curve, point, bound) == residues
    expected = {p: _decide(curve, point, {}, p).witness for p in needed}
    expected = {p: w for p, w in expected.items() if w is not None}
    assert bool(expected) == found
    assert isogeny_routes(curve, _first_isogenies(curve, point, needed, bound)) == expected


def test_scan_bound_cap_checked_before_allocating():
    desc = split_desc(CurveModel.cm(GAUSS), 7, (1, 0))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="scan cap"):
            scan_primes(desc, SCAN_BOUND_CAP + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


# sha256 of the verdict payloads of every curve model x k <= 8 x unit
# orbit of exact-order points (the necessity grid) plus every exact-order
# kernel point of the exceptional families, as computed by the per-prime
# rule before the residue table was shared.
CERTIFICATE_GRID_SHA256 = "b275b97b5a30263e9d9a63958a2a74fcf9d8edb8c55977fa8c49c96f09b1c1e3"


def test_certificates_on_grid_unchanged():
    rows = []
    for curve in ALL_CURVES:
        for k in range(1, 9):
            for v in _orbit_representatives(curve, k):
                verdict = admits_all_degrees(split_desc(curve, k, v))
                rows.append([repr(curve), k, list(v), verdict_to_payload(verdict)])
    for family in exceptional_triples():
        curve = CurveModel.cm(family.order)
        for point in _exact_kernel_points(family):
            verdict = admits_all_degrees(EllipticBundleDescriptor(curve, SplitTorsion(point)))
            rows.append([repr(curve), family.k, list(point.v), verdict_to_payload(verdict)])
    assert len(rows) == 356
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == CERTIFICATE_GRID_SHA256


def test_nonsplit_atiyah_degree_zero():
    desc = EllipticBundleDescriptor(CurveModel.cm(GAUSS), AtiyahDegreeZero())
    verdict = nonsplit_verdict(desc)
    assert isinstance(verdict, InfinitelyManyMissing)
    assert verdict.missing_examples == tuple(p for p in primes_up_to(1000) if p % 4 == 3)


def test_nonsplit_nontorsion_over_no_cm_misses_everything():
    desc = EllipticBundleDescriptor(CurveModel.no_cm(), SplitNonTorsion())
    verdict = nonsplit_verdict(desc, bound=100)
    assert isinstance(verdict, InfinitelyManyMissing)
    assert verdict.missing_examples == tuple(primes_up_to(100))


def test_nonsplit_atiyah_degree_one():
    desc = EllipticBundleDescriptor(CurveModel.no_cm(), AtiyahDegreeOne())
    verdict = nonsplit_verdict(desc)
    assert isinstance(verdict, MissingPrimes)
    assert verdict.missing == (2,)


def test_nonsplit_nonzero_degree_squares_only():
    for degree in (3, -2):
        desc = EllipticBundleDescriptor(CurveModel.no_cm(), SplitNonzeroDegree(degree))
        verdict = nonsplit_verdict(desc)
        assert isinstance(verdict, SquaresOnly)
        assert str(-abs(degree)) in verdict.reason


def test_nonsplit_rejects_torsion_descriptor():
    with pytest.raises(ValueError):
        nonsplit_verdict(split_desc(CurveModel.no_cm(), 2, (1, 0)))
    with pytest.raises(ValueError):
        SplitNonzeroDegree(0)
