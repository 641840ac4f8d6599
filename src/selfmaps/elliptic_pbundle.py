"""Degree classification for P^1-bundles over elliptic curves.

A rank-2 bundle on an elliptic curve is either split, O + L with L of
some degree, or one of the two indecomposable Atiyah extensions.  The
split torsion case is the interesting one: whether the projectivized
bundle carries a self-map of prime degree p comes down to three
concrete routes, each a statement about the curve's endomorphisms and
the torsion point defining L.  Everything else reduces to a fixed
verdict per bundle shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt
from typing import TYPE_CHECKING, Sequence, Union

if TYPE_CHECKING:
    import numpy as np

from .cm_elliptic import (
    CurveModel,
    TorsionPoint,
    aut_group,
    dual,
    endomorphisms_of_degree,
    kernel_on_torsion,
    normalize_point,
    pullback_exponent,
    torsion_action,
    unit_covector,
)
from .ns_lattice import atiyah_deg2_search, square_degree_certificate
from .qorders import (
    _SIEVE_CAP,
    NotPrimeError,
    OrderParams,
    QuadElem,
    _small_prime_flags,
    conjugate,
    coset_blocks,
    is_prime,
    norm,
    norm_rows,
    prime_array,
    primes_up_to,
    represented_norms,
)
from .verdicts import (
    AllDegrees,
    AutRoute,
    DegreeCertificate,
    InfinitelyManyMissing,
    IsogenyRoute,
    MissingPrimes,
    PrimeDecision,
    SquaresOnly,
    TorsionMultiple,
    Verdict,
    Witness,
)

__all__ = [
    "SplitTorsion",
    "SplitNonTorsion",
    "SplitNonzeroDegree",
    "AtiyahDegreeZero",
    "AtiyahDegreeOne",
    "BundleModel",
    "EllipticBundleDescriptor",
    "ExceptionalFamily",
    "ScanReport",
    "SCAN_BOUND_CAP",
    "prime_achievable",
    "scan_primes",
    "admits_all_degrees",
    "nonsplit_verdict",
    "exceptional_triples",
    "matching_exceptional_family",
]


@dataclass(frozen=True)
class SplitTorsion:
    """P(O + L) with L torsion; the point is normalized to its exact order."""

    point: TorsionPoint

    def __post_init__(self) -> None:
        object.__setattr__(self, "point", normalize_point(self.point))

    @property
    def k(self) -> int:
        return self.point.k


@dataclass(frozen=True)
class SplitNonTorsion:
    """P(O + L) with deg L = 0 and L of infinite order."""


@dataclass(frozen=True)
class SplitNonzeroDegree:
    """P(O + L) with deg L nonzero."""

    degree: int

    def __post_init__(self) -> None:
        if self.degree == 0:
            raise ValueError("degree 0 bundles are the torsion/nontorsion cases")


@dataclass(frozen=True)
class AtiyahDegreeZero:
    """Projectivization of the nontrivial self-extension of O."""


@dataclass(frozen=True)
class AtiyahDegreeOne:
    """Projectivization of the nontrivial extension of a degree-1 bundle by O."""


BundleModel = Union[
    SplitTorsion, SplitNonTorsion, SplitNonzeroDegree, AtiyahDegreeZero, AtiyahDegreeOne
]


@dataclass(frozen=True)
class EllipticBundleDescriptor:
    curve: CurveModel
    bundle: BundleModel


def _require_split_torsion(desc: EllipticBundleDescriptor) -> SplitTorsion:
    if not isinstance(desc.bundle, SplitTorsion):
        raise ValueError(
            f"per-prime decisions apply to split torsion bundles, got {type(desc.bundle).__name__}"
        )
    return desc.bundle


def _aut_routes(curve: CurveModel, point: TorsionPoint) -> dict[int, AutRoute]:
    """Residue mod k -> the automorphism route covering that class of degrees.

    An automorphism with pullback exponent m covers the degrees congruent
    to m or -m mod k.  Automorphisms are tried in aut_group order and each
    residue keeps the first one that reaches it, m before -m; the two
    residues of one automorphism share its AutRoute object.
    """
    routes: dict[int, AutRoute] = {}
    for phi in aut_group(curve):
        m = pullback_exponent(phi, point)
        if m is not None:
            route = AutRoute(phi, m)
            for r in (m, (-m) % point.k):
                routes.setdefault(r, route)
    return routes


def _decide(
    curve: CurveModel, point: TorsionPoint, routes: dict[int, AutRoute], p: int
) -> PrimeDecision:
    """prime_achievable for a prime p, given the descriptor's _aut_routes table.

    An isogeny alpha fixes L up to inverse when its dual sends v to v or
    -v mod k; v has exact order k, so that is pullback exponent 1 or k-1.
    """
    k = point.k
    r = p % k
    if r == 0:
        return PrimeDecision(prime=p, k=k, achievable=True, witness=TorsionMultiple(k))
    route = routes.get(r)
    if route is not None:
        return PrimeDecision(prime=p, k=k, achievable=True, witness=route)
    candidates = endomorphisms_of_degree(curve, p)
    for alpha in candidates:
        m = pullback_exponent(alpha, point)
        for sign in (1, -1):
            if m == sign % k:
                return PrimeDecision(prime=p, k=k, achievable=True, witness=IsogenyRoute(alpha, sign))
    reason = "no_isogeny" if candidates else "no_residue"
    return PrimeDecision(prime=p, k=k, achievable=False, reason=reason)


def prime_achievable(desc: EllipticBundleDescriptor, p: int) -> PrimeDecision:
    """Decide a single prime degree for a split torsion bundle.

    Route order is fixed and gives deterministic witnesses:
      (a) k divides p: a fiberwise map of degree p exists outright;
      (b) some automorphism phi has pullback exponent m on L with
          p = +-m (mod k): combine a fiber map of degree p with phi;
      (c) some endomorphism alpha of degree p fixes L up to inverse
          (pullback exponent 1 or k-1): the map acts by alpha on the
          base.  Candidates are tried in the elements_of_norm order,
          exponent 1 before k-1.
    A prime with none of these has no self-map of that degree at all,
    because a prime-degree map must be trivial on one of base or fiber.
    """
    bundle = _require_split_torsion(desc)
    if not is_prime(p):
        raise NotPrimeError(f"need a prime degree, got {p!r}")
    return _decide(desc.curve, bundle.point, _aut_routes(desc.curve, bundle.point), p)


# ScanReport.slot of a prime with no route, and of a prime with an isogeny route
NO_ROUTE, ISOGENY = 0, -1


@dataclass(frozen=True, eq=False)
class ScanReport:
    """Each prime up to the scan's bound, in increasing order, with its witness or none, as columns.

    routes holds None, then the distinct torsion and automorphism
    witnesses, and routes[slot[i]] is the witness of primes[i], or None
    when slot[i] is NO_ROUTE; slot ISOGENY marks the primes that take,
    in turn, the rows of isogenies, the arrays (x, y, sign) of
    IsogenyRoute(QuadElem(order, x, y), sign), with order the curve's.
    scan_primes builds it without an object per prime: the CLI writes
    the report from these arrays, and admits_all_degrees and the claims
    read missing.
    """

    primes: np.ndarray
    slot: np.ndarray
    routes: tuple[Witness | None, ...]
    order: OrderParams | None
    isogenies: tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def missing(self) -> tuple[int, ...]:
        """The primes whose slot is NO_ROUTE, in increasing order, built on each call."""
        return tuple(self.primes[self.slot == NO_ROUTE].tolist())


# Largest bound scan_primes accepts, checked before anything is allocated.
# At 10^7, `scan --json` on the Gauss order took 0.59-0.72 s and 114 MB
# peak RSS with k = 5 (every prime achievable, 209 MB of JSON), 0.68-0.71 s
# and 129 MB with k = 7, point (1, 0), and 1.10-1.33 s and 189 MB with
# k = 13, point (1, 8) (147,585 isogeny rows): medians of five fresh runs
# in two records each on a 2-core x86_64.  The text report of the k = 7
# scan took 0.48-0.68 s and 131 MB (five fresh runs).  In process, the scan
# with the text of each prime takes 0.19-0.23 s for k = 5, building the
# pieces 0.04-0.06 s and writing them 0.05-0.06 s; for k = 13, 0.35-0.41 s,
# 0.37-0.50 s and 0.05-0.06 s.  Each grows linearly with the bound.
# The lattice pass of _first_isogenies reads exact int64 points and norms
# from norm_rows and coset_blocks.  Its own int64 products are of two
# residues mod k, y mod k in place of y, so each is below k**2 and each
# sum below 2*k**2, with k at most about bound where it runs.  The one
# exception is n*y**2 in the norm residue, which takes the row's own y:
# it is at most bound + y**2/4 (see norm_rows), whereas n*(y mod k)**2
# could pass 2**63 for an order with n near bound and k near the cap.
# So this cap keeps every value far below 2**63.
SCAN_BOUND_CAP = 10**7


def _working_classes(
    order: OrderParams, point: TorsionPoint, bound: int
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, np.ndarray], np.ndarray] | None:
    """Where an isogeny of norm <= bound can fix the point: rows, classes and norm residues.

    A point x + y*w works when its dual sends v to v or -v mod k.  The
    dual is additive and fixes 1, so it sends v to x*v + y*b, with b the
    image of v under the dual of w.  Take c = unit_covector(point), so
    c.v = 1 mod k, and beta = c.b.  Then x*v = +-v - y*b forces
    x = c.(+-v - y*b) = +-1 - y*beta mod k, the classes x+ and x-, and
    x+- * v - (+-v - y*b) = y*e for both signs, with e = b - beta*v.  So
    the working rows are those with y*e = 0 mod k, the multiples of
    k / gcd(k, e0, e1), each working in both classes.

    Returns those rows of norm_rows(order, bound), their classes (x+, x-)
    as int64 arrays of residues mod k, and R, the norm residues mod k of
    those classes as a sorted int64 array, which holds the residue of
    every working point's norm.  None when k exceeds
    bound + isqrt(4*bound) + 1, where no point of norm 2 to bound works:
    if the dual beta of alpha sends v to +-v, the adjugate of beta -+ 1
    shows that k, the exact order of v, divides the norm of beta -+ 1,
    which is p -+ tr(beta) + 1 with tr(beta)**2 < 4p, so positive for
    p >= 2 and at most that limit.
    """
    k = point.k
    if k > bound + isqrt(4 * bound) + 1:
        return None
    import numpy as np

    v = point.v
    b = torsion_action(dual(QuadElem(order, 0, 1)), k).apply_mod(v, k)
    c = unit_covector(point)
    beta = (c[0] * b[0] + c[1] * b[1]) % k
    rows = norm_rows(order, bound, k // gcd(k, b[0] - beta * v[0], b[1] - beta * v[1]))
    ys, _, _, ny2 = rows
    yr = ys % k
    classes = tuple((sign - yr * beta) % k for sign in (1, -1))
    # x**2 + t*x*y + n*y**2 mod k, with n*y**2 from the row's own y; a set
    # of at most two per row, since np.unique and np.union1d without
    # return_index load numpy.ma (9 ms, 1.4 MB)
    residues = {r for x in classes for r in ((x * x + order.t * x * yr + ny2) % k).tolist()}
    return rows, classes, np.array(sorted(residues), dtype=np.int64)


def _first_isogenies(
    curve: CurveModel, point: TorsionPoint, needed: Sequence[int], bound: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """_decide's isogeny step for every prime in needed, by one pass over the working lattice points.

    needed holds, in increasing order, the primes up to bound that no
    torsion or automorphism route covers.  Returns four int64 arrays: the
    primes of needed that have an isogeny route, in increasing order, and
    the x, y and sign of the IsogenyRoute(QuadElem(curve.order, x, y),
    sign) _decide picks for each.

    Whether x + y*w works, and its norm mod k, depend only on
    (x mod k, y mod k).  _working_classes solves each row once: with
    lambda = unit_covector(point) from one extended gcd, lambda.v = 1 mod
    k, the only working x are x+- = lambda.(+-v - y*b) mod k, b the image
    of v under the dual of w, and a row holds them exactly when
    x+- * v = +-v - y*b.  The norms of those classes mod k form the set R
    of residues that working points can have at all.  A needed prime
    whose residue mod k is not in R has no isogeny route, and is dropped
    before the walk; with none left there is no walk.  When v is an
    eigenvector of the dual of w mod no prime dividing k, only rows
    y = 0 mod k work, with x = +-1 mod k and norm 1 mod k: R = {1}, a
    residue the identity automorphism always covers.

    The walk visits, through coset_blocks, the points of norm <= bound in
    the working classes of each working row, a block of whole rows at a
    time, in (y, x) order, which is the elements_of_norm order in which
    _decide tries its candidates.  Each needed prime takes its first
    working point in that walk, with sign +1 when that point fixes v, as
    _decide tries +1 before -1, and is then dropped from the primes later
    blocks look for.  Only rows y <= 0 are needed: -alpha works exactly
    when alpha does, so the first working point never has y > 0.
    """
    import numpy as np

    needed = np.asarray(needed, dtype=np.int64)
    none = (needed[:0],) * 4
    if not curve.has_cm or not needed.size:
        return none
    working = _working_classes(curve.order, point, bound)
    if working is None:
        return none
    rows, classes, residues = working
    k = point.k
    # membership in the sorted R by binary search, as np.isin loads numpy.ma
    r = needed % k
    needed = needed[residues[np.minimum(np.searchsorted(residues, r), len(residues) - 1)] == r]
    if not needed.size:
        return none
    need = np.zeros(bound + 1, dtype=bool)
    need[needed] = True
    found = [none]
    for ys, xs, norms in coset_blocks(curve.order, rows, k, classes):
        hits = np.flatnonzero(need[norms])
        if not hits.size:
            continue
        # return_index gives each prime's first occurrence, its first working point
        primes, first = np.unique(norms[hits], return_index=True)
        need[primes] = False
        hits = hits[first]
        ys, xs = ys[hits], xs[hits]
        # a point fixes v when it lies in its row's class x+
        fixes = (xs - classes[0][np.searchsorted(rows[0], ys)]) % k == 0
        found.append((primes, xs, ys, np.where(fixes, 1, -1)))
    primes, xs, ys, signs = map(np.concatenate, zip(*found))
    # each block's primes are sorted, but a later block can find smaller ones
    by_prime = np.argsort(primes)
    return primes[by_prime], xs[by_prime], ys[by_prime], signs[by_prime]


def scan_primes(
    desc: EllipticBundleDescriptor, bound: int, *, routes: dict[int, AutRoute] | None = None
) -> ScanReport:
    """prime_achievable for every prime up to bound, with one residue table
    and one lattice pass for the primes that need an isogeny.

    routes is the descriptor's _aut_routes table, built here when the
    caller has none.
    """
    import numpy as np

    if bound < 2:
        raise ValueError(f"need bound >= 2, got {bound!r}")
    if bound > SCAN_BOUND_CAP:
        raise ValueError(f"bound {bound} is above the scan cap {SCAN_BOUND_CAP}")
    point = _require_split_torsion(desc).point
    k = point.k
    if routes is None:
        routes = _aut_routes(desc.curve, point)
    # residue 0 goes to the torsion route, which _decide tries first
    residues: dict[int, Witness] = {**routes, 0: TorsionMultiple(k)}
    # distinct by identity: the two residues of an automorphism share its route
    witnesses = {id(witness): witness for witness in residues.values()}
    index = {key: i for i, key in enumerate(witnesses, 1)}
    primes = prime_array(bound)
    # above bound, k leaves every prime as its own residue, so residues
    # larger than bound never occur
    table = np.zeros(min(k, bound + 1), dtype=np.int8)  # NO_ROUTE
    for r, witness in residues.items():
        if r < len(table):
            table[r] = index[id(witness)]
    slot = table[primes % k if k <= bound else primes]
    needed = primes[slot == NO_ROUTE]
    found, *isogenies = _first_isogenies(desc.curve, point, needed, bound)
    if found.size:
        slot[np.searchsorted(primes, found)] = ISOGENY
    return ScanReport(primes, slot, (None, *witnesses.values()), desc.curve.order, tuple(isogenies))


@dataclass(frozen=True)
class ExceptionalFamily:
    """A (curve order, torsion level, kernel element) triple with every degree achievable."""

    order: OrderParams
    k: int
    kernel_element: QuadElem
    degree: int


@lru_cache(maxsize=1)
def exceptional_triples() -> tuple[ExceptionalFamily, ...]:
    """The six split-torsion families beyond k <= 3 that admit all degrees.

    Three base triples, each with its conjugate variant: the kernel
    element has norm k (or norm 4 for k = 4) and its kernel meets the
    exact-order-k points.  Built on the first call and shared after it;
    the families are frozen.
    """
    base = (
        (OrderParams(1, 2), 4, QuadElem(OrderParams(1, 2), 1, 1)),
        (OrderParams(0, 1), 5, QuadElem(OrderParams(0, 1), 2, 1)),
        (OrderParams(1, 1), 7, QuadElem(OrderParams(1, 1), 2, 1)),
    )
    out = []
    for order, k, element in base:
        for alpha in (element, conjugate(element)):
            out.append(
                ExceptionalFamily(order=order, k=k, kernel_element=alpha, degree=norm(alpha))
            )
    return tuple(out)


def matching_exceptional_family(desc: EllipticBundleDescriptor) -> ExceptionalFamily | None:
    """The family this descriptor belongs to, or None.

    Matching is computational: same endomorphism order, same exact
    torsion order, and the point lies in the named element's kernel.
    """
    if not isinstance(desc.bundle, SplitTorsion) or not desc.curve.has_cm:
        return None
    point = desc.bundle.point
    for family in exceptional_triples():
        if family.order != desc.curve.order or family.k != point.k:
            continue
        if point.v in kernel_on_torsion(family.kernel_element, point.k):
            return family
    return None


def _certificate_attempt(
    curve: CurveModel, point: TorsionPoint, routes: dict[int, AutRoute]
) -> DegreeCertificate | None:
    """Build the all-degrees certificate, or None if some piece is unreachable.

    Complete means: every residue in (Z/k)* is hit by an automorphism
    exponent up to sign (an automorphism route covers a whole residue
    class of primes at once), and every prime divisor of k has its own
    per-prime witness.  Together these cover all primes, and products
    of primes follow by composing.  routes is the descriptor's
    _aut_routes table.
    """
    k = point.k
    residue_witnesses: dict[int, Witness] = {
        r: route for r, route in routes.items() if gcd(r, k) == 1
    }
    if any(gcd(r, k) == 1 and r not in residue_witnesses for r in range(k)):
        return None
    special_witnesses: dict[int, Witness] = {}
    for p in (q for q in range(2, k + 1) if k % q == 0 and is_prime(q)):
        witness = _decide(curve, point, routes, p).witness
        if witness is None:
            return None
        special_witnesses[p] = witness
    return DegreeCertificate(
        k=k, residue_witnesses=residue_witnesses, special_witnesses=special_witnesses
    )


def admits_all_degrees(desc: EllipticBundleDescriptor) -> Verdict:
    """Certificate-or-counterexample classification of a split torsion bundle.

    The certificate and the fallback scan to 1000 share one _aut_routes
    table.
    """
    point = _require_split_torsion(desc).point
    routes = _aut_routes(desc.curve, point)
    certificate = _certificate_attempt(desc.curve, point, routes)
    if certificate is not None:
        family = matching_exceptional_family(desc)
        if family is not None:
            note = (
                f"kernel point of the degree-{family.degree} element "
                f"{family.kernel_element!r} at torsion level {family.k}"
            )
        else:
            note = "unit pullbacks cover every residue class"
        return AllDegrees(certificate=certificate, note=note)
    missing = scan_primes(desc, 1000, routes=routes).missing
    if not missing:
        raise RuntimeError(
            "residue certificate incomplete yet no missing prime up to 1000; "
            "the two methods disagree"
        )
    return MissingPrimes(missing=missing, scan_bound=1000)


def nonsplit_verdict(desc: EllipticBundleDescriptor, bound: int = 1000) -> Verdict:
    """Fixed verdicts for the bundle shapes that never reach a certificate.

    The two degree-0 shapes (nontrivial self-extension of O, and split
    with a nontorsion summand) only admit base-isogeny degrees, so all
    primes outside the endomorphism norm form are missing; the list up
    to the bound is reported as evidence.  The degree-1 extension has
    no degree-2 self-map by exhaustive search.  Split with a summand of
    nonzero degree carries a unique curve of negative self-intersection
    and only square degrees survive.
    """
    bundle = desc.bundle
    if isinstance(bundle, SplitTorsion):
        raise ValueError("split torsion bundles are classified by admits_all_degrees")
    if isinstance(bundle, (AtiyahDegreeZero, SplitNonTorsion)):
        if bound <= _SIEVE_CAP:
            # is_prime's bytearray sieve lists them without loading numpy
            primes = list(compress(range(bound + 1), _small_prime_flags()))
        else:
            primes = primes_up_to(bound)
        if desc.curve.has_cm and primes:
            norms = represented_norms(desc.curve.order, primes[-1])
            non_norm = tuple(p for p in primes if not norms[p])
        else:
            # without CM the endomorphism degrees are squares, never prime
            non_norm = tuple(primes)
        shape = (
            "indecomposable degree-0 bundle"
            if isinstance(bundle, AtiyahDegreeZero)
            else "split bundle with a nontorsion degree-0 summand"
        )
        return InfinitelyManyMissing(
            reason=(
                f"{shape}: achievable prime degrees are norms of endomorphisms, "
                "and primes outside the norm form have positive density"
            ),
            missing_examples=non_norm,
        )
    if isinstance(bundle, AtiyahDegreeOne):
        hits = atiyah_deg2_search()
        if hits:
            raise RuntimeError(f"degree-2 section equations are solvable at {hits}")
        return MissingPrimes(
            missing=(2,),
            scan_bound=None,
            note="no solution to the degree-2 section equations (exhaustive search)",
        )
    if not isinstance(bundle, SplitNonzeroDegree):
        raise ValueError(f"unknown bundle shape {type(bundle).__name__}")
    cert = square_degree_certificate(-abs(bundle.degree))
    if not cert.degree_is_square:
        raise RuntimeError(
            f"square-degree certificate fails for self-intersection {-abs(bundle.degree)}"
        )
    return SquaresOnly(
        reason=(
            f"the section with self-intersection {-abs(bundle.degree)} is the unique "
            "negative curve, so every self-map has square degree"
        )
    )
