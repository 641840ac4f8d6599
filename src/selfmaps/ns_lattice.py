"""Numerical lattice of a ruled surface over an elliptic base.

Classes are written h*H + f*F where F is the fiber and H a section of
the projectivized rank-2 bundle; e is the self-intersection of H, so
the form is H.H = e, H.F = 1, F.F = 0.  When the bundle splits as a sum
of line bundles of degree gap e, the two canonical sections sit at
H (self-intersection e) and H - e*F (self-intersection -e).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cm_elliptic import EndoMatrix
from .qorders import is_prime

__all__ = [
    "NSClass",
    "EndoOnNS",
    "SquareDegreeCertificate",
    "square_degree_certificate",
    "atiyah_deg2_search",
    "toric_prime_candidates",
]


@dataclass(frozen=True)
class NSClass:
    """Class h*H + f*F on the surface with section square e."""

    h: int
    f: int
    e: int


@dataclass(frozen=True)
class EndoOnNS:
    """Pullback action of a self-map on the (H, F) basis.

    The matrix columns are the images of H and F.  A self-map covering a
    base map of degree d_B and hitting fibers with degree d_F pulls F
    back to d_B * F and H to d_F * H + s * F; pairing the images forces
    det = degree, which makes the pushforward degree * pullback^(-1)
    integral (it is the adjugate).  The pushforward is computed and
    checked once, at construction, and kept in the field pushforward,
    which pushforward_class reads.
    """

    pullback: EndoMatrix
    degree: int
    e: int
    pushforward: EndoMatrix = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p = self.pullback
        if self.degree < 1:
            raise ValueError(f"degree must be positive, got {self.degree!r}")
        if p.b != 0 or p.d < 1:
            raise ValueError("pullback must send the fiber class to a positive multiple of itself")
        if p.det() != self.degree:
            raise ValueError(
                f"pullback determinant {p.det()} must equal the degree {self.degree}"
            )
        adjugate = EndoMatrix(p.d, -p.b, -p.c, p.a)
        if adjugate * p != EndoMatrix(self.degree, 0, 0, self.degree):
            raise ValueError("pushforward is not integral for this pullback")
        object.__setattr__(self, "pushforward", adjugate)

    @classmethod
    def from_degrees(cls, base_degree: int, fiber_degree: int, e: int) -> "EndoOnNS":
        """Build the pullback of a self-map with the given base and fiber degrees.

        Intersection scaling pins the twist coefficient to
        e*(base_degree - fiber_degree)/2; when that is odd no integral
        pullback exists and the triple is rejected.
        """
        if base_degree < 1 or fiber_degree < 1:
            raise ValueError("base and fiber degrees must be positive")
        twist2 = e * (base_degree - fiber_degree)
        if twist2 % 2 != 0:
            raise ValueError(
                f"no integral pullback: e*(base-fiber) = {twist2} must be even"
            )
        matrix = EndoMatrix(fiber_degree, 0, twist2 // 2, base_degree)
        return cls(pullback=matrix, degree=base_degree * fiber_degree, e=e)

    def pullback_class(self, c: NSClass) -> NSClass:
        if c.e != self.e:
            raise ValueError(f"class lives on e={c.e}, endomorphism on e={self.e}")
        h, f = self.pullback.apply((c.h, c.f))
        return NSClass(h, f, self.e)

    def pushforward_class(self, c: NSClass) -> NSClass:
        if c.e != self.e:
            raise ValueError(f"class lives on e={c.e}, endomorphism on e={self.e}")
        h, f = self.pushforward.apply((c.h, c.f))
        return NSClass(h, f, self.e)


@dataclass(frozen=True)
class SquareDegreeCertificate:
    """Finite demonstration that a negative curve forces square degrees.

    If a self-map of degree d satisfies pullback(C) = a1*C and
    pushforward(C) = a2*C on a curve with C.C < 0, the projection
    formula gives a1*(C.C) = a2*(C.C); since C.C is nonzero a1 = a2 and
    d = a1*a2 is a perfect square.  The record stores the checked range.
    """

    c_squared: int
    pairs_bound: int
    a1_equals_a2: bool
    degree_is_square: bool


def square_degree_certificate(c_squared: int, pairs_bound: int = 100) -> SquareDegreeCertificate:
    """Check the cancellation step on all coefficient pairs up to a bound.

    a1*(C.C) = a2*(C.C) forces a1 = a2 for every pair a1, a2 in
    1..pairs_bound exactly when the products a*(C.C), a = 1..pairs_bound,
    are distinct, so the pairs are checked by one pass over a.
    """
    if c_squared >= 0:
        raise ValueError(f"certificate needs a negative self-intersection, got {c_squared!r}")
    coefficients = range(1, pairs_bound + 1)
    # always true for nonzero c_squared; recorded defensively
    cancels = len({a * c_squared for a in coefficients}) == len(coefficients)
    return SquareDegreeCertificate(c_squared, pairs_bound, cancels, cancels)


def atiyah_deg2_search(bound: int = 100) -> tuple[tuple[int, int], ...]:
    """Exhaustive search for a degree-2 pullback of the odd-degree section.

    On the ruled surface of the indecomposable degree-1 bundle, the
    section S has S.S = 1 and a degree-2 self-map would need
    f*S = a*S + b*F with a in {1, 2} and (f*S).(f*S) = a*a + 2ab = 2.
    a = 1 gives odd values, a = 2 gives multiples of 4, so the returned
    list of solutions is empty; callers treat that emptiness as the
    nonexistence proof for degree 2.
    """
    if bound < 1:
        raise ValueError(f"bound must be positive, got {bound!r}")
    hits = []
    for a in (1, 2):
        for b in range(-bound, bound + 1):
            if a * a + 2 * a * b == 2:
                hits.append((a, b))
    return tuple(hits)


def toric_prime_candidates(negatives) -> frozenset[int]:
    """Primes p = -C.C over the given negative self-intersections.

    Any self-map of prime degree p on a surface whose negative curves
    all survive pullback must satisfy p = b*b*(-C.C) for some C, so only
    these primes can occur; everything else is excluded.
    """
    values = tuple(negatives)
    if not values:
        raise ValueError("need at least one negative self-intersection")
    if any(c >= 0 for c in values):
        raise ValueError(f"self-intersections must all be negative, got {values!r}")
    return frozenset(-c for c in values if is_prime(-c))
