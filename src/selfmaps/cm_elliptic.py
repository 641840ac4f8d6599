"""Endomorphisms of elliptic curves acting on torsion points.

A curve is modelled by its endomorphism ring: either an imaginary
quadratic order (complex multiplication) or the plain integers.  An
endomorphism x + y*w acts on the rank-2 lattice with basis (1, w), which
gives an integer 2x2 matrix; reducing mod k gives the action on the
k-torsion, and the pullback of a degree-zero line bundle acts through
the dual (= conjugate) endomorphism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .qorders import (
    OrderParams,
    QuadElem,
    conjugate,
    elements_of_norm,
    norm,
    units,
)

__all__ = [
    "CurveModel",
    "EndoMatrix",
    "TorsionPoint",
    "rational_rep",
    "torsion_action",
    "kernel_on_torsion",
    "dual",
    "exact_order",
    "normalize_point",
    "pullback_exponent",
    "unit_covector",
    "aut_group",
    "endomorphisms_of_degree",
]

# Carrier for the integer endomorphisms of a curve without complex
# multiplication.  Only y == 0 elements are ever built over it, and for
# those every operation below is independent of (t, n): the matrix is
# x * Id, the norm is x**2 and the conjugate is the identity.
_INTEGER_CARRIER = OrderParams(0, 1)


@dataclass(frozen=True)
class CurveModel:
    """Elliptic curve presented by its endomorphism ring."""

    order: OrderParams | None = None

    @classmethod
    def cm(cls, order: OrderParams) -> "CurveModel":
        return cls(order=order)

    @classmethod
    def no_cm(cls) -> "CurveModel":
        return cls(order=None)

    @property
    def has_cm(self) -> bool:
        return self.order is not None

    def __repr__(self) -> str:
        if self.order is None:
            return "CurveModel(no CM)"
        return f"CurveModel(t={self.order.t}, n={self.order.n})"


@dataclass(frozen=True)
class EndoMatrix:
    """Integer 2x2 matrix, rows ((a, b), (c, d))."""

    a: int
    b: int
    c: int
    d: int

    def __mul__(self, other: "EndoMatrix") -> "EndoMatrix":
        return EndoMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def mod(self, k: int) -> "EndoMatrix":
        return EndoMatrix(self.a % k, self.b % k, self.c % k, self.d % k)

    def apply(self, v: tuple[int, int]) -> tuple[int, int]:
        return (self.a * v[0] + self.b * v[1], self.c * v[0] + self.d * v[1])

    def apply_mod(self, v: tuple[int, int], k: int) -> tuple[int, int]:
        w = self.apply(v)
        return (w[0] % k, w[1] % k)

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (self.c, self.d))


@dataclass(frozen=True)
class TorsionPoint:
    """Point of the k-torsion grid, coordinates in the basis (1/k, w/k)."""

    k: int
    v: tuple[int, int]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"torsion level must be positive, got {self.k!r}")
        reduced = (self.v[0] % self.k, self.v[1] % self.k)
        object.__setattr__(self, "v", reduced)


def rational_rep(alpha: QuadElem) -> EndoMatrix:
    """Matrix of multiplication by alpha on the basis (1, w), columns are images.

    alpha * 1 = x + y*w and alpha * w = -n*y + (x + t*y)*w, so the matrix
    is ((x, -n*y), (y, x + t*y)); its determinant is the norm.
    """
    t, n = alpha.order.t, alpha.order.n
    return EndoMatrix(alpha.x, -n * alpha.y, alpha.y, alpha.x + t * alpha.y)


def torsion_action(alpha: QuadElem, k: int) -> EndoMatrix:
    """Action of alpha on the k-torsion, entries reduced into [0, k)."""
    if k < 1:
        raise ValueError(f"torsion level must be positive, got {k!r}")
    return rational_rep(alpha).mod(k)


def kernel_on_torsion(alpha: QuadElem, k: int) -> tuple[tuple[int, int], ...]:
    """All k-torsion points killed by alpha, by exhaustion of the k*k grid."""
    action = torsion_action(alpha, k)
    out = []
    for v1 in range(k):
        for v2 in range(k):
            if action.apply_mod((v1, v2), k) == (0, 0):
                out.append((v1, v2))
    return tuple(sorted(out))


def dual(alpha: QuadElem) -> QuadElem:
    """Dual endomorphism; composition with alpha is multiplication by the norm."""
    return conjugate(alpha)


def exact_order(point: TorsionPoint) -> int:
    """Smallest d >= 1 with d * v = 0 in (Z/k)^2."""
    return point.k // math.gcd(point.k, math.gcd(point.v[0], point.v[1]))


def normalize_point(point: TorsionPoint) -> TorsionPoint:
    """Rewrite the point at its exact order: (k, v) -> (k/d, v/d)."""
    d = math.gcd(point.k, math.gcd(point.v[0], point.v[1]))
    if d == 1:
        return point
    return TorsionPoint(point.k // d, (point.v[0] // d, point.v[1] // d))


def pullback_exponent(phi: QuadElem, point: TorsionPoint) -> int | None:
    """Exponent of phi's pullback on the line bundle class of the point.

    The pullback acts on degree-zero classes through the dual of phi.  If
    the dual action sends v to a multiple m*v, that m is unique in Z/k
    because v has exact order k, and the pullback is the m-th power map
    on the cyclic group the point generates.  Returns None when v is not
    an eigenvector of the dual action.
    """
    k = point.k
    if exact_order(point) != k:
        raise ValueError(
            f"point {point.v} has exact order {exact_order(point)}, not {k}; "
            "normalize it first"
        )
    w = torsion_action(dual(phi), k).apply_mod(point.v, k)
    # m*v = w forces m = c.w, the only candidate
    c = unit_covector(point)
    m = (c[0] * w[0] + c[1] * w[1]) % k
    if (m * point.v[0] - w[0]) % k == 0 and (m * point.v[1] - w[1]) % k == 0:
        return m
    return None


def unit_covector(point: TorsionPoint) -> tuple[int, int]:
    """(c0, c1) in [0, k) with c0*v0 + c1*v1 = 1 mod k, for a point v of exact order k.

    gcd(v0, v1) = g is prime to k, so one extended gcd s*v0 + t*v1 = g
    gives c = (s, t) / g mod k.
    """
    k = point.k
    g, s, t = _bezout(*point.v)
    g_inv = pow(g, -1, k)
    return (s * g_inv % k, t * g_inv % k)


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b), for a, b >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        s0, s1, t0, t1 = s1, s0 - q * s1, t1, t0 - q * t1
    return a, s0, t0


def aut_group(curve: CurveModel) -> tuple[QuadElem, ...]:
    """Automorphisms of the curve: unit group of the order, or just +-1."""
    if curve.has_cm:
        return units(curve.order)
    one = QuadElem(_INTEGER_CARRIER, 1, 0)
    return (-one, one)


def endomorphisms_of_degree(curve: CurveModel, m: int) -> tuple[QuadElem, ...]:
    """Endomorphisms of degree m: norm-m elements, or +-sqrt(m) without CM."""
    if m < 1:
        raise ValueError(f"degree must be positive, got {m!r}")
    if curve.has_cm:
        return elements_of_norm(curve.order, m)
    s = math.isqrt(m)
    if s * s != m:
        return ()
    root = QuadElem(_INTEGER_CARRIER, s, 0)
    return (-root, root) if s else (root,)
