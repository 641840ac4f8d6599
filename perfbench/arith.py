"""Independent arithmetic for the benchmark's generators and checkers.

Nothing here imports selfmaps: the checker must not trust the code it
checks.  An order Z[w] with w**2 = t*w - n is a pair (t, n); an element
x + y*w is a pair (x, y).  Multiplication by x + y*w on the basis
(1, w) is the matrix ((x, -n*y), (y, x + t*y)), its determinant is the
norm, and the pullback of a torsion line bundle acts through the dual
(conjugate) element (x + t*y, -y).  A curve without CM is written with
order None; its endomorphisms are the integers (x, 0).
"""

from __future__ import annotations

import math

# (order, torsion level, kernel element): the three base exceptional
# families; each also appears with its conjugate element.
_EXCEPTIONAL_BASE = (((1, 2), 4, (1, 1)), ((0, 1), 5, (2, 1)), ((1, 1), 7, (2, 1)))


def primes_up_to(bound: int) -> list[int]:
    if bound < 2:
        return []
    flags = [True] * (bound + 1)
    flags[0] = flags[1] = False
    for p in range(2, math.isqrt(bound) + 1):
        if flags[p]:
            for m in range(p * p, bound + 1, p):
                flags[m] = False
    return [i for i, keep in enumerate(flags) if keep]


def is_prime(m: int) -> bool:
    return m >= 2 and all(m % f for f in range(2, math.isqrt(m) + 1))


def norm(order, elem) -> int:
    x, y = elem
    if order is None:
        return x * x
    t, n = order
    return x * x + t * x * y + n * y * y


def conjugate(order, elem):
    x, y = elem
    t = 0 if order is None else order[0]
    return (x + t * y, -y)


def act(order, elem, v, k):
    """Multiplication by elem applied to the torsion point v, mod k."""
    x, y = elem
    t, n = (0, 1) if order is None else order
    return ((x * v[0] - n * y * v[1]) % k, (y * v[0] + (x + t * y) * v[1]) % k)


def pullback_exponent(order, elem, v, k):
    """m with dual(elem) * v = m * v mod k, or None; v must have exact order k."""
    w = act(order, conjugate(order, elem), v, k)
    for m in range(k):
        if (m * v[0] - w[0]) % k == 0 and (m * v[1] - w[1]) % k == 0:
            return m
    return None


def elements_of_norm(order, m: int) -> list:
    """Every (x, y) of norm m, sorted by (y, x): exhaustive over y, then
    the two roots in x of x**2 + t*y*x + (n*y**2 - m) = 0, each re-checked."""
    if order is None:
        s = math.isqrt(m)
        return [(-s, 0), (s, 0)] if s * s == m else []
    t, n = order
    y_max = math.isqrt(4 * m // (4 * n - t * t))
    out = set()
    for y in range(-y_max, y_max + 1):
        disc = t * t * y * y - 4 * (n * y * y - m)
        if disc < 0:
            continue
        s = math.isqrt(disc)
        for num in (-t * y + s, -t * y - s):
            if num % 2 == 0 and norm(order, (num // 2, y)) == m:
                out.add((num // 2, y))
    return sorted(out, key=lambda e: (e[1], e[0]))


def units(order) -> list:
    return elements_of_norm(order, 1)


def exact_order_points(k: int) -> list:
    return [(a, b) for a in range(k) for b in range(k) if math.gcd(math.gcd(a, b), k) == 1]


def exceptional_families() -> list:
    out = []
    for order, k, elem in _EXCEPTIONAL_BASE:
        out.append((order, k, elem))
        out.append((order, k, conjugate(order, elem)))
    return out


def kernel(order, elem, k) -> list:
    return [(a, b) for a in range(k) for b in range(k) if act(order, elem, (a, b), k) == (0, 0)]


def is_exceptional(order, k, v) -> bool:
    return any(
        fam_order == order and fam_k == k and tuple(v) in kernel(order, elem, k)
        for fam_order, fam_k, elem in exceptional_families()
    )


def unit_exponents(order, v, k) -> list:
    """Pullback exponents of every automorphism on v (None where v is not an eigenvector)."""
    return [pullback_exponent(order, u, v, k) for u in units(order)]


def achievable(order, k, v, p) -> bool:
    """Brute-force decision of one prime degree: torsion multiple, automorphism, isogeny."""
    if p % k == 0:
        return True
    for m in unit_exponents(order, v, k):
        if m is not None and (p % k == m or (p + m) % k == 0):
            return True
    for alpha in elements_of_norm(order, p):
        m = pullback_exponent(order, alpha, v, k)
        if m is not None and m in (1 % k, (k - 1) % k):
            return True
    return False


def self_intersections(rays) -> list:
    """Wall relation v_prev + v_next = -(C.C) * v on a counterclockwise fan."""
    out = []
    for i, v in enumerate(rays):
        s = (rays[i - 1][0] + rays[(i + 1) % len(rays)][0], rays[i - 1][1] + rays[(i + 1) % len(rays)][1])
        c = -s[0] // v[0] if v[0] else -s[1] // v[1]
        if (s[0], s[1]) != (-c * v[0], -c * v[1]):
            raise ValueError(f"wall relation fails at {v}")
        out.append(c)
    return out


def canonical_fan(rays) -> list:
    """Counterclockwise order, rotated to start at the smallest ray."""
    rays = [tuple(r) for r in rays]
    if rays[0][0] * rays[1][1] - rays[0][1] * rays[1][0] < 0:
        rays.reverse()
    start = rays.index(min(rays))
    return rays[start:] + rays[:start]
