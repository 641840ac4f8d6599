"""Arithmetic of imaginary quadratic orders Z[w] with w**2 = t*w - n.

The pair (t, n), t in {0, 1} and n >= 1, fixes the multiplication rule.
The discriminant t**2 - 4n is then always negative, so the norm form
x**2 + t*x*y + n*y**2 is positive definite and every search by norm is
a finite exhaustion.  Brute-force enumeration is deliberate: it is the
ground truth the rest of the package is checked against, and there is
no per-prime fast path beside it.  norm_blocks walks that exhaustion for
every norm up to a bound at once, in numpy blocks of whole rows of
lattice points, one entry per point; represented_norms marks the norms
it yields, so a claim about all primes below the bound costs one pass
over the norm form, not one search per prime.  The prime scan of
elliptic_pbundle walks the same rows, from the same norm_rows layout,
through coset_blocks, which keeps only the points whose x lies in one of
two classes mod k per row.  elements_of_norm stays their brute-force
oracle.  is_prime reads a pure-Python bytearray sieve, built on first
use, up to _SIEVE_CAP; above it, strong probable-prime
tests to the twelve prime bases 2 to 37 decide it exactly below
PRIMALITY_CAP, and an integer at or above the cap that passes all
twelve raises PrimalityCapError.
primes_up_to reads the same sieve for bounds up to _SIEVE_CAP.
split_symbols takes its primes from a sieve and does not prove them
prime again; it evaluates their Legendre symbols as int64 arrays, by
Euler's criterion and by the binary Jacobi algorithm, and cross-checks
the two.  split_density_report counts that array, and the
splitting-oracle claim compares it with represented_norms.  split_type,
legendre_euler, legendre_reciprocity and _split_type_of_prime stay its
per-prime oracle.

numpy is imported inside the array passes alone: norm_rows,
norm_blocks, coset_blocks, represented_norms, _prime_flags,
primes_up_to, split_symbols with its three Legendre helpers, and
split_density_report.  Importing this
module, the element arithmetic and is_prime never load it, so CLI paths
that run no array pass start without numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "NotPrimeError",
    "PrimalityCapError",
    "PRIMALITY_CAP",
    "OrderParams",
    "QuadElem",
    "SplitType",
    "SplitDensityReport",
    "norm",
    "conjugate",
    "units",
    "elements_of_norm",
    "norm_rows",
    "norm_blocks",
    "coset_blocks",
    "represented_norms",
    "degree_two_table",
    "is_prime",
    "prime_array",
    "primes_up_to",
    "legendre",
    "legendre_euler",
    "legendre_reciprocity",
    "split_type",
    "split_symbols",
    "split_density_report",
]


class NotPrimeError(ValueError):
    """A routine defined only for primes (or only odd primes) got another integer."""


class PrimalityCapError(ValueError):
    """is_prime cannot decide an integer at or above PRIMALITY_CAP that
    passes every strong probable-prime test it runs."""


@dataclass(frozen=True, order=True)
class OrderParams:
    """Multiplication parameters of Z[w]: w**2 = t*w - n."""

    t: int
    n: int

    def __post_init__(self) -> None:
        if self.t not in (0, 1):
            raise ValueError(f"t must be 0 or 1, got {self.t!r}")
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")

    @property
    def discriminant(self) -> int:
        return self.t * self.t - 4 * self.n


@dataclass(frozen=True)
class QuadElem:
    """Element x + y*w of a fixed order."""

    order: OrderParams
    x: int
    y: int

    def _same_order(self, other: "QuadElem") -> None:
        if self.order != other.order:
            raise ValueError(f"mixed orders: {self.order} vs {other.order}")

    def __add__(self, other: "QuadElem") -> "QuadElem":
        self._same_order(other)
        return QuadElem(self.order, self.x + other.x, self.y + other.y)

    def __sub__(self, other: "QuadElem") -> "QuadElem":
        self._same_order(other)
        return QuadElem(self.order, self.x - other.x, self.y - other.y)

    def __neg__(self) -> "QuadElem":
        return QuadElem(self.order, -self.x, -self.y)

    def __mul__(self, other):
        if isinstance(other, int):
            return QuadElem(self.order, self.x * other, self.y * other)
        self._same_order(other)
        t, n = self.order.t, self.order.n
        # (x1 + y1 w)(x2 + y2 w) with w*w = t*w - n
        return QuadElem(
            self.order,
            self.x * other.x - n * self.y * other.y,
            self.x * other.y + self.y * other.x + t * self.y * other.y,
        )

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"QuadElem(t={self.order.t}, n={self.order.n}, x={self.x}, y={self.y})"


def norm(a: QuadElem) -> int:
    """Norm x**2 + t*x*y + n*y**2 of x + y*w; equals a times its conjugate."""
    t, n = a.order.t, a.order.n
    return a.x * a.x + t * a.x * a.y + n * a.y * a.y


def conjugate(a: QuadElem) -> QuadElem:
    """w maps to t - w, so x + y*w maps to (x + t*y) - y*w."""
    return QuadElem(a.order, a.x + a.order.t * a.y, -a.y)


def elements_of_norm(order: OrderParams, m: int) -> tuple[QuadElem, ...]:
    """All elements of norm m, sorted by (y, x).

    4*(x**2 + t*x*y + n*y**2) = (2x + t*y)**2 + |D|*y**2 with D the
    discriminant, so |y| <= sqrt(4m/|D|) and each y leaves a perfect
    square condition plus a parity condition on x.
    """
    if m < 1:
        raise ValueError(f"norm target must be positive, got {m!r}")
    d = -order.discriminant
    found = set()
    y_max = math.isqrt(4 * m // d)
    for y in range(-y_max, y_max + 1):
        square = 4 * m - d * y * y  # equals (2x + t*y)**2 if solvable
        s = math.isqrt(square)
        if s * s != square:
            continue
        for root in (s, -s):
            numerator = root - order.t * y
            if numerator % 2 == 0:
                found.add(QuadElem(order, numerator // 2, y))
    return tuple(sorted(found, key=lambda a: (a.y, a.x)))


# Most points norm_blocks puts in one block, unless a single row is longer.
# Blocks of 2**16 points ran the perfbench scan workload no faster and
# peaked 0.5 MB higher (51.1 against 50.6 MB, two runs each, seed 5).
_BLOCK_POINTS = 2**14


def norm_rows(
    order: OrderParams, bound: int, step: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The rows y <= 0, y a multiple of step, of the points x + y*w of norm <= bound.

    Four int64 arrays, per row in increasing y: y, the first x, the
    number of points and n*y**2.  The bounds are those of
    elements_of_norm: |y| <= sqrt(4*bound/|D|) and
    |2x + t*y| <= isqrt(4*bound - |D|*y**2).  Rows y > 0 are left out,
    since norm(-a) = norm(a).  As 4n - t**2 = |D|, every row has
    n*y**2 <= bound + y**2/4, so no entry exceeds 2*bound.
    """
    import numpy as np

    if bound < 0:
        raise ValueError(f"bound must be non-negative, got {bound!r}")
    t, n, d = order.t, order.n, -order.discriminant
    y_range = range(-(math.isqrt(4 * bound // d) // step) * step, 1, step)
    roots = [math.isqrt(4 * bound - d * y * y) for y in y_range]
    return (
        np.arange(y_range.start, 1, step, dtype=np.int64),
        np.array([-((s + t * y) // 2) for s, y in zip(roots, y_range)], dtype=np.int64),
        np.array([(s - t * y) // 2 + (s + t * y) // 2 + 1 for s, y in zip(roots, y_range)], dtype=np.int64),
        np.array([n * y * y for y in y_range], dtype=np.int64),
    )


def _row_blocks(counts: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """Consecutive rows of at most _BLOCK_POINTS points together, unless one row is longer.

    Yields each block's slice of rows and the offsets of its rows' first
    points within the block.
    """
    import numpy as np

    ends = np.cumsum(counts)
    starts = ends - counts
    start = 0
    while start < len(counts):
        stop = max(start + 1, int(np.searchsorted(ends, starts[start] + _BLOCK_POINTS, side="right")))
        yield slice(start, stop), starts[start:stop] - starts[start]
        start = stop


def norm_blocks(
    order: OrderParams, bound: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(ys, xs, norms) for blocks of whole rows of norm_rows(order, bound).

    Each block holds consecutive rows, at most _BLOCK_POINTS points
    unless one row is longer, as int64 arrays with one entry per point
    in (y, x) order: ys, xs and norms = x**2 + t*x*y + n*y**2.  The
    int64 arithmetic is exact: every norm is at most bound, every
    intermediate value is below 4*bound in absolute value, and any bound
    small enough for a table of that many entries to be allocated is far
    below 2**62.
    """
    import numpy as np

    row_ys, firsts, counts, ny2 = norm_rows(order, bound)
    for rows, offsets in _row_blocks(counts):
        # a point's x is its row's first x plus its index within the row
        xs = np.arange(int(offsets[-1] + counts[rows.stop - 1]), dtype=np.int64)
        xs += np.repeat(firsts[rows] - offsets, counts[rows])
        ys = np.repeat(row_ys[rows], counts[rows])
        yield ys, xs, xs * (xs + order.t * ys) + np.repeat(ny2[rows], counts[rows])


def coset_blocks(
    order: OrderParams, rows: tuple[np.ndarray, ...], k: int, classes: tuple[np.ndarray, np.ndarray]
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """norm_blocks over the given rows, keeping the points whose x is in one of two classes mod k.

    rows is a selection of the four arrays of norm_rows, and classes two
    int64 arrays of residues in [0, k), one entry per row each.  In a row
    whose first x is x0, the class of r starts at x0 + d with
    d = (r - x0) mod k.  When the two classes differ, with starts
    d0 < d1, the row's points in them are x0 + d0, x0 + d1, x0 + d0 + k,
    x0 + d1 + k, ..., alternating, up to the row's end; a single class
    is walked as the two classes d0 and d0 + k mod 2k.  So the points
    come in the (y, x) order of norm_blocks without a sort, and blocks
    again hold whole rows, at most _BLOCK_POINTS points unless one row
    is longer.  Beside the values of norm_blocks, the int64 arithmetic
    only forms residues mod k and indices below a row's length plus 2*k.
    """
    import numpy as np

    row_ys, firsts, counts, ny2 = rows
    d0, d1 = ((c - firsts) % k for c in classes)
    d0, d1 = np.minimum(d0, d1), np.maximum(d0, d1)
    single = d0 == d1
    period = np.where(single, 2 * k, k)
    d1[single] += k
    # the points x0 + d + j*period with j >= 0 and d + j*period < count
    sizes = (counts - d0 + period - 1) // period + (counts - d1 + period - 1) // period
    full = sizes > 0
    row_ys, ny2, sizes, period = row_ys[full], ny2[full], sizes[full], period[full]
    starts, gaps = (firsts + d0)[full], (d1 - d0)[full]
    for block, offsets in _row_blocks(sizes):
        # i, a point's index within its row, is even in the first class and odd in the second
        i = np.arange(int(offsets[-1] + sizes[block.stop - 1]), dtype=np.int64)
        i -= np.repeat(offsets, sizes[block])
        xs = np.repeat(starts[block], sizes[block]) + (i >> 1) * np.repeat(period[block], sizes[block])
        xs += (i & 1) * np.repeat(gaps[block], sizes[block])
        ys = np.repeat(row_ys[block], sizes[block])
        yield ys, xs, xs * (xs + order.t * ys) + np.repeat(ny2[block], sizes[block])


def represented_norms(order: OrderParams, bound: int) -> bytearray:
    """flags[m] == 1 exactly when some element has norm m, for 0 <= m <= bound.

    Marks the norms of every block of norm_blocks, through a numpy view
    of the flags.
    """
    import numpy as np

    if bound < 0:
        raise ValueError(f"bound must be non-negative, got {bound!r}")
    flags = bytearray(bound + 1)
    marks = np.frombuffer(flags, dtype=np.uint8)
    for _, _, norms in norm_blocks(order, bound):
        marks[norms] = 1
    return flags


@lru_cache(maxsize=256)
def units(order: OrderParams) -> tuple[QuadElem, ...]:
    """Norm-one elements; 4 for discriminant -4, 6 for -3, else 2."""
    return elements_of_norm(order, 1)


def degree_two_table(n_max: int) -> dict[OrderParams, tuple[QuadElem, ...]]:
    """Norm-2 elements for every order with n <= n_max, both trace values.

    Nonempty rows occur exactly at discriminants -4, -7 and -8: for
    n >= 3 the y = 0 column would need x**2 = 2.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max!r}")
    table: dict[OrderParams, tuple[QuadElem, ...]] = {}
    for t in (0, 1):
        for n in range(1, n_max + 1):
            order = OrderParams(t, n)
            table[order] = elements_of_norm(order, 2)
    return table


# Above the claim battery's prime bound 10^5; the sieve is built on the
# first is_prime call, never at import.
_SIEVE_CAP = 2**17


def _prime_flags(bound: int) -> np.ndarray:
    """Sieve of Eratosthenes: flags[m] is True exactly when m is prime, 0 <= m <= bound (>= 1)."""
    import numpy as np

    flags = np.ones(bound + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


@lru_cache(maxsize=1)
def _small_prime_flags() -> bytes:
    """The bytes of _prime_flags(_SIEVE_CAP), by the same sieve on a bytearray, without numpy."""
    flags = bytearray(b"\1") * (_SIEVE_CAP + 1)
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(_SIEVE_CAP) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes((_SIEVE_CAP - p * p) // p + 1)
    return bytes(flags)


# psi_12 of Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases" (Math. Comp. 2017): the least composite that is a strong
# probable prime to every one of _SPRP_BASES.
PRIMALITY_CAP = 318665857834031151167461
_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Sieve lookup up to _SIEVE_CAP; above it, strong probable-prime
    tests to _SPRP_BASES, exact below PRIMALITY_CAP.

    A base that witnesses compositeness is a proof at any size.  An m at
    or above PRIMALITY_CAP that passes every base raises PrimalityCapError.
    """
    if m < 2:
        return False
    if m <= _SIEVE_CAP:
        return _small_prime_flags()[m] == 1
    if m % 2 == 0:
        return False
    s = ((m - 1) & -(m - 1)).bit_length() - 1
    d = (m - 1) >> s
    for a in _SPRP_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    if m >= PRIMALITY_CAP:
        raise PrimalityCapError(
            f"cannot decide whether {m} is prime: at or above the primality cap {PRIMALITY_CAP}"
        )
    return True


def prime_array(bound: int) -> np.ndarray:
    """Sieve of Eratosthenes as an int64 array, inclusive bound; up to _SIEVE_CAP, a prefix of is_prime's sieve."""
    import numpy as np

    if bound < 2:
        return np.zeros(0, dtype=np.int64)
    if bound <= _SIEVE_CAP:
        return np.flatnonzero(np.frombuffer(_small_prime_flags(), dtype=np.uint8, count=bound + 1))
    # a temporary sieve is freed once the array is built
    return np.flatnonzero(_prime_flags(bound))


def primes_up_to(bound: int) -> list[int]:
    """prime_array(bound) as a list of ints."""
    return prime_array(bound).tolist()



def legendre_euler(a: int, p: int) -> int:
    """Legendre symbol by Euler's criterion a**((p-1)/2) mod p."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def legendre_reciprocity(a: int, p: int) -> int:
    """Legendre symbol by recursive quadratic reciprocity.

    Supplementary laws peel off -1 and factors of 2; the swap step stays
    valid when the reduced upper entry is an odd composite, which is what
    the recursion produces, so no factoring is needed.
    """
    if p == 1:  # recursion bottom after a swap
        return 1
    if a < 0:
        sign = 1 if p % 4 == 1 else -1
        return sign * legendre_reciprocity(-a, p)
    a %= p
    if a == 0:
        return 0
    if a == 1:
        return 1
    if a % 2 == 0:
        sign = 1 if p % 8 in (1, 7) else -1
        return sign * legendre_reciprocity(a // 2, p)
    sign = -1 if a % 4 == 3 and p % 4 == 3 else 1
    return sign * legendre_reciprocity(p % a, a)


def _cross_checked_legendre(a: int, p: int) -> int:
    """Legendre symbol of a mod an odd prime p, which is not checked.

    Computed by Euler's criterion and cross-checked against the
    reciprocity evaluation on every call; the redundancy is the point.
    """
    e = legendre_euler(a, p)
    if e != legendre_reciprocity(a, p):
        raise RuntimeError(f"legendre mismatch at ({a}, {p})")
    return e


def legendre(a: int, p: int) -> int:
    """Legendre symbol of a mod an odd prime p, cross-checked as _cross_checked_legendre."""
    if p <= 2 or not is_prime(p):
        raise NotPrimeError(f"p must be an odd prime, got {p!r}")
    return _cross_checked_legendre(a, p)


class SplitType(Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


def _split_type_of_prime(order: OrderParams, p: int) -> SplitType:
    """split_type for a p known to be prime, such as sieve output; not checked."""
    d = order.discriminant
    if p == 2:
        if d % 2 == 0:
            return SplitType.RAMIFIED
        return SplitType.SPLIT if d % 8 == 1 else SplitType.INERT
    if d % p == 0:
        return SplitType.RAMIFIED
    return SplitType.SPLIT if _cross_checked_legendre(d, p) == 1 else SplitType.INERT


def split_type(order: OrderParams, p: int) -> SplitType:
    """Behaviour of the rational prime p under the discriminant character.

    p = 2 reads the discriminant mod 8 (odd discriminants only; even ones
    are ramified at 2), odd p uses the Legendre symbol of the discriminant.
    """
    if not is_prime(p):
        raise NotPrimeError(f"p must be prime, got {p!r}")
    return _split_type_of_prime(order, p)


@dataclass(frozen=True)
class SplitDensityReport:
    order: OrderParams
    bound: int
    split_count: int
    inert_count: int
    ramified_count: int

    @property
    def total(self) -> int:
        return self.split_count + self.inert_count + self.ramified_count

    @property
    def split_fraction(self) -> float:
        return self.split_count / self.total

    def as_dict(self) -> dict:
        return {
            "order": {"t": self.order.t, "n": self.order.n},
            "bound": self.bound,
            "split_count": self.split_count,
            "inert_count": self.inert_count,
            "ramified_count": self.ramified_count,
            "split_fraction": self.split_fraction,
        }


def _residues(a: int, ps: np.ndarray) -> np.ndarray:
    """a mod p for every p in the int64 array ps, exact for an integer a of any size.

    Horner's rule over the 32-bit limbs of |a|: with every p below 2**31,
    r * 2**32 + limb stays below 2**63.
    """
    import numpy as np

    m = abs(a)
    r = np.zeros_like(ps)
    for shift in range(m.bit_length() // 32 * 32, -1, -32):
        r <<= 32
        r += (m >> shift) & 0xFFFFFFFF
        r %= ps
    return r if a >= 0 else (ps - r) % ps


def _euler_symbols(residues: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """legendre_euler(a, p) for the residues a mod the odd primes ps, below 2**31.

    Square-and-multiply over the bits of (p - 1)/2, all primes at once;
    every product is of two residues below p, so below 2**62.
    """
    import numpy as np

    power = np.ones_like(ps)
    square = residues.copy()
    product = np.empty_like(ps)
    exponents = ps >> 1
    while True:
        np.multiply(power, square, out=product)
        np.remainder(product, ps, out=product)
        np.copyto(power, product, where=(exponents & 1).astype(bool))
        exponents >>= 1
        if not exponents.any():
            break
        np.multiply(square, square, out=square)
        np.remainder(square, ps, out=square)
    symbols = np.where(power == 1, 1, -1).astype(np.int8)
    symbols[residues == 0] = 0
    return symbols


# The bits 2**1, 2**3, ..., 2**61: a power of two 2**e below 2**63 is one
# of them exactly when e is odd.
_ODD_POWERS_OF_TWO = 0x2AAAAAAAAAAAAAAA


def _jacobi_symbols(residues: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Jacobi symbols (a/n) of the residues a mod the odd ps, by the binary algorithm.

    Each step divides a by its largest power-of-two factor 2**e, which
    flips the sign when e is odd and n = 3 or 5 mod 8, then swaps a and n
    by reciprocity, which flips it when both are 3 mod 4, and reduces a
    mod n.  An entry leaves at a = 0 with its sign when n = 1, else 0.
    Entries still running are compacted after every step.
    """
    import numpy as np

    symbols = np.zeros(len(ps), dtype=np.int8)
    live = np.flatnonzero(residues)
    a, n = residues[live], ps[live]
    sign = np.ones(len(live), dtype=np.int8)
    while len(live):
        twos = a & -a
        a //= twos
        odd_twos = (twos & _ODD_POWERS_OF_TWO) != 0
        np.negative(sign, out=sign, where=odd_twos & (((n & 7) == 3) | ((n & 7) == 5)))
        np.negative(sign, out=sign, where=(a & n & 3) == 3)
        a, n = n % a, a
        done = a == 0
        symbols[live[done]] = np.where(n[done] == 1, sign[done], 0)
        going = ~done
        live, a, n, sign = live[going], a[going], n[going], sign[going]
    return symbols


# Odd primes per array pass of split_symbols.  In density --bound 10^7,
# one pass over all 664,578 of them peaked 47 MB above the per-prime
# loop; at 10^6, blocks of 2**16 ran no faster than 2**14 and peaked 4 MB higher.
_LEGENDRE_BLOCK = 2**14

_SYMBOL_OF = {SplitType.SPLIT: 1, SplitType.INERT: -1, SplitType.RAMIFIED: 0}


def split_symbols(order: OrderParams, primes: list[int]) -> np.ndarray:
    """int8 array: 1, -1 or 0 as each of primes splits, is inert or ramifies in order.

    primes must be ascending sieve output below 2**31, so that the int64
    products of two residues mod p are exact; they are not tested again.
    p = 2 takes _split_type_of_prime's rule mod 8.  Every odd prime is
    decided by the Legendre symbol of the discriminant, computed for
    _LEGENDRE_BLOCK primes at a time, twice: by Euler's criterion and by
    the binary Jacobi algorithm; any disagreement raises RuntimeError.
    """
    import numpy as np

    if primes and primes[-1] >= 2**31:
        raise ValueError(f"primes must be below 2**31, got {primes[-1]!r}")
    symbols = np.empty(len(primes), dtype=np.int8)
    first_odd = 0
    if primes and primes[0] == 2:
        symbols[0] = _SYMBOL_OF[_split_type_of_prime(order, 2)]
        first_odd = 1
    d = order.discriminant
    for start in range(first_odd, len(primes), _LEGENDRE_BLOCK):
        ps = np.array(primes[start : start + _LEGENDRE_BLOCK], dtype=np.int64)
        residues = _residues(d, ps)
        block = _euler_symbols(residues, ps)
        mismatch = np.flatnonzero(block != _jacobi_symbols(residues, ps))
        if len(mismatch):
            raise RuntimeError(f"legendre mismatch at ({d}, {ps[mismatch[0]]})")
        symbols[start : start + len(ps)] = block
    return symbols


def split_density_report(order: OrderParams, bound: int, *, primes: list[int]) -> SplitDensityReport:
    """Split/inert/ramified counts over all primes <= bound.

    primes must be primes_up_to(bound), which the caller has sieved
    already, and bound below 2**31; the counts are those of
    split_symbols(order, primes).
    """
    import numpy as np

    if bound < 100:
        raise ValueError(f"bound must be at least 100, got {bound!r}")
    if bound >= 2**31:
        raise ValueError(f"bound must be below 2**31, got {bound!r}")
    symbols = split_symbols(order, primes)
    split, inert, ramified = (int(np.count_nonzero(symbols == symbol)) for symbol in (1, -1, 0))
    return SplitDensityReport(
        order=order,
        bound=bound,
        split_count=split,
        inert_count=inert,
        ramified_count=ramified,
    )
