"""Conjugation tests on finite groups given by Cayley tables.

The question answered here: inside a finite group, does conjugation on
a cyclic subgroup of prime order p, together with inversion, realize
every automorphism of that subgroup?  Equivalently, is the composite
map to (Z/p)*/{+-1} surjective?  Groups arrive as explicit
multiplication tables over element indices, which keeps every check a
table lookup and puts an order cap in place of generator plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .qorders import is_prime

__all__ = [
    "GROUP_ORDER_CAP",
    "GroupValidationError",
    "GroupFileError",
    "CayleyGroup",
    "CyclicSubgroup",
    "SubgroupRhoReport",
    "RhoBarReport",
    "validate_group",
    "element_orders",
    "find_cyclic_subgroups",
    "normalizer",
    "conjugation_rho",
    "rho_bar_surjective",
    "build_semidirect",
    "build_cyclic",
    "parse_group_text",
    "load_group",
]

GROUP_ORDER_CAP = 10000

# row or column block size for the quadratic table scans; bounds peak memory
_BLOCK = 1024


class GroupValidationError(ValueError):
    """The table is not a group table (or violates a documented cap)."""


class GroupFileError(ValueError):
    """Malformed group file."""


@dataclass(frozen=True, eq=False, init=False)
class CayleyGroup:
    """A group as a multiplication table; identity is element 0.

    The constructor checks shape, range, identity 0, inverses and
    associativity, and derives ``order`` and ``inverse``, so every
    instance is a group and no consumer re-checks the axioms.

    The Latin (row and column permutation) check runs only when a later
    check fails, to report the same first failing stage as the ordered
    checks.  A table that passes needs no Latin check: once 0 is a
    two-sided identity, the middle elements g with (xg)y = x(gy) for all
    x, y are closed under the product in any magma, so Light's test on a
    generating set proves full associativity; identity, two-sided
    inverses and associativity make a group, and a group table is a
    Latin square.  On any other table of order over 64, Light's test
    fails within log2(n) + 1 generators: the greedy generators that
    pass it generate a group, each at least doubling it.

    The table is read-only int32: a read-only int32 array owning its
    data is used without a copy, anything else (a view too) is copied.
    """

    order: int
    table: np.ndarray
    inverse: np.ndarray

    def __init__(self, table_like):
        table = np.asarray(table_like)
        if not np.issubdtype(table.dtype, np.integer):
            raise GroupValidationError("table entries must be integers")
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise GroupValidationError(f"table must be square, got shape {table.shape}")
        n = table.shape[0]
        if n < 1:
            raise GroupValidationError("empty table")
        if n > GROUP_ORDER_CAP:
            raise GroupValidationError(f"order {n} exceeds cap {GROUP_ORDER_CAP}")
        if table.min() < 0 or table.max() >= n:
            raise GroupValidationError("table entries must be element indices")
        if table.dtype != np.int32 or table.flags.writeable or not table.flags.owndata:
            table = table.astype(np.int32)
        idx = np.arange(n, dtype=np.int32)
        inverse = np.empty(n, dtype=np.int32)
        try:
            if not np.array_equal(table[0], idx) or not np.array_equal(table[:, 0], idx):
                raise GroupValidationError("identity must be element 0")
            for start in range(0, n, _BLOCK):
                inverse[start : start + _BLOCK] = np.argmin(table[start : start + _BLOCK], axis=1)
            if (table[inverse, idx] != 0).any() or (table[idx, inverse] != 0).any():
                raise GroupValidationError("inverses are not two-sided")
            _check_associativity(table, _generating_set(table))
        except GroupValidationError:
            latin = _latin_failure(table)
            if latin is not None:
                raise GroupValidationError(latin) from None
            raise
        table.setflags(write=False)
        inverse.setflags(write=False)
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "inverse", inverse)

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inv(self, i: int) -> int:
        return int(self.inverse[i])

    def conjugate(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return int(self.table[self.table[g, x], self.inverse[g]])


def _generating_set(table: np.ndarray) -> list[int]:
    """Small set whose closure under the table operation is everything.

    Greedy: repeatedly adjoin the smallest element outside the closure.
    Correct for any table (closure is closure of the magma, so the
    result is valid input for the associativity test below).
    """
    n = table.shape[0]
    if n <= 64:
        return list(range(1, n))
    known = np.zeros(n, dtype=bool)
    known[0] = True
    gens: list[int] = []
    while not known.all():
        g = int(np.nonzero(~known)[0][0])
        gens.append(g)
        known[g] = True
        frontier = np.array([g])
        # once every element is reached, products cannot add anything,
        # so the closing confirmation round is skipped
        while frontier.size and not known.all():
            kidx = np.nonzero(known)[0]
            prods = np.unique(
                np.concatenate(
                    [
                        table[np.ix_(frontier, kidx)].ravel(),
                        table[np.ix_(kidx, frontier)].ravel(),
                    ]
                )
            )
            fresh = prods[~known[prods]]
            known[fresh] = True
            frontier = fresh
    return gens


def _check_associativity(table: np.ndarray, gens: list[int]) -> None:
    """Light's test: (x*g)*y == x*(g*y) for every generator g suffices."""
    n = table.shape[0]
    for g in gens:
        g_times = table[g, :]
        times_g = table[:, g]
        for start in range(0, n, _BLOCK):
            stop = min(start + _BLOCK, n)
            left = np.take(table, times_g[start:stop], axis=0)
            right = np.take(table[start:stop], g_times, axis=1)
            if not np.array_equal(left, right):
                raise GroupValidationError(
                    f"associativity fails for triples with middle element {g}"
                )


def _latin_failure(table: np.ndarray) -> str | None:
    """Message for the first row, then column, that is not a permutation."""
    n = table.shape[0]
    idx = np.arange(n, dtype=table.dtype)
    for start in range(0, n, _BLOCK):
        if (np.sort(table[start : start + _BLOCK], axis=1) != idx).any():
            return "some row is not a permutation"
    for start in range(0, n, _BLOCK):
        if (np.sort(table[:, start : start + _BLOCK], axis=0) != idx[:, None]).any():
            return "some column is not a permutation"
    return None


def validate_group(table_like) -> CayleyGroup:
    """``CayleyGroup(table_like)``: the checked group, or GroupValidationError."""
    return CayleyGroup(table_like)


def element_orders(group: CayleyGroup) -> np.ndarray:
    """Order of every element, computed by simultaneous power iteration."""
    n = group.order
    idx = np.arange(n, dtype=np.int32)
    current = idx.copy()
    orders = np.zeros(n, dtype=np.int64)
    for k in range(1, n + 1):
        fresh = (current == 0) & (orders == 0)
        orders[fresh] = k
        if (orders > 0).all():
            return orders
        current = group.table[current, idx]
    raise RuntimeError("element order exceeds group order")  # unreachable on valid groups


@dataclass(frozen=True)
class CyclicSubgroup:
    """Cyclic subgroup of prime order, stored with a chosen generator."""

    generator: int
    order: int
    elements: tuple[int, ...]


def find_cyclic_subgroups(group: CayleyGroup, p: int) -> tuple[CyclicSubgroup, ...]:
    """One representative record per subgroup of order p, smallest generator first."""
    if not is_prime(p):
        raise ValueError(f"need a prime order, got {p!r}")
    orders = element_orders(group)
    seen: set[int] = set()
    out = []
    for g in np.nonzero(orders == p)[0]:
        g = int(g)
        if g in seen:
            continue
        elems = [0]
        cur = g
        while cur != 0:
            elems.append(cur)
            cur = group.mul(cur, g)
        if len(elems) != p:
            raise RuntimeError(f"element {g} of order {p} generates {len(elems)} elements")
        seen.update(elems)
        out.append(CyclicSubgroup(generator=g, order=p, elements=tuple(sorted(elems))))
    return tuple(out)


def normalizer(group: CayleyGroup, sub: CyclicSubgroup) -> tuple[int, ...]:
    """All g with g * C * g^-1 = C, by direct conjugation of every element."""
    elems = np.array(sub.elements, dtype=np.int32)
    in_sub = np.zeros(group.order, dtype=bool)
    in_sub[elems] = True
    left = group.table[:, elems]
    conj = group.table[left, group.inverse[:, None]]
    ok = in_sub[conj].all(axis=1)
    return tuple(int(g) for g in np.nonzero(ok)[0])


def conjugation_rho(group: CayleyGroup, sub: CyclicSubgroup) -> dict[int, int]:
    """Exponent map of the conjugation action on the subgroup.

    For n in the normalizer, rho(n) is the delta in (Z/p)* with
    n * g * n^-1 = g^delta for the stored generator g.  Since the
    subgroup is cyclic of prime order, n * g^j * n^-1 = (n*g*n^-1)^j
    = g^(delta*j), so the exponent computed on the one generator
    already describes the action on every element; no per-element
    check is needed.  Every CayleyGroup is a group, so rho(ab) =
    rho(a)rho(b) holds without a check; only the subgroup record, which
    anyone can build, is checked against the powers of its generator.
    """
    powers = [0]
    while (cur := group.mul(powers[-1], sub.generator)) != 0:
        powers.append(cur)
    if len(powers) != sub.order or sorted(powers) != sorted(sub.elements):
        raise ValueError(f"subgroup record disagrees with the powers of {sub.generator}")
    norm = np.array(normalizer(group, sub), dtype=np.int32)
    exponent_of = np.full(group.order, -1, dtype=np.int32)
    exponent_of[powers] = np.arange(len(powers), dtype=np.int32)
    conj_gen = group.table[group.table[norm, sub.generator], group.inverse[norm]]
    delta = exponent_of[conj_gen]
    if (delta < 1).any():
        raise RuntimeError("conjugate of the generator left the subgroup")
    return {int(n): int(d) for n, d in zip(norm, delta)}


@dataclass(frozen=True)
class SubgroupRhoReport:
    """Coverage of (Z/p)* by one subgroup's conjugation exponents and their negatives."""

    subgroup: CyclicSubgroup
    image: tuple[int, ...]
    covered: bool
    witnesses: dict[int, tuple[int, int]]


@dataclass(frozen=True)
class RhoBarReport:
    """Result of the surjectivity check, existential over subgroups of order p."""

    p: int
    holds: bool
    witnesses: dict[int, tuple[int, int]]
    subgroup_reports: tuple[SubgroupRhoReport, ...]


def rho_bar_surjective(group: CayleyGroup, p: int) -> RhoBarReport:
    """Does some order-p subgroup see every residue via conjugation up to sign?

    For each cyclic subgroup of order p, take the image of the
    conjugation exponent map on its normalizer; the check passes when
    image union minus-image is all of (Z/p)*.  Witnesses pair each
    residue with (group element, sign): the element conjugates the
    generator to the power sign*residue.
    """
    if not is_prime(p):
        raise ValueError(f"need a prime order, got {p!r}")
    reports = []
    winner: dict[int, tuple[int, int]] = {}
    for sub in find_cyclic_subgroups(group, p):
        rho = conjugation_rho(group, sub)
        by_delta: dict[int, int] = {}
        for n in sorted(rho):
            by_delta.setdefault(rho[n], n)
        witnesses: dict[int, tuple[int, int]] = {}
        for r in range(1, p):
            if r in by_delta:
                witnesses[r] = (by_delta[r], 1)
            elif (p - r) % p in by_delta:
                witnesses[r] = (by_delta[(p - r) % p], -1)
        covered = len(witnesses) == p - 1
        reports.append(
            SubgroupRhoReport(
                subgroup=sub,
                image=tuple(sorted(set(rho.values()))),
                covered=covered,
                witnesses=witnesses,
            )
        )
        if covered and not winner:
            winner = witnesses
    return RhoBarReport(p=p, holds=bool(winner), witnesses=winner, subgroup_reports=tuple(reports))


def build_semidirect(p: int) -> CayleyGroup:
    """Group of pairs (a, u) in Z/p x (Z/p)* with (a,u)(b,v) = (a + u*b, u*v).

    Element (a, u) sits at index a*(p-1) + (u-1), so the identity (0, 1)
    is element 0.  Conjugation of the normal Z/p factor by (0, u) is
    multiplication by u, so the exponent map is onto (Z/p)* by design.
    """
    if not is_prime(p):
        raise ValueError(f"need a prime, got {p!r}")
    n = p * (p - 1)
    if n > GROUP_ORDER_CAP:
        raise GroupValidationError(f"order {n} = p(p-1) exceeds cap {GROUP_ORDER_CAP}")
    a = np.arange(p, dtype=np.int32)
    u = np.arange(1, p, dtype=np.int32)
    # index of (a + u*b, u*v) split into its a-part and u-part; one
    # broadcast add writes the whole table as [a, u, b, v]
    prod_a = (a[:, None, None] + u[None, :, None] * a[None, None, :]) % p * (p - 1)
    prod_u = (u[:, None] * u[None, :]) % p - 1
    table = np.empty((n, n), dtype=np.int32)
    np.add(prod_a[..., None], prod_u[None, :, None, :], out=table.reshape(p, p - 1, p, p - 1))
    table.setflags(write=False)
    return validate_group(table)


def build_cyclic(n: int) -> CayleyGroup:
    """Z/n as a table."""
    if n < 1 or n > GROUP_ORDER_CAP:
        raise GroupValidationError(f"order must be in 1..{GROUP_ORDER_CAP}, got {n!r}")
    idx = np.arange(n, dtype=np.int64)
    return validate_group((idx[:, None] + idx[None, :]) % n)


def parse_group_text(text: str) -> np.ndarray:
    """Parse a table file: first line the order, then one row per line."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GroupFileError("group file is empty")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise GroupFileError(f"first line must be the order, got {lines[0]!r}") from exc
    if n > GROUP_ORDER_CAP:
        raise GroupValidationError(f"order {n} exceeds cap {GROUP_ORDER_CAP}")
    if len(lines) != n + 1:
        raise GroupFileError(f"expected {n} rows after the order line, got {len(lines) - 1}")
    # numpy's parser takes a subset of what int() takes and gives the
    # same values there.  It only sees ASCII rows: numpy 2.4.6 segfaulted
    # in about a third of fresh runs on a row holding U+AAE60.  Anything
    # else, and every error, goes through the per-row loop and its
    # row-numbered messages.
    if n > 0 and all(map(str.isascii, lines[1:])):
        try:
            table = np.loadtxt(lines[1:], dtype=np.int64, comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if table.shape == (n, n):
                return table
    rows = []
    for lineno, line in enumerate(lines[1:], start=1):
        parts = line.split()
        if len(parts) != n:
            raise GroupFileError(f"row {lineno}: expected {n} entries, got {len(parts)}")
        try:
            rows.append([int(x) for x in parts])
        except ValueError as exc:
            raise GroupFileError(f"row {lineno}: not integers") from exc
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        raise GroupValidationError("table entries must be element indices") from None


def load_group(path) -> CayleyGroup:
    """Read and validate a group table file (identity must be element 0)."""
    text = Path(path).read_text(encoding="utf-8")
    return validate_group(parse_group_text(text))
