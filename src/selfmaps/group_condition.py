"""Conjugation tests on finite groups given by Cayley tables.

The question answered here: inside a finite group, does conjugation on
a cyclic subgroup of prime order p, together with inversion, realize
every automorphism of that subgroup?  Equivalently, is the composite
map to (Z/p)*/{+-1} surjective?  Groups arrive as explicit
multiplication tables over element indices, which keeps every check a
table lookup and puts an order cap in place of generator plumbing.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .qorders import is_prime
from .toric import read_capped_text

__all__ = [
    "GROUP_ORDER_CAP",
    "GROUP_FILE_BYTE_CAP",
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
# Largest group file load_group reads, in bytes: the canonical text of a
# table at the order cap (entries split by one space, rows by a newline)
# is 488,900,006 bytes, and a file past this cap is refused after
# reading one byte beyond it, never read to its end.
GROUP_FILE_BYTE_CAP = 2**29

# dtype of every table and inverse array: each entry is an element index
# below GROUP_ORDER_CAP <= 2**16 - 1, so 16 bits hold it, and the
# quadratic passes (inverse scan, Light's test, Latin scan) move half
# the bytes of int32.  Entries are only ever used as indices: unsigned
# arithmetic on them would wrap.
_INDEX_DTYPE = np.uint16

# rows, columns or subgroups per block of the quadratic table scans:
# bounds peak memory, and 64 rows of the largest table (1.2 MB) stay in
# cache while Light's test gathers within them
_BLOCK = 64


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
    fails within log2(n) + 1 generators.  The generating set keeps the
    greedy order and only drops generators, so each kept generator lies
    outside the closure of the greedy ones before it, which holds the
    kept ones before it; the kept generators that pass the test thus
    generate a group, each at least doubling it.

    ``table`` and ``inverse`` are read-only uint16 arrays: the order
    cap of 10000 keeps every element index below 2**16.  The range of
    the caller's entries is checked before the cast, so no entry wraps
    into range.  The constructor always copies: numpy cannot tell
    whether writeable views of a caller's array exist, even of a
    read-only one, so sharing it would let the table change after the
    checks.
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
        self._check_and_store(table.astype(_INDEX_DTYPE))

    def _check_and_store(self, table: np.ndarray) -> None:
        """Check the axioms on a fresh in-range index table, then freeze and keep it."""
        n = table.shape[0]
        idx = np.arange(n, dtype=_INDEX_DTYPE)
        inverse = np.empty(n, dtype=_INDEX_DTYPE)
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


def _adopt(table: np.ndarray) -> CayleyGroup:
    """CayleyGroup over ``table`` itself, without the constructor's copy.

    Only for a square _INDEX_DTYPE table of element indices, within the
    order cap, that the caller has just filled and holds no other
    reference or view to.
    """
    group = object.__new__(CayleyGroup)
    group._check_and_store(table)
    return group


def _generating_set(table: np.ndarray) -> list[int]:
    """Small set whose closure, with 0, under the table operation is everything.

    Greedy: repeatedly adjoin the smallest element outside the closure,
    then drop every earlier generator on the new one's left-power orbit
    g, g*g, g*(g*g), ...  The walk stops at its first repeated element,
    so within n steps also where left multiplication by g is no
    permutation.  A dropped generator lies in the closure of the new
    one, so the closure is unchanged.  Correct for any table (closure
    is closure of the magma, so the result is valid input for the
    associativity test below).
    """
    n = table.shape[0]
    if n <= 64:
        return list(range(1, n))
    known = np.zeros(n, dtype=bool)
    known[0] = True
    gens: list[int] = []
    while not known.all():
        g = int(np.nonzero(~known)[0][0])
        row = table[g].tolist()
        orbit = {g}
        cur = row[g]
        while cur not in orbit:
            orbit.add(cur)
            cur = row[cur]
        gens = [h for h in gens if h not in orbit]
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
    """Order of every element, computed by simultaneous power iteration.

    No CLI path calls this: it stays as the test oracle for
    ``find_cyclic_subgroups`` and as a trace point of perfbench.
    """
    n = group.order
    idx = np.arange(n, dtype=_INDEX_DTYPE)
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


def _order_q_elements(group: CayleyGroup, q: int) -> np.ndarray:
    """The elements of prime order q, ascending.

    x^q for every x at once, by square-and-multiply over table gathers;
    as q is prime, x has order q exactly when x != 0 and x^q = 0.
    """
    idx = np.arange(group.order, dtype=_INDEX_DTYPE)
    power = np.zeros_like(idx)
    for bit in bin(q)[2:]:
        power = group.table[power, power]
        if bit == "1":
            power = group.table[power, idx]
    return np.nonzero(power == 0)[0][1:]


def find_cyclic_subgroups(group: CayleyGroup, p: int) -> tuple[CyclicSubgroup, ...]:
    """One representative record per subgroup of order p, smallest generator first."""
    if not is_prime(p):
        raise ValueError(f"need a prime order, got {p!r}")
    seen: set[int] = set()
    out = []
    for g in _order_q_elements(group, p):
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


def _conjugation_exponents(
    group: CayleyGroup, subs: Sequence[CyclicSubgroup]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Normalizer and exponent map of each subgroup of one prime order, in turn.

    For every x, x * g * x^-1 with g the stored generator decides both:
    conjugation maps the cyclic group of prime order <g> onto <x g x^-1>,
    so x normalizes it exactly when x g x^-1 is a power g^delta of g,
    and then rho(x) = delta.  One gather per block of _BLOCK subgroups
    conjugates their generators by every element; a lookup of the
    generators' powers gives the exponents.  Distinct subgroups of prime
    order meet only in 0, so one array records which subgroup each
    power lies in.  Each subgroup record, which anyone can build, is
    checked against the powers of its generator first.
    """
    owner = np.full(group.order, -1, dtype=np.int64)
    exponent_of = np.zeros(group.order, dtype=np.int64)
    for s, sub in enumerate(subs):
        powers = [0]
        while (cur := group.mul(powers[-1], sub.generator)) != 0:
            powers.append(cur)
        if len(powers) != sub.order or sorted(powers) != sorted(sub.elements):
            raise ValueError(f"subgroup record disagrees with the powers of {sub.generator}")
        owner[powers[1:]] = s
        exponent_of[powers] = np.arange(len(powers))
    gens = np.array([sub.generator for sub in subs], dtype=_INDEX_DTYPE)
    idx = np.arange(group.order)
    for start in range(0, len(subs), _BLOCK):
        block = gens[start : start + _BLOCK]
        # x * (g * x^-1): a gather within the block's rows, then one
        # entry of row x per (g, x)
        conj = group.table[idx, group.table[block][:, group.inverse]]
        inside = owner[conj] == np.arange(start, start + len(block))[:, None]
        for row, row_inside in zip(conj, inside):
            norm = np.nonzero(row_inside)[0]
            yield norm, exponent_of[row[norm]]


def normalizer(group: CayleyGroup, sub: CyclicSubgroup) -> tuple[int, ...]:
    """All g with g * C * g^-1 = C, decided on the stored generator of C alone.

    No CLI path calls this: ``rho_bar_surjective`` reads the shared
    conjugation pass directly.  It stays as a test target and as a
    trace point of perfbench.
    """
    ((norm, _),) = _conjugation_exponents(group, (sub,))
    return tuple(norm.tolist())


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
    No CLI path calls this; it stays as a test target and as a trace
    point of perfbench.
    """
    ((norm, delta),) = _conjugation_exponents(group, (sub,))
    return dict(zip(norm.tolist(), delta.tolist()))


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
    subs = find_cyclic_subgroups(group, p)
    reports = []
    winner: dict[int, tuple[int, int]] = {}
    for sub, (norm, delta) in zip(subs, _conjugation_exponents(group, subs)):
        # the normalizer is ascending, so the first index of each
        # exponent is its smallest element
        image, first = np.unique(delta, return_index=True)
        by_delta = dict(zip(image.tolist(), norm[first].tolist()))
        witnesses: dict[int, tuple[int, int]] = {}
        for r in range(1, p):
            if r in by_delta:
                witnesses[r] = (by_delta[r], 1)
            elif p - r in by_delta:
                witnesses[r] = (by_delta[p - r], -1)
        covered = len(witnesses) == p - 1
        reports.append(
            SubgroupRhoReport(
                subgroup=sub,
                image=tuple(image.tolist()),
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
    a = np.arange(p)
    u = np.arange(1, p)
    # index of (a + u*b, u*v) split into its a-part and u-part, each
    # below n; one broadcast add of the two writes the whole table as
    # [a, u, b, v], already in the index dtype
    prod_a = ((a[:, None, None] + u[None, :, None] * a[None, None, :]) % p * (p - 1)).astype(_INDEX_DTYPE)
    prod_u = ((u[:, None] * u[None, :]) % p - 1).astype(_INDEX_DTYPE)
    table = np.empty((n, n), dtype=_INDEX_DTYPE)
    np.add(prod_a[..., None], prod_u[None, :, None, :], out=table.reshape(p, p - 1, p, p - 1))
    return _adopt(table)


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
    if n < 1:
        raise GroupFileError(f"group order must be at least 1, got {n}")
    if n > GROUP_ORDER_CAP:
        raise GroupValidationError(f"order {n} exceeds cap {GROUP_ORDER_CAP}")
    if len(lines) != n + 1:
        raise GroupFileError(f"expected {n} rows after the order line, got {len(lines) - 1}")
    # numpy's parser takes a subset of what int() takes and gives the
    # same values there.  It only sees ASCII rows: numpy 2.4.6 segfaulted
    # in about a third of fresh runs on a row holding U+AAE60.  Anything
    # else, and every error, goes through the per-row loop and its
    # row-numbered messages.
    if all(map(str.isascii, lines[1:])):
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
    """Read and validate a group table file (identity must be element 0).

    Files of more than GROUP_FILE_BYTE_CAP bytes are refused.
    """
    text = read_capped_text(path, GROUP_FILE_BYTE_CAP)
    return validate_group(parse_group_text(text))
