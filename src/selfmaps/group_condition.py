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

# rows, columns or subgroups per block of the quadratic table scans
# (inverse, Light's test, Latin, conjugation): bounds the temporaries of
# a block, 64 rows of a table at the order cap being 1.3 MB.  Light's
# test gathers every block into the same two buffers, allocated once
# per half of the table.  Measured in process on a 2-core x86_64 host,
# one thread ran Light's test at orders 110-1806 with 64-row buffers in
# 0.6-1.0 times the time of gathering each block into fresh arrays, and
# with 16-row buffers in 1.1-2.4 times; at order 9312 with both halves
# split, the two sizes were within 3% of each other.
_BLOCK = 64

# order up to which every non-identity element is a generator
# (_generating_set), so that Light's test takes all middle elements and
# tests them a block at a time, with one gather per side over at most
# _TRIPLES (x, g, y) entries.  Measured in process on a 2-core x86_64
# host (medians of 15 rounds, three alternated runs), Light's test on
# cyclic and semidirect tables of order 20, 42 and 64 took 28-36,
# 147-155 and 340-350 us this way against 119-136, 301-339 and 591-613
# us one generator at a time.
_SMALL_ORDER = 64
_TRIPLES = 2**16

# order from which _split_rows runs the upper half of a pass in a helper
# thread.  Measured in process on a 2-core x86_64 host, validating a
# table with both halves split took, as a median ratio of interleaved
# calls to one thread: semidirect order 506 1.21, 812 1.06, 930 1.21,
# 1332 0.83, 1806 0.75; cyclic order 768 1.12, 1024 1.04, 1280 0.99,
# 1806 0.92.  Below the break-even, the thread start (about 0.16 ms)
# and the hand-offs of the GIL between numpy calls outweigh the
# overlap; at order 9312 a split pass takes 0.56 times as long.
_SPLIT_ORDER = 1024


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
    Latin square.  Up to order 64 every element is a generator, and
    Light's test checks blocks of middle elements at a time.  On any
    other table of order over 64, Light's test fails within log2(n) + 1
    generators.  The generating set keeps the greedy order and only
    drops generators, so each kept generator lies outside the closure
    of the greedy ones before it, which holds the kept ones before it;
    the kept generators that pass the test thus generate a group, each
    at least doubling it.

    From order _SPLIT_ORDER (1024) on, the inverse scan and Light's test
    each run on two threads, one per half of the rows (``_split_rows``);
    they reach the same verdict and message as one pass over all rows.

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

            def inverses(lo: int, hi: int) -> None:
                for start in range(lo, hi, _BLOCK):
                    stop = min(start + _BLOCK, hi)
                    inverse[start:stop] = np.argmin(table[start:stop], axis=1)

            _split_rows(inverses, n)
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


def _split_rows(work, n: int, unit: int = 1) -> None:
    """work(0, n), as two halves on two threads for n >= _SPLIT_ORDER.

    work(lo, hi) does a pass over rows lo..hi-1; the halves meet at a
    multiple of unit.  A helper thread runs the upper half while this
    one runs the lower: numpy releases the GIL inside each pass, so on
    two cores the halves overlap.  The helper is joined before this
    returns or raises, and an exception it raised is raised here.
    """
    if n < _SPLIT_ORDER:
        work(0, n)
        return
    import threading

    mid = n // (2 * unit) * unit
    failure: list[BaseException] = []

    def upper() -> None:
        try:
            work(mid, n)
        except BaseException as exc:  # raised below: no half may go unchecked
            failure.append(exc)

    helper = threading.Thread(target=upper)
    helper.start()
    try:
        work(0, mid)
    finally:
        helper.join()
    if failure:
        raise failure[0]


def _generating_set(table: np.ndarray) -> list[int]:
    """Small set whose closure, with 0, under the table operation is everything.

    Greedy: repeatedly adjoin the smallest element outside the closure,
    then drop every earlier generator on the new one's left-power orbit
    g, g*g, g*(g*g), ...  The walk stops at its first repeated element,
    so within n steps also where left multiplication by g is no
    permutation.  A dropped generator lies in the closure of the new
    one, so the closure is unchanged.  The closure holds the orbit, so
    when the orbit and the closure so far cover every element, as for a
    generator of a cyclic table, the search for it is skipped.  Correct
    for any table (closure is closure of the magma, so the result is
    valid input for the associativity test below).
    """
    n = table.shape[0]
    if n <= _SMALL_ORDER:
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
        covered = known.copy()
        covered[list(orbit)] = True
        if covered.all():
            break
        frontier = np.array([g])
        # once every element is reached, products cannot add anything,
        # so the closing confirmation round is skipped
        while frontier.size and not known.all():
            kidx = np.nonzero(known)[0]
            reached = np.zeros(n, dtype=bool)
            reached[table[np.ix_(frontier, kidx)]] = True
            reached[table[np.ix_(kidx, frontier)]] = True
            frontier = np.nonzero(reached & ~known)[0]
            known[frontier] = True
    return gens


def _check_associativity(table: np.ndarray, gens: list[int]) -> None:
    """Light's test: (x*g)*y == x*(g*y) for every generator g suffices.

    Each half of the rows is tested for one generator after another, or
    up to order _SMALL_ORDER for one block of middle elements after
    another, and stops at its first failure, or once the other half has
    failed at an earlier generator; the first failing generator in gens
    order is reported, as by one pass over all rows.
    """
    n = table.shape[0]
    # index in gens of the first failure in each half; each half writes
    # only its own slot, the one for the half that ends at row n last
    failed = [len(gens), len(gens)]

    def light(lo: int, hi: int) -> None:
        half = int(hi == n)
        if n <= _SMALL_ORDER:
            rows = table[lo:hi]
            step = max(1, _TRIPLES // (n * n))
            for k in range(0, len(gens), step):
                if k >= min(failed):
                    return
                middle = gens[k : k + step]
                # [x, g, y] entries (x*g)*y and x*(g*y), x in lo..hi-1
                left = np.take(table, rows[:, middle], axis=0)
                right = np.take(rows, table[middle], axis=1)
                bad = (left != right).any(axis=(0, 2))
                if bad.any():
                    failed[half] = k + int(bad.argmax())
                    return
            return
        left = np.empty((_BLOCK, n), dtype=table.dtype)
        right = np.empty_like(left)
        differ = np.empty(left.shape, dtype=bool)
        for k, g in enumerate(gens):
            if k >= min(failed):
                return
            g_times = table[g, :]
            times_g = table[:, g]
            for start in range(lo, hi, _BLOCK):
                stop = min(start + _BLOCK, hi)
                rows = stop - start
                # every entry is an index below n, so "clip" never
                # clips; unlike "raise" it lets take write into out
                np.take(table, times_g[start:stop], axis=0, out=left[:rows], mode="clip")
                np.take(table[start:stop], g_times, axis=1, out=right[:rows], mode="clip")
                if np.not_equal(left[:rows], right[:rows], out=differ[:rows]).any():
                    failed[half] = k
                    return

    _split_rows(light, n)
    if min(failed) < len(gens):
        raise GroupValidationError(
            f"associativity fails for triples with middle element {gens[min(failed)]}"
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
    blocks = table.reshape(p, p - 1, p, p - 1)

    def fill(lo: int, hi: int) -> None:
        a_lo, a_hi = lo // (p - 1), hi // (p - 1)
        np.add(prod_a[a_lo:a_hi, ..., None], prod_u[None, :, None, :], out=blocks[a_lo:a_hi])

    _split_rows(fill, n, unit=p - 1)
    return _adopt(table)


def build_cyclic(n: int) -> CayleyGroup:
    """Z/n as a table."""
    if n < 1 or n > GROUP_ORDER_CAP:
        raise GroupValidationError(f"order must be in 1..{GROUP_ORDER_CAP}, got {n!r}")
    idx = np.arange(n, dtype=np.int64)
    return validate_group((idx[:, None] + idx[None, :]) % n)


def parse_group_text(text: str) -> np.ndarray:
    """Parse a table file: first line the order, then one row per line.

    Lines are those of ``str.splitlines``; blank lines and lines whose
    first non-blank character is ``#`` are skipped.  The byte kernel
    ``_parse_table_bytes`` reads a valid table of decimal digits, blanks
    (space, tab), line breaks (LF, CR) and whole-line comments into a
    uint16 table.  Any other text goes to the per-row ``int()`` loop
    below, which reads it into an int64 table or raises; the kernel
    never raises, so every error message comes from the loop.
    """
    table = _parse_table_bytes(text)
    if table is not None:
        return table
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
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
    table = np.empty((n, n), dtype=np.int64)
    # an entry beyond int64 is reported only once every row has passed its format checks
    overflow = False
    for lineno, line in enumerate(lines[1:], start=1):
        parts = line.split()
        if len(parts) != n:
            raise GroupFileError(f"row {lineno}: expected {n} entries, got {len(parts)}")
        try:
            table[lineno - 1] = [int(x) for x in parts]
        except ValueError as exc:
            raise GroupFileError(f"row {lineno}: not integers") from exc
        except OverflowError:
            overflow = True
    if overflow:
        raise GroupValidationError("table entries must be element indices")
    return table


# The byte kernel of parse_group_text.  The table body is read in
# blocks of about _TEXT_BLOCK characters, each cut after a line break,
# so the temporaries of a block (byte masks, int64 token indices, uint64
# windows) stay under about 1 MB.  Measured in process on a 2-core
# x86_64 host: with 2^17-character blocks a table of order 156 (80 kB,
# one block) parsed in 1.2 ms against 0.54 ms, since its fresh ~1.3 MB
# of temporaries page-fault on every call; on order-1806 tables 2^15 was
# as fast as 2^17, and 2^13 1.3-1.8 times slower.  Every integer
# constant is a numpy scalar of the array's dtype: with numpy 1.24's
# value-based casting a Python int could promote a uint64 array to
# float64.
_TEXT_BLOCK = 2**15
# bytes the kernel reads outside comments
_TABLE_BYTES = b"0123456789 \t\n\r"
# ASCII line breaks of str.splitlines that the kernel does not split at
_OTHER_BREAKS = b"\x0b\x0c\x1c\x1d\x1e"
# each block is read as _PAD + block + LF: the LF that ends _PAD puts a
# line break before the first row, and its 7 blanks give the first
# token a whole 8-byte window
_PAD = b"       \n"
_LF, _CR, _ZERO = np.uint8(10), np.uint8(13), np.uint8(48)
# _DIGIT_MASKS[k] keeps the low nibble of the top k bytes of a window,
# that is the digit values of a token of k characters ending at byte 7
_DIGIT_MASKS = np.array(
    [(0x0F0F0F0F0F0F0F0F << 8 * (8 - k)) & 0xFFFFFFFFFFFFFFFF for k in range(8)], dtype=np.uint64
)
_PAIRS, _QUADS = np.uint64(0x00FF00FF00FF00FF), np.uint64(0x0000FFFF0000FFFF)
# window * _TIMES_PAIR >> 8 puts 10 * a + b in the low byte of each
# 16-bit lane (a, b); likewise for 32-bit lanes of pairs and the 64-bit
# lane of two groups of four, whose value lands in the upper 32 bits
_TIMES_PAIR = np.uint64(10 * 2**8 + 1)
_TIMES_QUAD = np.uint64(100 * 2**16 + 1)
_TIMES_OCTET = np.uint64(10000 * 2**32 + 1)
_SHIFT_PAIR, _SHIFT_QUAD = np.uint64(8), np.uint64(16)
_WINDOW, _WINDOW_HALVES = np.dtype("<u8"), np.dtype("<u4")


def _next_break(text: str, pos: int) -> int:
    """Index of the first LF or CR at or after pos, or len(text)."""
    lf = text.find("\n", pos)
    if lf < 0:
        lf = len(text)
    cr = text.find("\r", pos, lf)
    return cr if cr >= 0 else lf


def _splits_further(line: bytes) -> bool:
    """Does str.splitlines split this LF/CR-free line?"""
    return line.translate(None, _OTHER_BREAKS) != line


def _order_line(text: str) -> tuple[int, int] | None:
    """The order and the index after its line, when the kernel can read them."""
    pos = 0
    while pos < len(text):
        end = _next_break(text, pos)
        line = text[pos:end].strip(" \t")
        pos = end + 1
        if not line:
            continue
        if line[0] == "#":
            if _splits_further(line.encode("ascii")):
                return None
            continue
        if not line.isdigit():
            return None
        n = int(line)
        return (n, pos) if 1 <= n <= GROUP_ORDER_CAP else None
    return None


def _blank_comments(block: bytes) -> bytes | None:
    """block with every whole-line comment blanked, or None for a # after a token."""
    out = bytearray(block)
    i = block.find(b"#")
    while i >= 0:
        start = max(block.rfind(b"\n", 0, i), block.rfind(b"\r", 0, i)) + 1
        end = block.find(b"\n", i)
        if end < 0:
            end = len(block)
        cr = block.find(b"\r", i, end)
        if cr >= 0:
            end = cr
        if block[start:i].strip(b" \t") or _splits_further(block[i:end]):
            return None
        out[i:end] = b" " * (end - i)
        i = block.find(b"#", end)
    return bytes(out)


def _parse_table_bytes(text: str) -> np.ndarray | None:
    """The uint16 table of a text the kernel reads, or None for the row loop.

    All or nothing: None for a non-ASCII text, a byte other than digits,
    blanks, LF and CR outside whole-line comments, a # after a token, a
    token of 8 or more characters, an entry of at least n, and a wrong
    count of rows or of tokens in a row.  In each block:

    - a token is a maximal run of digits; its last byte comes from the
      edges of the digit mask, and per line break the number of tokens
      before it gives the number on each line, which must be 0 or n;
    - each token's value comes from the 8-byte little-endian window
      that ends at its last digit: masking keeps the digit values of
      the token's bytes and clears the separators before it, and three
      multiply-shift steps join digits into pairs, pairs into groups of
      four and those into the value, which lands in the window's upper
      32 bits.
    """
    if not text.isascii():
        return None
    head = _order_line(text)
    if head is None:
        return None
    n, pos = head
    table = np.empty(n * n, dtype=_INDEX_DTYPE)
    filled = 0
    while pos < len(text):
        stop = pos + _TEXT_BLOCK
        if stop >= len(text):
            cut = len(text)
        else:
            lf = text.rfind("\n", pos, stop)
            cut = max(lf, text.rfind("\r", max(lf, pos), stop)) + 1
            if cut <= pos:
                cut = _next_break(text, stop) + 1
        block = text[pos:cut].encode("ascii")
        pos = cut
        if b"#" in block:
            block = _blank_comments(block)
            if block is None:
                return None
        if block.translate(None, _TABLE_BYTES):
            return None
        data = b"".join((_PAD, block, b"\n"))
        body = np.frombuffer(data, dtype=np.uint8, offset=7)
        digit = body >= _ZERO
        edges = (digit[1:] != digit[:-1]).nonzero()[0]
        ends = edges[1::2]
        count = ends.size
        if not count:
            continue
        try:
            masks = _DIGIT_MASKS.take(ends - edges[::2])
        except IndexError:  # a token of 8 or more characters
            return None
        breaks = ((body == _LF) | (body == _CR)) if b"\r" in block else body == _LF
        before = ends.searchsorted(breaks.nonzero()[0])
        per_line = before[1:] - before[:-1]
        # no line holds more than n tokens, and the lines holding any
        # hold all count of them at n each: so each holds 0 or n
        if per_line.max() != n or np.count_nonzero(per_line) * n != count or filled + count > table.size:
            return None
        value = np.ndarray((len(data) - 7,), dtype=_WINDOW, buffer=data, strides=(1,)).take(ends)
        value &= masks
        value *= _TIMES_PAIR
        value >>= _SHIFT_PAIR
        value &= _PAIRS
        value *= _TIMES_QUAD
        value >>= _SHIFT_QUAD
        value &= _QUADS
        value *= _TIMES_OCTET
        value = value.view(_WINDOW_HALVES)[1::2]
        if value.max() >= n:
            return None
        table[filled : filled + count] = value
        filled += count
    return table.reshape(n, n) if filled == table.size else None


def load_group(path) -> CayleyGroup:
    """Read and validate a group table file (identity must be element 0).

    Files of more than GROUP_FILE_BYTE_CAP bytes are refused.
    """
    # no name holds the text, so it is freed when the parse returns,
    # before validate_group copies the table
    return validate_group(parse_group_text(read_capped_text(path, GROUP_FILE_BYTE_CAP)))
