from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import add, mul

from selfmaps import qorders
from selfmaps.qorders import (
    _SIEVE_CAP,
    PRIMALITY_CAP,
    NotPrimeError,
    OrderParams,
    PrimalityCapError,
    QuadElem,
    SplitType,
    _euler_symbols,
    _jacobi_symbols,
    _prime_flags,
    _residues,
    _small_prime_flags,
    _split_type_of_prime,
    conjugate,
    degree_two_table,
    elements_of_norm,
    is_prime,
    legendre,
    legendre_euler,
    legendre_reciprocity,
    norm,
    primes_up_to,
    represented_norms,
    split_density_report,
    split_symbols,
    split_type,
    units,
)

GAUSS = OrderParams(0, 1)
EISENSTEIN = OrderParams(1, 1)
DISC8 = OrderParams(0, 2)
DISC7 = OrderParams(1, 2)

CLASS_NUMBER_ONE = (GAUSS, EISENSTEIN, DISC8, DISC7)


def _pairs(elems):
    return [(a.x, a.y) for a in elems]


orders_st = st.builds(
    OrderParams, t=st.integers(0, 1), n=st.integers(1, 30)
)


def elems_st(order):
    coords = st.integers(-50, 50)
    return st.builds(lambda x, y: QuadElem(order, x, y), coords, coords)


quad_pairs_st = orders_st.flatmap(
    lambda o: st.tuples(elems_st(o), elems_st(o))
)


def test_order_params_validation():
    with pytest.raises(ValueError):
        OrderParams(2, 1)
    with pytest.raises(ValueError):
        OrderParams(0, 0)
    with pytest.raises(ValueError):
        OrderParams(1, -3)


def test_discriminants():
    assert GAUSS.discriminant == -4
    assert EISENSTEIN.discriminant == -3
    assert DISC8.discriminant == -8
    assert DISC7.discriminant == -7


def test_norm_hand_values():
    # hand oracle: x^2 + t*x*y + n*y^2
    assert norm(QuadElem(GAUSS, 3, 4)) == 25
    assert norm(QuadElem(DISC7, 1, 1)) == 4
    assert norm(QuadElem(DISC7, -1, 2)) == 7
    assert norm(QuadElem(EISENSTEIN, 2, 1)) == 7
    assert norm(QuadElem(DISC8, 0, 1)) == 2


def test_conjugate_hand_values():
    assert conjugate(QuadElem(DISC7, -1, 1)) == QuadElem(DISC7, 0, -1)
    assert conjugate(QuadElem(GAUSS, 2, 5)) == QuadElem(GAUSS, 2, -5)
    assert conjugate(QuadElem(EISENSTEIN, 1, 1)) == QuadElem(EISENSTEIN, 2, -1)


@given(quad_pairs_st)
def test_norm_multiplicative(pair):
    a, b = pair
    assert norm(mul(a, b)) == norm(a) * norm(b)


@given(quad_pairs_st)
def test_conjugate_is_ring_hom(pair):
    a, b = pair
    assert conjugate(mul(a, b)) == mul(conjugate(a), conjugate(b))
    assert conjugate(add(a, b)) == add(conjugate(a), conjugate(b))


@given(orders_st.flatmap(elems_st))
def test_conjugate_involution_and_norm_product(a):
    assert conjugate(conjugate(a)) == a
    prod = mul(a, conjugate(a))
    assert (prod.x, prod.y) == (norm(a), 0)


def test_units():
    assert _pairs(units(GAUSS)) == [(0, -1), (-1, 0), (1, 0), (0, 1)]
    assert len(units(EISENSTEIN)) == 6
    assert set(_pairs(units(EISENSTEIN))) == {
        (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1),
    }
    assert _pairs(units(DISC8)) == [(-1, 0), (1, 0)]
    assert _pairs(units(DISC7)) == [(-1, 0), (1, 0)]
    assert _pairs(units(OrderParams(0, 5))) == [(-1, 0), (1, 0)]


def test_elements_of_norm_frozen_cases():
    # (y, x) ordering, full sets written out by hand
    assert _pairs(elements_of_norm(GAUSS, 2)) == [(-1, -1), (1, -1), (-1, 1), (1, 1)]
    assert elements_of_norm(EISENSTEIN, 2) == ()
    assert _pairs(elements_of_norm(DISC7, 7)) == [(1, -2), (-1, 2)]
    assert _pairs(elements_of_norm(DISC8, 2)) == [(0, -1), (0, 1)]
    assert _pairs(elements_of_norm(GAUSS, 5)) == [
        (-1, -2), (1, -2), (-2, -1), (2, -1), (-2, 1), (2, 1), (-1, 2), (1, 2),
    ]


def test_elements_of_norm_rejects_nonpositive():
    with pytest.raises(ValueError):
        elements_of_norm(GAUSS, 0)
    with pytest.raises(ValueError):
        elements_of_norm(GAUSS, -2)


@given(orders_st, st.integers(1, 60))
def test_elements_of_norm_exhaustive_and_closed(order, m):
    elems = elements_of_norm(order, m)
    assert all(norm(a) == m for a in elems)
    found = set(elems)
    # independent double-loop oracle over the definite form's box
    bound = math.isqrt(4 * m // (-order.discriminant)) + 1
    for x in range(-2 * m - 2, 2 * m + 3):
        for y in range(-bound, bound + 1):
            a = QuadElem(order, x, y)
            if norm(a) == m:
                assert a in found
    for a in elems:
        assert -a in found
        assert conjugate(a) in found


def test_degree_two_table_exact():
    table = degree_two_table(10)
    nonempty = {o: v for o, v in table.items() if v}
    assert set(nonempty) == {GAUSS, DISC8, DISC7}
    assert {o.discriminant for o in nonempty} == {-4, -8, -7}
    assert set(_pairs(nonempty[GAUSS])) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    assert set(_pairs(nonempty[DISC8])) == {(0, 1), (0, -1)}
    assert set(_pairs(nonempty[DISC7])) == {(0, 1), (0, -1), (1, -1), (-1, 1)}
    assert len(table) == 20


def test_degree_two_table_bound_check():
    with pytest.raises(ValueError):
        degree_two_table(1)


def trial_division(m):
    if m < 2:
        return False
    f = 2
    while f * f <= m:
        if m % f == 0:
            return False
        f += 1
    return True


def test_is_prime_matches_trial_division_across_sieve_cap():
    for m in range(-10, 2 * _SIEVE_CAP + 1):
        assert is_prime(m) == trial_division(m), m
    # 359 and 367 are the primes on either side of sqrt(_SIEVE_CAP)
    squares = [q * q for q in (359, 367, 9973, 65521)]
    assert squares[0] < _SIEVE_CAP < squares[1]
    for m in (_SIEVE_CAP - 1, _SIEVE_CAP, _SIEVE_CAP + 1, 359 * 367, 65521 * 65537, *squares):
        assert is_prime(m) == trial_division(m), m
    # strong pseudoprimes to the bases 2-3, 2-5, 2-7, 2-11 and 2-13, each
    # caught by a later base
    for m in (1373653, 25326001, 3215031751, 2152302898747, 3474749660383):
        assert not trial_division(m)
        assert not is_prime(m), m
    # too large for trial division: strong pseudoprimes to the bases 2-17
    # and 2-23 by their factors, and the Mersenne prime 2**61 - 1
    assert 10670053 * 32010157 == 341550071728321 and not is_prime(341550071728321)
    assert 149491 * 747451 * 34233211 == 3825123056546413051 and not is_prime(3825123056546413051)
    assert is_prime(2**61 - 1) and not is_prime(2**61 + 1)
    # psi_12 is composite yet passes every base, so it must not be decided
    assert 399165290221 * 798330580441 == PRIMALITY_CAP
    with pytest.raises(PrimalityCapError):
        is_prime(PRIMALITY_CAP)
    # a witnessed composite above the cap is still decided
    assert not is_prime(PRIMALITY_CAP + 2)


def test_is_prime_small():
    assert [m for m in range(20) if is_prime(m)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(9973 * 9973)
    assert is_prime(9973)


def test_primes_up_to_matches_trial_division():
    sieved = primes_up_to(2000)
    assert sieved == [m for m in range(2001) if is_prime(m)]
    assert len(primes_up_to(10**4)) == 1229
    # squares of primes are the first multiples each sieve step clears;
    # 359 and 367 are the primes on either side of sqrt(_SIEVE_CAP)
    bounds = [-1, 0, 1, 2, 3, *(q * q for q in (2, 3, 5, 7, 11, 359, 367)), _SIEVE_CAP - 1, _SIEVE_CAP, _SIEVE_CAP + 1]
    reference = [m for m in range(max(bounds) + 1) if trial_division(m)]
    for bound in bounds:
        sieved = primes_up_to(bound)
        assert sieved == [q for q in reference if q <= bound], bound
        assert all(type(q) is int for q in sieved)


def test_primes_up_to_reads_the_small_sieve():
    # up to _SIEVE_CAP the primes come from is_prime's sieve, above it from a new one
    for bound in (0, 1, 2, _SIEVE_CAP, _SIEVE_CAP + 1):
        assert primes_up_to(bound) == np.flatnonzero(_prime_flags(bound)).tolist(), bound


def test_small_sieve_without_numpy_matches_the_numpy_sieve():
    # is_prime's pure-Python bytearray sieve against the numpy one, byte for byte
    assert _small_prime_flags() == _prime_flags(_SIEVE_CAP).tobytes()


def test_legendre_frozen_values():
    assert legendre(2, 7) == 1
    assert legendre(3, 7) == -1
    assert legendre(-1, 5) == 1
    assert legendre(-1, 7) == -1
    assert legendre(14, 7) == 0
    assert legendre(-4, 5) == 1
    assert legendre(-3, 7) == 1




def test_legendre_implementations_agree():
    for p in primes_up_to(200):
        if p == 2:
            continue
        for a in range(-100, 101):
            assert legendre_euler(a, p) == legendre_reciprocity(a, p)


def test_legendre_euler_against_square_enumeration():
    # third oracle: literally enumerate the squares mod p
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        squares = {(x * x) % p for x in range(1, p)}
        for a in range(p):
            expected = 0 if a == 0 else (1 if a in squares else -1)
            assert legendre_euler(a, p) == expected


def test_legendre_rejects_bad_modulus():
    with pytest.raises(NotPrimeError):
        legendre(3, 2)
    with pytest.raises(NotPrimeError):
        legendre(3, 9)


def test_prime_checks_raise_not_prime():
    with pytest.raises(NotPrimeError):
        split_type(GAUSS, 9)


def test_split_type_frozen_cases():
    assert split_type(GAUSS, 2) is SplitType.RAMIFIED
    assert split_type(GAUSS, 5) is SplitType.SPLIT
    assert split_type(GAUSS, 3) is SplitType.INERT
    assert split_type(DISC7, 2) is SplitType.SPLIT
    assert split_type(DISC7, 7) is SplitType.RAMIFIED
    assert split_type(DISC7, 5) is SplitType.INERT
    assert split_type(EISENSTEIN, 2) is SplitType.INERT
    assert split_type(EISENSTEIN, 3) is SplitType.RAMIFIED
    assert split_type(EISENSTEIN, 7) is SplitType.SPLIT
    assert split_type(DISC8, 2) is SplitType.RAMIFIED
    assert split_type(DISC8, 3) is SplitType.SPLIT


def test_norm_witness_iff_not_inert():
    # class number one orders: a prime is a norm exactly when it is not inert
    for order in CLASS_NUMBER_ONE:
        norms = represented_norms(order, 500)
        for p in primes_up_to(500):
            not_inert = split_type(order, p) is not SplitType.INERT
            assert (norms[p] == 1) == (elements_of_norm(order, p) != ()) == not_inert


# n = 3, 4 give the non-maximal orders of discriminant -12 and -16, and
# n = 5, 6 class number two.
orders_40_st = st.builds(OrderParams, t=st.integers(0, 1), n=st.integers(1, 40))


@settings(max_examples=60, deadline=None)
@given(orders_40_st, st.integers(0, 2000))
@example(OrderParams(0, 1), 2000)
@example(OrderParams(1, 1), 0)
@example(OrderParams(1, 1), 1)
@example(OrderParams(1, 40), 1)
def test_represented_norms_matches_brute_force(order, bound):
    expected = bytearray([1] + [elements_of_norm(order, m) != () for m in range(1, 2001)])
    counts = qorders.norm_rows(order, bound)[2].tolist()
    # a budget of one cell, so that a grid holds one row, a middle one,
    # where grids hold several rows of unequal sizes, and the default,
    # which holds every row here in one grid
    for budget in (1, 50, qorders._BLOCK_POINTS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qorders, "_BLOCK_POINTS", budget)
            assert represented_norms(order, 2000) == expected, budget
            # a smaller bound gives a prefix of the same table
            assert represented_norms(order, bound) == expected[: bound + 1], budget
            grids = list(qorders._row_grids(np.array(counts, dtype=np.int64)))
        # consecutive whole rows, as wide as their widest, and over the
        # budget only when the grid is one row
        stops = [rows.stop for rows, _, _ in grids]
        assert [rows.start for rows, _, _ in grids] == [0, *stops[:-1]] and stops[-1] == len(counts), budget
        for rows, columns, mask in grids:
            width = max(counts[rows])
            assert columns.tolist() == [list(range(width))], budget
            assert mask.tolist() == [[j < c for j in range(width)] for c in counts[rows]], budget
            assert mask.size <= budget or len(counts[rows]) == 1, budget


def test_represented_norms_rejects_negative_bound():
    with pytest.raises(ValueError):
        represented_norms(GAUSS, -1)


def test_split_density_report():
    report = split_density_report(GAUSS, 10**4, primes=primes_up_to(10**4))
    assert report.total == 1229
    assert report.ramified_count == 1
    assert abs(report.split_fraction - 0.5) < 0.02
    d = report.as_dict()
    assert d["split_count"] + d["inert_count"] + d["ramified_count"] == 1229


def test_split_density_report_matches_split_type():
    # the report skips the primality checks of split_type, nothing else
    primes = primes_up_to(5000)
    for order in CLASS_NUMBER_ONE + (OrderParams(0, 5), OrderParams(1, 3)):
        report = split_density_report(order, 5000, primes=primes)
        kinds = [split_type(order, p) for p in primes]
        assert (report.split_count, report.inert_count, report.ramified_count) == tuple(
            kinds.count(kind) for kind in (SplitType.SPLIT, SplitType.INERT, SplitType.RAMIFIED)
        )


# orders of discriminant t**2 - 4n with n small, and with n >= 2**64, so
# that the discriminant is reduced mod p from more than one 32-bit limb
density_orders_st = st.builds(
    OrderParams, t=st.integers(0, 1), n=st.one_of(st.integers(1, 50), st.integers(2**64, 2**200))
)


@settings(max_examples=40, deadline=None)
@given(density_orders_st, st.integers(100, 10**5), st.sampled_from([7, 100, qorders._LEGENDRE_BLOCK]))
@example(OrderParams(0, 1), 10**5, qorders._LEGENDRE_BLOCK)
@example(OrderParams(1, 2**64), 100, 1)
def test_density_array_pass_matches_split_type_of_prime(order, bound, block):
    primes = primes_up_to(bound)
    kinds = [_split_type_of_prime(order, p) for p in primes]
    # prime by prime, over the odd primes in one array
    ps = np.array(primes[1:], dtype=np.int64)
    residues = _residues(order.discriminant, ps)
    assert residues.tolist() == [order.discriminant % p for p in primes[1:]]
    euler, jacobi = _euler_symbols(residues, ps), _jacobi_symbols(residues, ps)
    as_kind = {1: SplitType.SPLIT, -1: SplitType.INERT, 0: SplitType.RAMIFIED}
    assert [as_kind[e] for e in euler.tolist()] == kinds[1:]
    assert jacobi.tolist() == euler.tolist()
    # and the counts of the report, in blocks of block odd primes
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qorders, "_LEGENDRE_BLOCK", block)
        report = split_density_report(order, bound, primes=primes)
    assert (report.split_count, report.inert_count, report.ramified_count) == tuple(
        kinds.count(kind) for kind in (SplitType.SPLIT, SplitType.INERT, SplitType.RAMIFIED)
    )


# t = 1 gives the odd discriminants 1 - 4n: 1 mod 8 for even n, where 2
# splits, and 5 mod 8 for odd n, where 2 is inert
split_symbols_orders_st = st.one_of(
    st.sampled_from(CLASS_NUMBER_ONE),
    st.builds(OrderParams, t=st.just(1), n=st.integers(1, 10**6).map(lambda m: 2 * m)),
    st.builds(OrderParams, t=st.just(1), n=st.integers(0, 10**6).map(lambda m: 2 * m + 1)),
    density_orders_st,
)


@settings(max_examples=40, deadline=None)
@given(split_symbols_orders_st, st.integers(100, 10**5), st.sampled_from([7, 100, qorders._LEGENDRE_BLOCK]))
@example(EISENSTEIN, 10**5, qorders._LEGENDRE_BLOCK)
# ramified at 2, 3, 5, 7, 11 and 13, and at 3 and 5 for an odd discriminant
@example(OrderParams(0, 3 * 5 * 7 * 11 * 13), 1000, 7)
@example(OrderParams(1, 4), 1000, 7)
def test_split_symbols_matches_split_type_of_prime(order, bound, block):
    primes = primes_up_to(bound)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qorders, "_LEGENDRE_BLOCK", block)
        symbols = split_symbols(order, primes)
    assert symbols.dtype == np.int8
    as_kind = {1: SplitType.SPLIT, -1: SplitType.INERT, 0: SplitType.RAMIFIED}
    assert [as_kind[s] for s in symbols.tolist()] == [_split_type_of_prime(order, p) for p in primes]


def test_split_symbols_takes_primes_below_2_31():
    largest = 2**31 - 1  # a Mersenne prime
    assert split_symbols(GAUSS, [largest]).tolist() == [-1]
    assert _split_type_of_prime(GAUSS, largest) is SplitType.INERT
    assert split_symbols(GAUSS, []).tolist() == []
    with pytest.raises(ValueError):
        split_symbols(GAUSS, [2**31 + 11])


def test_split_density_report_raises_on_a_legendre_mismatch(monkeypatch):
    def one_wrong(residues, ps):
        symbols = _jacobi_symbols(residues, ps)
        symbols[ps == 101] *= -1
        return symbols

    monkeypatch.setattr(qorders, "_jacobi_symbols", one_wrong)
    with pytest.raises(RuntimeError, match=r"legendre mismatch at \(-4, 101\)"):
        split_density_report(GAUSS, 1000, primes=primes_up_to(1000))


def test_split_density_bound_check():
    with pytest.raises(ValueError):
        split_density_report(GAUSS, 50, primes=primes_up_to(50))
    # the int64 products of the array pass are exact only below 2**31
    with pytest.raises(ValueError):
        split_density_report(GAUSS, 2**31, primes=[])
