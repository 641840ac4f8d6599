from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, strategies as st
from oracles import mul

from selfmaps.cm_elliptic import (
    CurveModel,
    EndoMatrix,
    TorsionPoint,
    aut_group,
    dual,
    endomorphisms_of_degree,
    exact_order,
    kernel_on_torsion,
    normalize_point,
    pullback_exponent,
    rational_rep,
    torsion_action,
)
from selfmaps.qorders import OrderParams, QuadElem, norm, primes_up_to

GAUSS = OrderParams(0, 1)
EISENSTEIN = OrderParams(1, 1)
DISC7 = OrderParams(1, 2)


def q(order, x, y):
    return QuadElem(order, x, y)


orders_st = st.builds(OrderParams, t=st.integers(0, 1), n=st.integers(1, 12))


def elems_st(order):
    coords = st.integers(-20, 20)
    return st.builds(lambda x, y: QuadElem(order, x, y), coords, coords)


def test_rational_rep_frozen():
    assert rational_rep(q(GAUSS, 0, 1)) == EndoMatrix(0, -1, 1, 0)
    assert rational_rep(q(DISC7, 1, 1)) == EndoMatrix(1, -2, 1, 2)
    assert rational_rep(q(EISENSTEIN, 2, 1)) == EndoMatrix(2, -1, 1, 3)


def test_torsion_action_frozen():
    # multiplication by -i on the 5-torsion
    assert torsion_action(q(GAUSS, 0, -1), 5) == EndoMatrix(0, 1, 4, 0)
    assert torsion_action(q(DISC7, 1, 1), 4) == EndoMatrix(1, 2, 1, 2)


@given(orders_st.flatmap(elems_st))
def test_rational_rep_det_is_norm(alpha):
    assert rational_rep(alpha).det() == norm(alpha)


@given(orders_st.flatmap(lambda o: st.tuples(elems_st(o), elems_st(o))))
def test_rational_rep_is_ring_hom(pair):
    alpha, beta = pair
    assert rational_rep(mul(alpha, beta)) == rational_rep(alpha) * rational_rep(beta)


@given(orders_st.flatmap(elems_st), st.integers(1, 24))
def test_dual_composition_is_degree(alpha, k):
    prod = rational_rep(alpha) * rational_rep(dual(alpha))
    d = norm(alpha)
    assert prod == EndoMatrix(d, 0, 0, d)
    # the same identity survives reduction to the k-torsion
    composed = (torsion_action(alpha, k) * torsion_action(dual(alpha), k)).mod(k)
    assert composed == EndoMatrix(d, 0, 0, d).mod(k)
    assert torsion_action(alpha, k).det() % k == d % k


def test_kernel_frozen_cases():
    assert kernel_on_torsion(q(GAUSS, 2, 1), 5) == (
        (0, 0), (1, 2), (2, 4), (3, 1), (4, 3),
    )
    ker = kernel_on_torsion(q(DISC7, 1, 1), 4)
    assert ker == ((0, 0), (0, 2), (2, 1), (2, 3))
    # cyclic of order 4, generated by (2, 1)
    gen = TorsionPoint(4, (2, 1))
    assert exact_order(gen) == 4
    assert {(2 * j % 4, j % 4) for j in range(4)} == set(ker)


def test_kernel_size_matches_degree_for_cyclic_cases():
    assert len(kernel_on_torsion(q(GAUSS, 2, 1), 5)) == 5
    assert len(kernel_on_torsion(q(DISC7, 1, 1), 4)) == 4
    assert len(kernel_on_torsion(q(EISENSTEIN, 2, 1), 7)) == 7


def test_exact_order_and_normalize():
    assert exact_order(TorsionPoint(4, (2, 0))) == 2
    assert exact_order(TorsionPoint(5, (1, 2))) == 5
    assert exact_order(TorsionPoint(4, (0, 0))) == 1
    assert exact_order(TorsionPoint(12, (8, 6))) == 6
    assert normalize_point(TorsionPoint(8, (2, 0))) == TorsionPoint(4, (1, 0))
    assert normalize_point(TorsionPoint(5, (1, 2))) == TorsionPoint(5, (1, 2))
    assert normalize_point(TorsionPoint(9, (0, 0))) == TorsionPoint(1, (0, 0))


def test_torsion_point_reduces_coordinates():
    assert TorsionPoint(5, (7, -1)).v == (2, 4)


def test_pullback_exponent_frozen():
    L = TorsionPoint(5, (1, 2))
    assert pullback_exponent(q(GAUSS, 0, 1), L) == 2
    assert pullback_exponent(q(GAUSS, 1, 0), L) == 1
    assert pullback_exponent(q(GAUSS, -1, 0), L) == 4
    assert pullback_exponent(q(GAUSS, 0, 1), TorsionPoint(5, (1, 0))) is None


def test_pullback_exponent_multiplicative_when_defined():
    L = TorsionPoint(5, (1, 2))
    i = q(GAUSS, 0, 1)
    m1 = pullback_exponent(i, L)
    m2 = pullback_exponent(mul(i, i), L)
    assert m2 == (m1 * m1) % 5


def test_pullback_exponent_requires_exact_order():
    with pytest.raises(ValueError):
        pullback_exponent(q(GAUSS, 1, 0), TorsionPoint(4, (2, 0)))


def test_pullback_exponent_trivial_level():
    # k = 1: the zero class, every endomorphism fixes it
    assert pullback_exponent(q(GAUSS, 3, 2), TorsionPoint(1, (0, 0))) == 0


def _pullback_by_search(phi, point):
    """The first m in range(k) with m*v = w: the oracle for pullback_exponent."""
    k, v = point.k, point.v
    w = torsion_action(dual(phi), k).apply_mod(v, k)
    return next((m for m in range(k) if (m * v[0] - w[0]) % k == 0 and (m * v[1] - w[1]) % k == 0), None)


nocm_elems_st = st.integers(1, 20).flatmap(lambda s: st.sampled_from(endomorphisms_of_degree(CurveModel.no_cm(), s * s)))


@given(
    st.one_of(orders_st.flatmap(elems_st), nocm_elems_st),
    st.integers(1, 60).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, k - 1), st.integers(0, k - 1))),
)
def test_pullback_exponent_matches_search(phi, kab):
    k, a, b = kab
    assume(math.gcd(math.gcd(a, b), k) == 1)
    point = TorsionPoint(k, (a, b))
    assert pullback_exponent(phi, point) == _pullback_by_search(phi, point)


def test_pullback_exponent_at_a_huge_level():
    # the unit -1 pulls back by m = k - 1, the last candidate of a search over range(k)
    k = 10**12 + 39
    minus_one = aut_group(CurveModel.no_cm())[0]
    assert pullback_exponent(minus_one, TorsionPoint(k, (1, 0))) == k - 1
    assert pullback_exponent(q(GAUSS, 0, 1), TorsionPoint(k, (1, 0))) is None


def test_aut_groups():
    assert len(aut_group(CurveModel.cm(GAUSS))) == 4
    assert len(aut_group(CurveModel.cm(EISENSTEIN))) == 6
    assert len(aut_group(CurveModel.cm(DISC7))) == 2
    nocm_auts = aut_group(CurveModel.no_cm())
    assert [(a.x, a.y) for a in nocm_auts] == [(-1, 0), (1, 0)]


def test_endomorphisms_of_degree():
    curve = CurveModel.cm(GAUSS)
    assert len(endomorphisms_of_degree(curve, 2)) == 4
    assert endomorphisms_of_degree(curve, 3) == ()
    nocm = CurveModel.no_cm()
    assert [(a.x, a.y) for a in endomorphisms_of_degree(nocm, 4)] == [(-2, 0), (2, 0)]
    assert endomorphisms_of_degree(nocm, 2) == ()
    assert endomorphisms_of_degree(nocm, 7) == ()
    with pytest.raises(ValueError):
        endomorphisms_of_degree(nocm, 0)


def test_nocm_elements_behave_like_integers():
    # the carrier order must not leak into y == 0 behaviour
    for alpha in endomorphisms_of_degree(CurveModel.no_cm(), 9):
        assert rational_rep(alpha) in (EndoMatrix(3, 0, 0, 3), EndoMatrix(-3, 0, 0, -3))
        assert dual(alpha) == alpha
        assert norm(alpha) == 9


def test_torsion_action_rejects_bad_level():
    with pytest.raises(ValueError):
        torsion_action(q(GAUSS, 1, 0), 0)
