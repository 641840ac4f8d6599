from __future__ import annotations

import random
import re

import pytest

from selfmaps.cm_elliptic import CurveModel, EndoMatrix
from selfmaps.elliptic_pbundle import EllipticBundleDescriptor, SplitNonzeroDegree, nonsplit_verdict
from selfmaps.ns_lattice import (
    EndoOnNS,
    NSClass,
    SquareDegreeCertificate,
    atiyah_deg2_search,
    square_degree_certificate,
    toric_prime_candidates,
)


def _intersect(c1: NSClass, c2: NSClass) -> int:
    """The form of the module docstring: H.H = e, H.F = 1, F.F = 0."""
    return c1.h * c2.h * c1.e + c1.h * c2.f + c1.f * c2.h


def test_other_section_self_intersection():
    # the verdict of P(O + L), deg L = d, names the square of its negative
    # section H - e*F, e = |d|, as the lattice form computes it
    for d in (*range(-20, 0), *range(1, 21)):
        verdict = nonsplit_verdict(EllipticBundleDescriptor(CurveModel.no_cm(), SplitNonzeroDegree(d)))
        named = [int(m) for m in re.findall(r"self-intersection (-?\d+)", verdict.reason)]
        e = abs(d)
        other = NSClass(1, -e, e)
        assert named == [_intersect(other, other)] == [-e]


def test_from_degrees_frozen():
    endo = EndoOnNS.from_degrees(4, 2, 1)
    assert endo.pullback == EndoMatrix(2, 0, 1, 4)
    assert endo.degree == 8
    assert endo.pushforward == EndoMatrix(4, 0, -1, 2)
    equal = EndoOnNS.from_degrees(3, 3, 7)
    assert equal.pullback == EndoMatrix(3, 0, 0, 3)


def test_from_degrees_parity_rejection():
    with pytest.raises(ValueError):
        EndoOnNS.from_degrees(2, 1, 1)
    with pytest.raises(ValueError):
        EndoOnNS.from_degrees(1, 2, 3)
    # even product is fine
    EndoOnNS.from_degrees(2, 1, 2)
    EndoOnNS.from_degrees(3, 1, 5)


def test_construction_validation():
    with pytest.raises(ValueError):
        EndoOnNS(pullback=EndoMatrix(3, 0, 0, 1), degree=2, e=0)  # det != degree
    with pytest.raises(ValueError):
        EndoOnNS(pullback=EndoMatrix(2, 1, 0, 2), degree=4, e=0)  # moves fiber off itself
    with pytest.raises(ValueError):
        EndoOnNS(pullback=EndoMatrix(2, 0, 0, -2), degree=-4, e=0)


def test_push_pull_identity_random_triples():
    rng = random.Random(42)
    checked = 0
    while checked < 300:
        base = rng.randint(1, 30)
        fiber = rng.randint(1, 30)
        e = rng.randint(-10, 10)
        if (e * (base - fiber)) % 2 != 0:
            continue
        endo = EndoOnNS.from_degrees(base, fiber, e)
        composed = endo.pushforward * endo.pullback
        assert composed == EndoMatrix(endo.degree, 0, 0, endo.degree)
        # and on sampled classes
        c = NSClass(rng.randint(-5, 5), rng.randint(-5, 5), e)
        back = endo.pushforward_class(endo.pullback_class(c))
        assert back == NSClass(endo.degree * c.h, endo.degree * c.f, e)
        checked += 1


def test_pushforward_is_built_once():
    endo = EndoOnNS.from_degrees(4, 2, 1)
    # a field of the instance, not rebuilt on each read
    assert vars(endo)["pushforward"] is endo.pushforward
    assert endo == EndoOnNS(pullback=EndoMatrix(2, 0, 1, 4), degree=8, e=1)


def test_pullback_scales_intersections():
    rng = random.Random(7)
    for _ in range(200):
        base = rng.randint(1, 20)
        fiber = rng.randint(1, 20)
        e = rng.choice(range(-8, 9, 2)) if (base - fiber) % 2 else rng.randint(-8, 8)
        endo = EndoOnNS.from_degrees(base, fiber, e)
        c1 = NSClass(rng.randint(-5, 5), rng.randint(-5, 5), e)
        c2 = NSClass(rng.randint(-5, 5), rng.randint(-5, 5), e)
        lhs = _intersect(endo.pullback_class(c1), endo.pullback_class(c2))
        assert lhs == endo.degree * _intersect(c1, c2)


def test_pullback_class_surface_check():
    endo = EndoOnNS.from_degrees(2, 2, 3)
    with pytest.raises(ValueError):
        endo.pullback_class(NSClass(1, 0, 4))


def test_square_degree_certificate():
    cert = square_degree_certificate(-1)
    assert cert.a1_equals_a2 and cert.degree_is_square
    assert cert.c_squared == -1 and cert.pairs_bound == 100
    assert square_degree_certificate(-7, pairs_bound=50).a1_equals_a2
    with pytest.raises(ValueError):
        square_degree_certificate(0)
    with pytest.raises(ValueError):
        square_degree_certificate(2)


def _pairwise_certificate(c_squared: int, pairs_bound: int = 100) -> SquareDegreeCertificate:
    """The cancellation step checked on every pair a1, a2 in 1..pairs_bound."""
    for a1 in range(1, pairs_bound + 1):
        for a2 in range(1, pairs_bound + 1):
            if (a1 * c_squared == a2 * c_squared) != (a1 == a2):
                return SquareDegreeCertificate(c_squared, pairs_bound, False, False)
    return SquareDegreeCertificate(c_squared, pairs_bound, True, True)


def test_square_degree_certificate_matches_the_pairwise_oracle():
    for c_squared in range(-1, -61, -1):
        assert square_degree_certificate(c_squared) == _pairwise_certificate(c_squared)
    for pairs_bound in range(1, 121):
        for c_squared in (-1, -2, -7, -60):
            expected = _pairwise_certificate(c_squared, pairs_bound)
            assert square_degree_certificate(c_squared, pairs_bound) == expected


def test_atiyah_deg2_search_empty_with_parity_reason():
    assert atiyah_deg2_search() == ()
    assert atiyah_deg2_search(bound=500) == ()
    # the two parity classes that make the emptiness a proof
    for b in range(-100, 101):
        assert (1 + 2 * b) % 2 == 1
        assert (4 + 4 * b) % 4 == 0
    with pytest.raises(ValueError):
        atiyah_deg2_search(0)


def test_toric_prime_candidates():
    assert toric_prime_candidates([-1, -2, -1]) == frozenset({2})
    assert toric_prime_candidates([-4]) == frozenset()
    assert toric_prime_candidates([-2, -3, -5, -9]) == frozenset({2, 3, 5})
    with pytest.raises(ValueError):
        toric_prime_candidates([])
    with pytest.raises(ValueError):
        toric_prime_candidates([-1, 2])
