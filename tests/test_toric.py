import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfmaps.toric import (
    PROJECTIVE_PLANE,
    DuplicateRayError,
    Fan,
    FanFileError,
    NotUnimodularError,
    RayNotPrimitiveError,
    TooFewRaysError,
    WindingError,
    blow_up,
    hirzebruch,
    load_fan,
    parse_fan_text,
    self_intersections,
    toric_verdict,
    validate_fan,
)
from selfmaps.verdicts import AllDegrees, FiniteCandidatePrimes, SquaresOnly


def test_plane_normalizes_and_has_unit_curves():
    fan = validate_fan(PROJECTIVE_PLANE)
    assert fan.rays == ((-1, -1), (1, 0), (0, 1))
    assert self_intersections(fan) == (1, 1, 1)


def test_hirzebruch_self_intersections():
    for n in range(6):
        fan = validate_fan(hirzebruch(n))
        assert sorted(self_intersections(fan)) == sorted([0, 0, n, -n])


def test_hirzebruch_rejects_negative_index():
    with pytest.raises(ValueError):
        hirzebruch(-1)


def test_clockwise_input_is_reversed(caplog):
    with caplog.at_level(logging.INFO, logger="selfmaps.toric"):
        fan = validate_fan(((0, 1), (1, 0), (-1, -1)))
    assert fan.rays == ((-1, -1), (1, 0), (0, 1))
    assert any("revers" in rec.message for rec in caplog.records)


def test_rotation_starts_at_smallest_ray():
    fan = validate_fan(((0, 1), (-1, 2), (-1, 1), (0, -1), (1, 0)))
    assert fan.rays[0] == min(fan.rays)
    assert set(fan.rays) == {(0, 1), (-1, 2), (-1, 1), (0, -1), (1, 0)}


def test_too_few_rays():
    with pytest.raises(TooFewRaysError):
        validate_fan(((1, 0), (0, 1)))


def test_non_primitive_ray():
    with pytest.raises(RayNotPrimitiveError):
        validate_fan(((2, 0), (0, 1), (-1, -1)))
    with pytest.raises(RayNotPrimitiveError):
        validate_fan(((0, 0), (0, 1), (-1, -1)))


def test_duplicate_ray():
    with pytest.raises(DuplicateRayError):
        validate_fan(((1, 0), (0, 1), (1, 0)))


def test_bad_determinant():
    with pytest.raises(NotUnimodularError):
        validate_fan(((1, 0), (1, 2), (-1, -1)))
    # mixed orientations are not fixable by reversal
    with pytest.raises(NotUnimodularError):
        validate_fan(((1, 0), (0, 1), (1, 1)))


def test_double_winding_rejected():
    # distinct primitive rays, every consecutive determinant +1, yet the
    # cycle wraps the origin twice: each step turns 135 degrees except the
    # last (45), totalling 720
    rays = ((1, 0), (-1, 1), (0, -1), (1, 1), (-1, 0), (1, -1))
    with pytest.raises(WindingError):
        validate_fan(rays)


def test_verdict_plane_squares_only():
    verdict = toric_verdict(validate_fan(PROJECTIVE_PLANE))
    assert isinstance(verdict, SquaresOnly)


def test_verdict_product_of_lines_all_degrees():
    verdict = toric_verdict(validate_fan(hirzebruch(0)))
    assert isinstance(verdict, AllDegrees)


def test_verdict_single_negative_squares_only():
    verdict = toric_verdict(validate_fan(hirzebruch(2)))
    assert isinstance(verdict, SquaresOnly)
    assert "-2" in verdict.reason


def test_verdict_two_negatives_candidates():
    fan = blow_up(validate_fan(hirzebruch(1)), 3)
    assert sorted(self_intersections(fan)) == [-2, -1, -1, 0, 1]
    verdict = toric_verdict(fan)
    assert isinstance(verdict, FiniteCandidatePrimes)
    assert verdict.candidates == frozenset({2})


def test_verdict_deeper_blowup_candidates():
    fan = validate_fan(((-1, -1), (1, 0), (1, 1), (2, 3), (1, 2), (0, 1)))
    assert self_intersections(fan) == (1, 0, -3, -1, -2, -1)
    verdict = toric_verdict(fan)
    assert isinstance(verdict, FiniteCandidatePrimes)
    assert verdict.candidates == frozenset({2, 3})


def test_blow_up_plane_gives_ruled_surface():
    fan = blow_up(validate_fan(PROJECTIVE_PLANE), 2)
    assert sorted(self_intersections(fan)) == [-1, 0, 0, 1]


def test_blow_up_index_range():
    fan = validate_fan(PROJECTIVE_PLANE)
    with pytest.raises(IndexError):
        blow_up(fan, 3)


@settings(max_examples=60, deadline=None)
@given(
    start=st.integers(min_value=0, max_value=4),
    corners=st.lists(st.integers(min_value=0, max_value=100), max_size=6),
)
def test_noether_sum_under_blow_ups(start, corners):
    fan = validate_fan(PROJECTIVE_PLANE if start == 0 else hirzebruch(start))
    for corner in corners:
        fan = blow_up(fan, corner % len(fan))
    selfs = self_intersections(fan)
    assert sum(selfs) == 12 - 3 * len(fan)


def _corner_chain(steps: int) -> list[tuple[int, int]]:
    """Blow up the plane's corner fan, always next to the newest ray.

    Each step inserts the sum of rays j and j+1, and j moves on after
    every odd-numbered step, so coordinates grow like Fibonacci numbers.
    """
    rays = [(1, 0), (1, 1), (0, 1), (-1, -1)]
    j = 0
    for step in range(1, steps + 1):
        u, v = rays[j], rays[j + 1]
        rays.insert(j + 1, (u[0] + v[0], u[1] + v[1]))
        if step % 2 == 1:
            j += 1
    return rays


def test_winding_exact_at_large_coordinates():
    # 81 rays with coordinates near 2**54, where summed float angle
    # steps drift and counted this valid fan as winding twice
    rays = _corner_chain(77)
    assert len(rays) == 81
    assert max(abs(c) for ray in rays for c in ray).bit_length() >= 54
    fan = validate_fan(rays)
    assert sum(self_intersections(fan)) == 12 - 3 * len(fan)


@settings(max_examples=40, deadline=None)
@given(
    start=st.integers(min_value=0, max_value=4),
    offsets=st.lists(st.sampled_from((-1, 0)), min_size=100, max_size=130),
)
def test_blow_up_chains_stay_valid(start, offsets):
    # blowing up on either side of the ray inserted last makes the
    # coordinates grow exponentially along the chain
    fan = validate_fan(PROJECTIVE_PLANE if start == 0 else hirzebruch(start))
    newest = fan.rays[0]
    for offset in offsets:
        i = (fan.rays.index(newest) + offset) % len(fan)
        u, v = fan.rays[i], fan.rays[(i + 1) % len(fan)]
        newest = (u[0] + v[0], u[1] + v[1])
        fan = blow_up(fan, i)
    assert sum(self_intersections(fan)) == 12 - 3 * len(fan)


@settings(max_examples=60, deadline=None)
@given(shears=st.lists(st.integers(min_value=-(10**6), max_value=10**6), min_size=1, max_size=6))
def test_winding_invariant_under_unimodular_maps(shears):
    # each (x, y) -> (-y, x + k*y) has determinant 1, so it keeps the
    # consecutive determinants, primitivity, distinctness and the winding
    # number, and it pushes the coordinates far beyond float precision
    def transform(rays):
        for k in shears:
            rays = [(-y, x + k * y) for x, y in rays]
        return rays

    fan = validate_fan(transform(_corner_chain(20)))
    assert sum(self_intersections(fan)) == 12 - 3 * len(fan)
    double = ((1, 0), (-1, 1), (0, -1), (1, 1), (-1, 0), (1, -1))
    with pytest.raises(WindingError, match="winds 2 times"):
        validate_fan(transform(double))


def test_wall_relation_guard_on_raw_fan():
    # bypassing validate_fan can break the wall relation; the guard fires
    broken = Fan(rays=((1, 0), (0, 1), (-1, -3)))
    with pytest.raises(ValueError):
        self_intersections(broken)


def test_parse_fan_text():
    text = "# plane\n1 0\n\n0 1\n-1 -1\n"
    assert parse_fan_text(text) == [(1, 0), (0, 1), (-1, -1)]


def test_parse_fan_text_errors():
    with pytest.raises(FanFileError):
        parse_fan_text("1 0 3\n")
    with pytest.raises(FanFileError):
        parse_fan_text("a b\n")
    with pytest.raises(FanFileError):
        parse_fan_text("# nothing here\n")


def test_load_fan(tmp_path):
    path = tmp_path / "fan.txt"
    path.write_text("1 0\n0 1\n-1 0\n0 -1\n")
    fan = load_fan(path)
    assert fan.rays == ((-1, 0), (0, -1), (1, 0), (0, 1))
