"""Smooth complete toric surfaces presented by their ray fans.

A fan is a cyclic list of primitive integer rays with every consecutive
pair a positively oriented lattice basis.  Each ray carries a boundary
curve; the wall relation v_prev + v_next = -(C.C) * v recovers every
self-intersection, and on a toric surface the boundary curves account
for all irreducible negative curves, so the verdict logic below reads
the whole negative cone off the fan.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass

from .ns_lattice import toric_prime_candidates
from .verdicts import AllDegrees, FiniteCandidatePrimes, SquaresOnly, Verdict

__all__ = [
    "Fan",
    "FanValidationError",
    "TooFewRaysError",
    "RayNotPrimitiveError",
    "DuplicateRayError",
    "NotUnimodularError",
    "WindingError",
    "FanFileError",
    "INPUT_BYTE_CAP",
    "read_capped_text",
    "validate_fan",
    "self_intersections",
    "toric_verdict",
    "blow_up",
    "parse_fan_text",
    "load_fan",
    "PROJECTIVE_PLANE",
    "hirzebruch",
]

logger = logging.getLogger(__name__)

Ray = tuple[int, int]


class FanValidationError(ValueError):
    """Base class for every fan rejection."""


class TooFewRaysError(FanValidationError):
    pass


class RayNotPrimitiveError(FanValidationError):
    pass


class DuplicateRayError(FanValidationError):
    pass


class NotUnimodularError(FanValidationError):
    pass


class WindingError(FanValidationError):
    pass


class FanFileError(ValueError):
    """Malformed fan file."""


@dataclass(frozen=True)
class Fan:
    """Validated fan; rays are rotated so the smallest ray comes first."""

    rays: tuple[Ray, ...]

    def __len__(self) -> int:
        return len(self.rays)


def _det(u: Ray, v: Ray) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _winding_number(rays: tuple[Ray, ...]) -> int:
    """Turns of the ray cycle around the origin, counted exactly.

    Needs every consecutive determinant positive: then each step turns
    counterclockwise by less than half a turn, and it reaches the
    positive x-axis exactly when it ends on that axis or passes from the
    lower to the upper half-plane.  Each full turn reaches it once.
    """
    return sum(
        (v[1] == 0 and v[0] > 0) or (u[1] < 0 < v[1])
        for u, v in zip(rays, rays[1:] + rays[:1])
    )


def validate_fan(rays) -> Fan:
    """Check and normalize a ray list into a Fan.

    Rejections are typed: too few rays, a non-primitive ray, a repeated
    ray, a consecutive pair that is not a positive lattice basis, or a
    ray cycle that winds around the origin more than once.  A cycle given
    in clockwise order is silently reversed (with a log note) rather than
    rejected, and the result is rotated to start at the smallest ray.
    """
    ray_list = [(int(x), int(y)) for x, y in rays]
    if len(ray_list) < 3:
        raise TooFewRaysError(f"a complete fan needs at least 3 rays, got {len(ray_list)}")
    for ray in ray_list:
        if math.gcd(ray[0], ray[1]) != 1:
            raise RayNotPrimitiveError(f"ray {ray} is not primitive")
    if len(set(ray_list)) != len(ray_list):
        seen = set()
        duplicate = next(r for r in ray_list if r in seen or seen.add(r))
        raise DuplicateRayError(f"ray {duplicate} appears twice")
    dets = [_det(ray_list[i], ray_list[(i + 1) % len(ray_list)]) for i in range(len(ray_list))]
    if all(d == -1 for d in dets):
        logger.info("fan given in clockwise order; reversing")
        ray_list.reverse()
        dets = [_det(ray_list[i], ray_list[(i + 1) % len(ray_list)]) for i in range(len(ray_list))]
    for i, d in enumerate(dets):
        if d != 1:
            pair = (ray_list[i], ray_list[(i + 1) % len(ray_list)])
            raise NotUnimodularError(f"consecutive rays {pair} have determinant {d}, need +1")
    # consecutive determinants +1 with distinct rays still admit cycles
    # winding around the origin more than once; those are not fans
    winding = _winding_number(tuple(ray_list))
    if winding != 1:
        raise WindingError(f"ray cycle winds {winding} times around the origin, need exactly 1")
    start = ray_list.index(min(ray_list))
    rotated = tuple(ray_list[start:] + ray_list[:start])
    return Fan(rays=rotated)


def self_intersections(fan: Fan) -> tuple[int, ...]:
    """Boundary-curve self-intersections via the wall relation.

    v_prev + v_next is an integer multiple of v_i whenever the two
    adjacent cones are smooth; the multiple is -(C_i . C_i).
    """
    rays = fan.rays
    out = []
    for i, v in enumerate(rays):
        prev_ray = rays[(i - 1) % len(rays)]
        next_ray = rays[(i + 1) % len(rays)]
        s = (prev_ray[0] + next_ray[0], prev_ray[1] + next_ray[1])
        if v[0] != 0:
            c = -s[0] // v[0] if s[0] % v[0] == 0 else None
        else:
            c = -s[1] // v[1] if s[1] % v[1] == 0 else None
        ok = c is not None and s == (-c * v[0], -c * v[1])
        if not ok:  # impossible after validation; guards against raw Fan()
            raise FanValidationError(f"wall relation fails at ray {v}")
        out.append(c)
    return tuple(out)


def toric_verdict(fan: Fan) -> Verdict:
    """Classify the achievable self-map degrees of the toric surface."""
    selfs = self_intersections(fan)
    negatives = [c for c in selfs if c < 0]
    if not negatives:
        if len(fan) == 3:
            return SquaresOnly(
                reason="plane: self-maps act on the hyperplane class by an integer d, so the degree is d*d"
            )
        # only two surfaces have no negative boundary curve; with 4 rays
        # this is the product of two lines, which takes every degree
        if len(fan) != 4:
            raise RuntimeError(f"fan with no negative curve has {len(fan)} rays, not 3 or 4")
        return AllDegrees(
            note="product of two lines: independent power maps on the factors hit every degree"
        )
    if len(negatives) == 1:
        return SquaresOnly(
            reason=(
                f"unique negative curve with self-intersection {negatives[0]} survives "
                "every pullback, forcing square degrees"
            )
        )
    return FiniteCandidatePrimes(
        candidates=toric_prime_candidates(negatives),
        note="candidate set only: primes outside it are excluded, membership is not an existence claim",
    )


def blow_up(fan: Fan, i: int) -> Fan:
    """Insert the sum of rays i and i+1 (cyclically) and revalidate."""
    n = len(fan)
    if not 0 <= i < n:
        raise IndexError(f"ray index {i} out of range for {n} rays")
    u = fan.rays[i]
    v = fan.rays[(i + 1) % n]
    new_rays = list(fan.rays[: i + 1]) + [(u[0] + v[0], u[1] + v[1])] + list(fan.rays[i + 1 :])
    return validate_fan(new_rays)


PROJECTIVE_PLANE = ((1, 0), (0, 1), (-1, -1))


def hirzebruch(n: int) -> tuple[Ray, ...]:
    """Rays of the degree-n ruled rational surface; n = 0 is the product of lines."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n!r}")
    return ((1, 0), (0, 1), (-1, n), (0, -1))


def parse_fan_text(text: str) -> list[Ray]:
    """Parse 'x y' lines; blank lines and lines starting with '#' are skipped."""
    rays: list[Ray] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FanFileError(f"line {lineno}: expected 'x y', got {raw!r}")
        try:
            rays.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise FanFileError(f"line {lineno}: not integers: {raw!r}") from exc
    if not rays:
        raise FanFileError("fan file contains no rays")
    return rays


# Largest fan or descriptor file read (load_fan here, load_descriptor in
# the cli): real ones hold a few hundred bytes, and the cap keeps a path
# such as /dev/zero from being read until memory runs out.
INPUT_BYTE_CAP = 2**20
# One read of cap + 1 bytes would reserve that much memory whatever the
# file's size, so a file is read in blocks of this many bytes: all of a
# file without a size (a pipe, /proc), and what a file holds beyond its
# size plus one byte, which it reads first.
_READ_BLOCK = 2**20


def read_capped_text(path, cap: int = INPUT_BYTE_CAP) -> str:
    """The UTF-8 text of a file of at most cap bytes.

    Reads at most one byte past the cap, and raises ValueError when the
    file holds more than the cap.
    """
    blocks, size = [], 0
    with open(path, "rb") as f:
        st_size = os.fstat(f.fileno()).st_size
        block_size = st_size + 1 if st_size else _READ_BLOCK
        while size <= cap:
            want = min(block_size, cap + 1 - size)
            blocks.append(block := f.read(want))
            size += len(block)
            # a buffered read returns short only at the end, so a regular
            # file takes one read of its size plus one byte, and one that
            # grew since fstat goes on in blocks
            if len(block) < want:
                break
            block_size = _READ_BLOCK
    if size > cap:
        raise ValueError(f"{path} is larger than the input cap of {cap} bytes")
    return b"".join(blocks).decode("utf-8")


def load_fan(path) -> Fan:
    """Read and validate a fan file."""
    return validate_fan(parse_fan_text(read_capped_text(path)))
