"""Acceptance gate: one test per headline claim, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per claim.  The battery itself lives in selfmaps.claims so the
command line front end exercises exactly the same checks.
"""

import pytest

from selfmaps import claims, qorders
from selfmaps.claims import (
    DISC7,
    DISC8,
    EISENSTEIN,
    GAUSS,
    ClaimResult,
    _check_exceptional_families,
    _check_splitting_oracle,
    corrupted_families,
    run_claims,
)
from selfmaps.qorders import SplitType, primes_up_to, split_type


@pytest.fixture(scope="module")
def battery() -> dict[str, ClaimResult]:
    return {result.name: result for result in run_claims()}


def _assert_claim(battery: dict[str, ClaimResult], name: str) -> None:
    result = battery[name]
    print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}")
    assert result.passed, result.detail


def test_degree_two_table(battery):
    _assert_claim(battery, "degree-two-table")


def test_exceptional_families(battery):
    _assert_claim(battery, "exceptional-families")


def test_necessity_grid(battery):
    _assert_claim(battery, "necessity-grid")


def test_small_torsion_universality(battery):
    _assert_claim(battery, "small-torsion")


def test_atiyah_obstructions(battery):
    _assert_claim(battery, "atiyah-obstructions")


def test_toric_verdicts(battery):
    _assert_claim(battery, "toric-verdicts")


def test_splitting_oracle(battery):
    _assert_claim(battery, "splitting-oracle")


def test_group_condition(battery):
    _assert_claim(battery, "group-condition")


def test_ns_bookkeeping(battery):
    _assert_claim(battery, "ns-bookkeeping")


def test_battery_catches_injected_fault():
    passed, detail = _check_exceptional_families(corrupted_families())
    assert not passed
    assert "exact order" in detail


def _per_prime_splitting_oracle() -> tuple[bool, str]:
    """The splitting-oracle claim as a loop over split_type, prime by
    prime: the reference for the claim's array pass."""
    primes = primes_up_to(100_000)
    for order in (EISENSTEIN, GAUSS, DISC7, DISC8):
        norms = claims.represented_norms(order, primes[-1])
        split = 0
        for p in primes:
            kind = split_type(order, p)
            split += kind is SplitType.SPLIT
            if (norms[p] == 1) != (kind is not SplitType.INERT):
                return False, f"disc {order.discriminant}, p={p}: norm witness disagrees with split type"
        fraction = split / len(primes)
        if abs(fraction - 0.5) >= 0.02:
            return False, f"disc {order.discriminant}: split fraction {fraction:.4f} off 1/2"
    return True, "norm witness = not inert on 4 orders x 9592 primes; split fractions within 0.02 of 1/2"


@pytest.mark.parametrize(
    ("order", "flips"),
    [
        pytest.param(GAUSS, (), id="none"),
        pytest.param(EISENSTEIN, ((SplitType.INERT, 0),), id="first-inert"),
        pytest.param(DISC8, ((SplitType.INERT, -1),), id="last-inert"),
        # the first disagreeing prime in ascending order is reported
        pytest.param(DISC7, ((SplitType.INERT, -1), (SplitType.SPLIT, 500)), id="split-before-inert"),
        pytest.param(GAUSS, ((SplitType.RAMIFIED, 0),), id="ramified"),
    ],
)
def test_splitting_oracle_reports_the_first_disagreeing_prime(order, flips, monkeypatch):
    """Flip the norm flags of the primes (kind, index) of one order, the
    index-th prime of that split type: the claim fails with the message
    of the per-prime loop on the same flags."""
    primes = primes_up_to(100_000)
    targets = [[p for p in primes if split_type(order, p) is kind][index] for kind, index in flips]
    real = claims.represented_norms

    def flipped(o, bound):
        flags = real(o, bound)
        if o == order:
            for p in targets:
                flags[p] ^= 1
        return flags

    monkeypatch.setattr(claims, "represented_norms", flipped)
    expected = _per_prime_splitting_oracle()
    assert _check_splitting_oracle() == expected
    if targets:
        p = min(targets)
        assert expected == (False, f"disc {order.discriminant}, p={p}: norm witness disagrees with split type")
    else:
        assert expected[0]


def test_a_legendre_mismatch_fails_the_splitting_claim(monkeypatch):
    real = qorders._euler_symbols

    def one_wrong(residues, ps):
        symbols = real(residues, ps)
        symbols[ps == 101] *= -1
        return symbols

    monkeypatch.setattr(qorders, "_euler_symbols", one_wrong)
    results = {result.name: result for result in run_claims()}
    # Eisenstein, discriminant -3, is the first order the claim checks
    assert results["splitting-oracle"] == ClaimResult(
        "splitting-oracle", False, "unexpected error: RuntimeError('legendre mismatch at (-3, 101)')"
    )
    assert all(result.passed for name, result in results.items() if name != "splitting-oracle")
