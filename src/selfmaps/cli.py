"""Command line front end for the self-map degree classifiers.

Surfaces are described by flat key=value files, one key per line,
with '#' comments.  Every descriptor sets surface= to one of abelian,
hyperelliptic, kodaira_one, toric, elliptic_bundle or
high_genus_bundle; the remaining keys depend on the variant:

    surface=toric               fan_file=PATH
    surface=elliptic_bundle     curve=nocm | cm    order=T N (cm only)
                                bundle=split_torsion     k=K  point=X Y
                                bundle=split_nontorsion
                                bundle=split_degree      degree=D
                                bundle=atiyah_deg0 | atiyah_deg1
    surface=high_genus_bundle   p=P  group_file=PATH (P > 1)

File paths inside a descriptor are resolved relative to the
descriptor's own directory.  Descriptor and fan files larger than
toric.INPUT_BYTE_CAP bytes, and group files larger than
group_condition.GROUP_FILE_BYTE_CAP bytes, are refused.  Output is a
human-readable summary or, with --json, a report payload documented in
docs/report_schema.md.
Exit status: 0 on success, 1 when verify-paper finds a failing claim,
2 on any input error, 3 on an internal error (any other exception), 141
when stdout was closed before the report was written (the reader of a
pipe exited early, as in `| head -1`).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from . import __version__
from .elliptic_pbundle import (
    NO_ROUTE,
    SCAN_BOUND_CAP,
    AtiyahDegreeOne,
    AtiyahDegreeZero,
    BundleModel,
    EllipticBundleDescriptor,
    ScanReport,
    SplitNonTorsion,
    SplitNonzeroDegree,
    SplitTorsion,
    admits_all_degrees,
    nonsplit_verdict,
    scan_primes,
)
from .cm_elliptic import CurveModel, TorsionPoint
from .qorders import (
    OrderParams,
    QuadElem,
    degree_two_table,
    is_prime,
    prime_array,
    primes_up_to,
    split_density_report,
)
from .toric import (
    Fan,
    load_fan,
    read_capped_text,
    self_intersections,
    toric_verdict,
)
from .verdicts import (
    AllDegrees,
    AutRoute,
    FiniteCandidatePrimes,
    InfinitelyManyMissing,
    IsogenyRoute,
    MissingPrimes,
    SquaresOnly,
    TorsionMultiple,
    Verdict,
    Witness,
    verdict_to_payload,
    witness_to_payload,
)

# claims and group_condition import numpy, so each handler that runs them
# imports them itself: the other subcommands start without numpy.
if TYPE_CHECKING:
    from .group_condition import CayleyGroup, RhoBarReport

SCHEMA_VERSION = 1

_SIMPLE_SURFACES = {
    "abelian": "abelian surface: every self-map is an isogeny up to translation, "
    "and infinitely many primes are not isogeny degrees",
    "hyperelliptic": "hyperelliptic surface: self-maps lift to the covering abelian "
    "surface, which already misses infinitely many prime degrees",
    "kodaira_one": "properly elliptic surface: self-maps preserve the elliptic "
    "fibration and infinitely many prime degrees are excluded",
}


class DescriptorError(ValueError):
    """Malformed or semantically invalid surface descriptor."""


@dataclass(frozen=True)
class SurfaceDescriptor:
    """Parsed descriptor: the surface kind plus its variant payload."""

    surface: str
    elliptic: EllipticBundleDescriptor | None = None
    fan: Fan | None = None
    group: CayleyGroup | None = None
    prime: int | None = None


def parse_descriptor_text(text: str) -> dict[str, str]:
    """key=value lines to a dict; '#' comments and blank lines skipped."""
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise DescriptorError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        if key in fields:
            raise DescriptorError(f"line {lineno}: duplicate key {key!r}")
        fields[key] = value
    if "surface" not in fields:
        raise DescriptorError("descriptor does not set surface=")
    return fields


class _Fields:
    """Tracks which descriptor keys were consumed, to reject typos."""

    def __init__(self, fields: dict[str, str]):
        self.fields = fields
        self.used = {"surface"}

    def take(self, key: str) -> str:
        if key not in self.fields:
            raise DescriptorError(f"missing key {key}= for surface={self.fields['surface']}")
        self.used.add(key)
        return self.fields[key]

    def take_int(self, key: str) -> int:
        value = self.take(key)
        try:
            return int(value)
        except ValueError:
            raise DescriptorError(f"key {key}= needs an integer, got {value!r}") from None

    def take_pair(self, key: str) -> tuple[int, int]:
        value = self.take(key).replace(",", " ")
        parts = value.split()
        if len(parts) != 2:
            raise DescriptorError(f"key {key}= needs two integers, got {value!r}")
        try:
            return int(parts[0]), int(parts[1])
        except ValueError:
            raise DescriptorError(f"key {key}= needs two integers, got {value!r}") from None

    def finish(self) -> None:
        extra = sorted(set(self.fields) - self.used)
        if extra:
            raise DescriptorError(f"unknown keys for surface={self.fields['surface']}: {', '.join(extra)}")


def _build_curve(fields: _Fields) -> CurveModel:
    kind = fields.take("curve")
    if kind == "nocm":
        return CurveModel.no_cm()
    if kind == "cm":
        t, n = fields.take_pair("order")
        try:
            return CurveModel.cm(OrderParams(t, n))
        except ValueError as exc:
            raise DescriptorError(f"bad order parameters: {exc}") from None
    raise DescriptorError(f"curve= must be cm or nocm, got {kind!r}")


def _build_bundle(fields: _Fields) -> BundleModel:
    kind = fields.take("bundle")
    if kind == "split_torsion":
        return SplitTorsion(TorsionPoint(fields.take_int("k"), fields.take_pair("point")))
    if kind == "split_nontorsion":
        return SplitNonTorsion()
    if kind == "split_degree":
        return SplitNonzeroDegree(fields.take_int("degree"))
    if kind == "atiyah_deg0":
        return AtiyahDegreeZero()
    if kind == "atiyah_deg1":
        return AtiyahDegreeOne()
    raise DescriptorError(f"unknown bundle= value {kind!r}")


def load_descriptor(path: str | Path) -> SurfaceDescriptor:
    path = Path(path)
    fields = _Fields(parse_descriptor_text(read_capped_text(path)))
    surface = fields.fields["surface"]
    if surface in _SIMPLE_SURFACES:
        fields.finish()
        return SurfaceDescriptor(surface=surface)
    if surface == "toric":
        fan = load_fan(path.parent / fields.take("fan_file"))
        fields.finish()
        return SurfaceDescriptor(surface=surface, fan=fan)
    if surface == "elliptic_bundle":
        curve = _build_curve(fields)
        bundle = _build_bundle(fields)
        fields.finish()
        return SurfaceDescriptor(
            surface=surface, elliptic=EllipticBundleDescriptor(curve, bundle)
        )
    if surface == "high_genus_bundle":
        p = fields.take_int("p")
        if p == 1:
            fields.finish()
            return SurfaceDescriptor(surface=surface, prime=1)
        if not is_prime(p):
            raise DescriptorError(f"p= must be 1 or a prime, got {p}")
        from .group_condition import load_group

        group = load_group(path.parent / fields.take("group_file"))
        fields.finish()
        return SurfaceDescriptor(surface=surface, group=group, prime=p)
    raise DescriptorError(f"unknown surface= value {surface!r}")


def _group_details(group: CayleyGroup, report: RhoBarReport) -> dict:
    return {
        "p": report.p,
        "group_order": group.order,
        "holds": report.holds,
        "subgroups": [
            {
                "generator": sub.subgroup.generator,
                "image": list(sub.image),
                "covered": sub.covered,
            }
            for sub in report.subgroup_reports
        ],
        "witnesses": {str(r): list(w) for r, w in sorted(report.witnesses.items())},
    }


def _fan_details(fan: Fan) -> dict:
    return {
        "rays": [list(r) for r in fan.rays],
        "self_intersections": list(self_intersections(fan)),
    }


def _high_genus_verdict(desc: SurfaceDescriptor, bound: int) -> tuple[Verdict, dict]:
    if desc.prime == 1:
        verdict: Verdict = AllDegrees(
            note="trivial twist: fiber self-maps of every degree extend to the bundle"
        )
        return verdict, {"p": 1}
    from .group_condition import rho_bar_surjective

    report = rho_bar_surjective(desc.group, desc.prime)
    if not report.subgroup_reports:
        raise DescriptorError(
            f"group of order {desc.group.order} has no cyclic subgroup of order {desc.prime}"
        )
    detail = _group_details(desc.group, report)
    if report.holds:
        verdict = AllDegrees(
            note=f"conjugation on an order-{report.p} subgroup covers every "
            "residue class up to sign"
        )
        return verdict, detail
    del detail["witnesses"]
    p = report.p
    # a subgroup's witnesses are keyed by the residues it reaches up to sign
    uncovered = set(range(1, p)).difference(*(sub.witnesses for sub in report.subgroup_reports))
    examples = tuple(q for q in primes_up_to(bound) if q % p in uncovered)
    verdict = InfinitelyManyMissing(
        reason=f"no cyclic subgroup of order {p} is conjugated onto every "
        "residue class up to sign; primes in the uncovered classes never occur",
        missing_examples=examples,
    )
    return verdict, detail


def classify_descriptor(desc: SurfaceDescriptor, bound: int) -> tuple[Verdict, dict]:
    """Dispatch a descriptor to its classifier; returns verdict and details."""
    if desc.surface in _SIMPLE_SURFACES:
        return InfinitelyManyMissing(reason=_SIMPLE_SURFACES[desc.surface]), {}
    if desc.surface == "toric":
        return toric_verdict(desc.fan), _fan_details(desc.fan)
    if desc.surface == "elliptic_bundle":
        e = desc.elliptic
        detail = {"curve": repr(e.curve), "bundle": type(e.bundle).__name__}
        if isinstance(e.bundle, SplitTorsion):
            detail["k"] = e.bundle.k
            detail["point"] = list(e.bundle.point.v)
            return admits_all_degrees(e), detail
        return nonsplit_verdict(e, bound=bound), detail
    return _high_genus_verdict(desc, bound)


def _isogeny_text(x: int, y: int, sign: int) -> str:
    """The route text of IsogenyRoute(QuadElem(order, x, y), sign); scan calls it once per isogeny row."""
    return f"isogeny ({x},{y}) sign {sign:+d}"


def _witness_text(witness: Witness) -> str:
    if isinstance(witness, TorsionMultiple):
        return f"torsion multiple (k={witness.k})"
    if isinstance(witness, AutRoute):
        return f"automorphism ({witness.phi.x},{witness.phi.y}) exponent {witness.m}"
    if isinstance(witness, IsogenyRoute):
        return _isogeny_text(witness.alpha.x, witness.alpha.y, witness.sign)
    raise TypeError(f"not a witness: {witness!r}")


def _verdict_lines(verdict: Verdict) -> list[str]:
    lines = [f"verdict: {verdict.kind.replace('_', ' ')}"]
    if isinstance(verdict, AllDegrees):
        if verdict.note:
            lines.append(f"note: {verdict.note}")
        if verdict.certificate is not None:
            cert = verdict.certificate
            lines.append(f"certificate (k={cert.k}):")
            for r, w in sorted(cert.residue_witnesses.items()):
                lines.append(f"  residue {r}: {_witness_text(w)}")
            for p, w in sorted(cert.special_witnesses.items()):
                lines.append(f"  prime {p}: {_witness_text(w)}")
    elif isinstance(verdict, MissingPrimes):
        missing = ", ".join(str(p) for p in verdict.missing)
        lines.append(f"missing primes: {missing}")
        if verdict.scan_bound is not None:
            lines.append(f"scan bound: {verdict.scan_bound}")
        if verdict.note:
            lines.append(f"note: {verdict.note}")
    elif isinstance(verdict, InfinitelyManyMissing):
        lines.append(f"reason: {verdict.reason}")
        if verdict.missing_examples:
            shown = ", ".join(str(p) for p in verdict.missing_examples[:12])
            more = len(verdict.missing_examples) - 12
            suffix = f" (+{more} more)" if more > 0 else ""
            lines.append(f"missing examples: {shown}{suffix}")
    elif isinstance(verdict, SquaresOnly):
        lines.append(f"reason: {verdict.reason}")
    elif isinstance(verdict, FiniteCandidatePrimes):
        lines.append(f"candidates: {sorted(verdict.candidates)}")
        if verdict.note:
            lines.append(f"note: {verdict.note}")
    else:
        raise TypeError(f"not a verdict: {verdict!r}")
    return lines


# a subcommand handler returns its verdict (None for table-style commands),
# its details dict and its exit code; main times it, builds the report
# payload and, in text mode, prints the renderer's lines above the verdict's
# (a line may be a list of pieces that hold many lines: scan's rows)
_Outcome = tuple[Verdict | None, dict, int]


# Largest --bound density and classify accept, checked before any sieve.
# At 10^7 on a 2-core x86_64: density on the Gauss order 0.77-0.79 s and
# 60 MB peak RSS (medians of 5 fresh runs, two passes); classify 1.3 s
# and 88 MB on a Gauss atiyah_deg0 descriptor and 1.1 s and 116 MB on a
# no-CM split_nontorsion one (medians of 3 fresh runs).  With its earlier
# per-prime Legendre loop, density took 33 s and 384 MB at 10^8; at 10^10
# its sieve raised MemoryError under a 1.5 GB address-space limit.  The
# Legendre symbols of density run over int64 arrays of residues mod
# p <= SIEVE_BOUND_CAP, so every product of two of them is below
# 10^14 < 2**63; split_density_report refuses bounds from 2**31 on.
SIEVE_BOUND_CAP = 10**7


def _check_sieve_bound(bound: int) -> None:
    if bound > SIEVE_BOUND_CAP:
        raise DescriptorError(f"bound {bound} is above the sieve cap {SIEVE_BOUND_CAP}")


def _cmd_classify(args: argparse.Namespace) -> _Outcome:
    _check_sieve_bound(args.bound)
    desc = load_descriptor(args.descriptor)
    verdict, details = classify_descriptor(desc, args.bound)
    details["surface"] = desc.surface
    return verdict, details, 0


def _render_verdict_only(details: dict) -> list[str]:
    """classify and toric print nothing but their verdict."""
    return []


def _scan_row(witness: Witness | None) -> dict:
    """The JSON row of a prime with this witness, minus its "prime" key."""
    if witness is None:
        return {"achievable": False, "reason": "no route"}
    return {"achievable": True, "route": _witness_text(witness), "witness": witness_to_payload(witness)}


@dataclass(frozen=True)
class _ScanRows:
    """scan's rows: the report and the decimal text of each of its primes, which _json_pieces writes as row dicts."""

    report: ScanReport
    names: list[str]


class _PrimeTexts(list):
    """Decimal texts of primes, which _json_pieces writes as a list of numbers."""


def _cmd_scan(args: argparse.Namespace) -> _Outcome:
    import numpy as np

    desc = load_descriptor(args.descriptor)
    if desc.surface != "elliptic_bundle" or not isinstance(desc.elliptic.bundle, SplitTorsion):
        raise DescriptorError("scan needs an elliptic_bundle descriptor with bundle=split_torsion")
    e = desc.elliptic
    if args.bound >= 2:
        report = scan_primes(e, args.bound)
    else:
        none = prime_array(args.bound)
        report = ScanReport(none, none, (None,), e.curve.order, (none,) * 3)
    names = [f"{prime}" for prime in report.primes.tolist()]
    missing = _PrimeTexts(map(names.__getitem__, np.flatnonzero(report.slot == NO_ROUTE).tolist()))
    details = {
        "bound": args.bound,
        "k": e.bundle.k,
        "point": list(e.bundle.point.v),
        "curve": repr(e.curve),
        "rows": _ScanRows(report, names),
        "missing": missing,
        "achievable_count": len(names) - len(missing),
        "missing_count": len(missing),
    }
    return None, details, 0


def _render_scan(d: dict) -> list:
    rows = d["rows"]
    lines: list = [f"scan of k={d['k']} descriptor up to {d['bound']}"]
    if rows.names:
        # "yes  <route>" or "no   no route", once per route; an isogeny row's route is its own
        tails = ["  no   no route" if witness is None else "  yes  " + _witness_text(witness) for witness in rows.report.routes]

        def isogeny(x: int, y: int, sign: int, joint: str) -> str:
            return f"  yes  {_isogeny_text(x, y, sign)}{joint}"

        block = _row_pieces(rows, ["  "] * (len(tails) + 1), [*tails, ""], isogeny, "\n", "", "")
        # a prime's text takes six places or more: pad those below 10**5
        short = int(rows.report.primes.searchsorted(10**5))
        block[1 : 2 * short : 2] = [name.rjust(6) for name in rows.names[:short]]
        lines.append(block)
    lines.append(f"achievable: {d['achievable_count']}, missing: {d['missing_count']}")
    if d["missing"]:
        lines.append("missing primes: " + ", ".join(d["missing"]))
    return lines


def _cmd_density(args: argparse.Namespace) -> _Outcome:
    try:
        order = OrderParams(args.order[0], args.order[1])
    except ValueError as exc:
        raise DescriptorError(f"bad order parameters: {exc}") from None
    _check_sieve_bound(args.bound)
    primes = primes_up_to(args.bound)
    details = split_density_report(order, args.bound, primes=primes).as_dict()
    if args.modulus is not None:
        if args.modulus < 2:
            raise DescriptorError(f"modulus must be at least 2, got {args.modulus}")
        hits = [p for p in primes if p % args.modulus == 1]
        details["congruence"] = {
            "modulus": args.modulus,
            "count": len(hits),
            "smallest": hits[0] if hits else None,
        }
    return None, details, 0


def _render_density(d: dict) -> list[str]:
    lines = [
        f"order (t={d['order']['t']}, n={d['order']['n']}), primes up to {d['bound']}: "
        f"{d['split_count']} split, {d['inert_count']} inert, {d['ramified_count']} ramified",
        f"split fraction: {d['split_fraction']:.4f}",
    ]
    if "congruence" in d:
        c = d["congruence"]
        lines.append(f"primes = 1 mod {c['modulus']}: {c['count']} (smallest: {c['smallest']})")
    return lines


# Largest --max-n cm-table accepts, the documented input range of the
# command.  Only orders with n <= 2 are searched (see _cmd_cm_table), so
# every max_n up to the cap runs at start-up cost.
CM_TABLE_MAX_N_CAP = 10**5


def _cmd_cm_table(args: argparse.Namespace) -> _Outcome:
    if args.max_n > CM_TABLE_MAX_N_CAP:
        raise DescriptorError(f"--max-n {args.max_n} is above the cm-table cap {CM_TABLE_MAX_N_CAP}")
    # Norm 2 means (2x + t*y)**2 + |D|*y**2 = 8 with |D| = 4n - t**2, so
    # from n = 3 on (|D| > 8) it needs y = 0 and x**2 = 2: no order past
    # n = 2 has a row, and degree_two_table's brute force runs only to there.
    table = degree_two_table(min(args.max_n, 2))
    rows = [
        {
            "t": order.t,
            "n": order.n,
            "discriminant": order.discriminant,
            "elements": [[e.x, e.y] for e in elems],
        }
        for order, elems in table.items()
        if elems
    ]
    return None, {"max_n": args.max_n, "orders_scanned": 2 * args.max_n, "rows": rows}, 0


def _render_cm_table(d: dict) -> list[str]:
    lines = [f"orders scanned: n <= {d['max_n']}, both trace values"]
    for row in d["rows"]:
        elems = " ".join(f"({x},{y})" for x, y in row["elements"])
        lines.append(f"  t={row['t']} n={row['n']} (disc {row['discriminant']}): {elems}")
    lines.append(f"nonempty rows: {len(d['rows'])}")
    return lines


def _cmd_toric(args: argparse.Namespace) -> _Outcome:
    fan = load_fan(args.fan_file)
    return toric_verdict(fan), _fan_details(fan), 0


def _cmd_group_check(args: argparse.Namespace) -> _Outcome:
    if not is_prime(args.p):
        raise DescriptorError(f"p must be prime, got {args.p}")
    from .group_condition import load_group, rho_bar_surjective

    group = load_group(args.group_file)
    return None, _group_details(group, rho_bar_surjective(group, args.p)), 0


def _render_group_check(d: dict) -> list[str]:
    lines = [f"group of order {d['group_order']}, p={d['p']}"]
    for sub in d["subgroups"]:
        mark = "covers" if sub["covered"] else "misses"
        lines.append(f"  subgroup <{sub['generator']}>: image {sub['image']} {mark} (Z/{d['p']})*")
    lines.append(f"condition holds: {'yes' if d['holds'] else 'no'}")
    return lines


def _cmd_verify_paper(args: argparse.Namespace) -> _Outcome:
    from .claims import run_claims

    results = run_claims(negative_test=args.negative_test)
    details: dict = {
        "claims": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
        "negative_test": args.negative_test,
    }
    if args.negative_test:
        target = next(r for r in results if r.name == "exceptional-families")
        others_ok = all(r.passed for r in results if r.name != "exceptional-families")
        detected = (not target.passed) and others_ok
        details["fault_detected"] = detected
        code = 0 if detected else 1
    else:
        all_passed = all(r.passed for r in results)
        details["all_passed"] = all_passed
        code = 0 if all_passed else 1
    return None, details, code


def _render_verify_paper(d: dict) -> list[str]:
    lines = [
        f"{'PASS' if claim['passed'] else 'FAIL'} {claim['name']}: {claim['detail']}"
        for claim in d["claims"]
    ]
    if d["negative_test"]:
        lines.append(f"injected fault: {'detected' if d['fault_detected'] else 'MISSED'}")
    else:
        passed = sum(1 for c in d["claims"] if c["passed"])
        lines.append(f"{passed}/{len(d['claims'])} claims pass")
    return lines


# Built once per process.  Subcommands store the names of their handler
# and renderer, looked up in the module globals at call time, so a
# replaced module attribute takes effect on the next call.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfmaps",
        description="Classify which self-map degrees a complex projective surface admits.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler: str, render: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit the JSON report payload")
        p.set_defaults(handler=handler, render=render)
        return p

    p = add("classify", "_cmd_classify", "_render_verdict_only", "classify a surface descriptor file")
    p.add_argument("descriptor", help="key=value descriptor file")
    p.add_argument("--bound", type=int, default=1000, help=f"bound for missing-prime examples, at most {SIEVE_BOUND_CAP}")

    p = add("scan", "_cmd_scan", "_render_scan", "per-prime achievability table for a split torsion bundle")
    p.add_argument("descriptor", help="elliptic_bundle descriptor with bundle=split_torsion")
    p.add_argument(
        "--bound", type=int, default=10_000, help=f"scan primes up to this bound, at most {SCAN_BOUND_CAP}"
    )

    p = add("density", "_cmd_density", "_render_density", "split/inert/ramified prime counts for an order")
    p.add_argument("--order", type=int, nargs=2, metavar=("T", "N"), required=True)
    p.add_argument("--bound", type=int, default=10_000, help=f"count primes up to this bound, at most {SIEVE_BOUND_CAP}")
    p.add_argument("--modulus", type=int, default=None, help="also count primes = 1 mod M")

    p = add("cm-table", "_cmd_cm_table", "_render_cm_table", "norm-2 elements for all orders with n up to a limit")
    p.add_argument("--max-n", type=int, default=10, help=f"largest n to include, at most {CM_TABLE_MAX_N_CAP}")

    p = add("toric", "_cmd_toric", "_render_verdict_only", "classify a complete smooth fan given as a ray file")
    p.add_argument("fan_file", help="one 'x y' ray per line, counterclockwise")

    p = add("group-check", "_cmd_group_check", "_render_group_check", "residue coverage of a finite group at a prime")
    p.add_argument("group_file", help="Cayley table file: order, then one row per line")
    p.add_argument("p", type=int, help="prime subgroup order to test")

    p = add("verify-paper", "_cmd_verify_paper", "_render_verify_paper", "run the built-in claim battery")
    p.add_argument(
        "--negative-test",
        action="store_true",
        help="corrupt one input table and require the battery to notice",
    )

    return parser


_encode_str = json.encoder.encode_basestring_ascii


def _float_text(value: float) -> str:
    """A float as json writes it (allow_nan, so NaN and the infinities pass)."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


class _Slot(int):
    """A value's place in a sample scan row: _json_pieces writes it as a NUL."""


# _encode_str escapes every NUL of a str, so the NULs of a sample row are its slots
_SLOT = _Slot()


def _row_pieces(
    rows: _ScanRows, heads: Sequence[str], tails: Sequence[str], isogeny: Callable[..., str], sep: str, first: str, last: str
) -> list[str]:
    """Rows of a scan report as pieces: before each row its joint text, then its prime's text; then the last joint.

    Row i reads heads[j] + names[i] + tails[j] for its slot j, with
    ISOGENY the last index: an isogeny row reads heads[j] + names[i] +
    isogeny(x, y, sign, tails[j]), isogeny giving the row's own text
    followed by the text passed to it.  Rows are separated by sep and
    stand between first and last.  So the joint before a row is the
    previous row's tail (or first), sep and the row's head: one string
    per pair of slots, built once; after an isogeny row, isogeny puts
    the row's own text before it, in one piece.
    """
    import numpy as np

    report = rows.report
    edge = len(heads)  # the slot index of the text before the first row and after the last
    iso = edge - 1

    def joint(a: int, b: int) -> str:
        after = last if b == edge else heads[b] if a == edge else sep + heads[b]
        return (first if a == edge else tails[a]) + after

    table = np.array([joint(a, b) for a in range(edge + 1) for b in range(edge + 1)], dtype=object)
    codes = np.empty(len(rows.names) + 2, dtype=np.int16)
    codes[0] = codes[-1] = edge
    np.remainder(report.slot, edge, out=codes[1:-1])
    before = codes[:-1]
    # each joint code is below (edge + 1)**2, far below 2**15
    joints = table[before * (edge + 1) + codes[1:]]
    after_isogeny = before == iso
    joints[after_isogeny] = list(map(isogeny, *(column.tolist() for column in report.isogenies), joints[after_isogeny]))
    pieces = [""] * (2 * len(rows.names) + 1)
    pieces[::2] = joints.tolist()
    pieces[1::2] = rows.names
    return pieces


def _scan_rows(rows: _ScanRows, depth: int) -> list[str]:
    """The rows as the pieces of the list of _scan_row dicts, each with its "prime", without building them.

    The row of each of rows.report.routes, None giving the row without a
    route, is written once with a NUL for its prime and split there into
    a head and a tail.  An isogeny row is written once with a NUL for its
    prime, route, x, y and sign: the texts between them fill each isogeny
    row's f-string.  Each row is then two pieces, the joint before it and
    its prime (_row_pieces).
    """
    if not rows.names:
        return ["[]"]
    report = rows.report
    lead = "\n" + "  " * (depth + 1)
    routes = [_json_value({**_scan_row(w), "prime": _SLOT}, depth + 1).split("\0") for w in report.routes]
    texts = [""] * 6
    if len(report.isogenies[0]):
        sample = IsogenyRoute(QuadElem(report.order, _SLOT, _SLOT), _SLOT)
        # slots at the prime, the route, x, y and the sign, in the order of the sorted keys
        texts = _json_value({**_scan_row(sample), "prime": _SLOT, "route": _SLOT}, depth + 1).split("\0")
    head, after_prime, after_route, after_x, after_y, tail = texts

    def isogeny(x: int, y: int, sign: int, joint: str) -> str:
        route = _encode_str(_isogeny_text(x, y, sign))
        return f"{after_prime}{route}{after_route}{x}{after_x}{y}{after_y}{sign}{joint}"

    heads, tails = zip(*routes, (head, tail))
    return _row_pieces(rows, [lead + head for head in heads], tails, isogeny, ",", "[", "\n" + "  " * depth + "]")


def _flat_list(texts: list[str], depth: int) -> str:
    """A list of scalars, given as their texts, as one piece at this depth."""
    if not texts:
        return "[]"
    lead = "\n" + "  " * (depth + 1)
    return "[" + lead + ("," + lead).join(texts) + "\n" + "  " * depth + "]"


def _json_pieces(o, depth: int, out: list[str]) -> None:
    """Append the text of json.dumps(o, sort_keys=True) with an indent of 2, at this depth, to out as pieces.

    With an indent, json falls back to its pure-Python encoder.  This
    builds the same text from the stdlib's C string escaper and
    int.__repr__ as one flat list of pieces, so that no container is
    joined on its own and a large child (the scan rows) is never copied.

    Only what CLI payloads hold is accepted: str keys, and values whose
    exact type is str, int, float, bool, None, list, tuple, dict,
    _ScanRows or _PrimeTexts.  Anything else raises TypeError, also where
    json.dumps would accept it (int keys, subclasses).  Circular payloads
    are not detected; the CLI builds none.
    """
    kind = type(o)
    if kind is str:
        out.append(_encode_str(o))
    elif kind is int:
        out.append(int.__repr__(o))
    elif kind is float:
        out.append(_float_text(o))
    elif kind is bool:
        out.append("true" if o else "false")
    elif o is None:
        out.append("null")
    elif kind is _ScanRows:
        out += _scan_rows(o, depth)
    elif kind is _PrimeTexts:
        out.append(_flat_list(o, depth))
    elif kind is _Slot:
        out.append("\0")
    elif kind not in (list, tuple, dict):
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    elif not o:
        out.append("{}" if kind is dict else "[]")
    else:
        lead = "\n" + "  " * (depth + 1)
        end = "\n" + "  " * depth + ("}" if kind is dict else "]")
        if kind is dict:
            if not all(type(key) is str for key in o):
                raise TypeError(f"keys must be str: {list(o)!r}")
            opening = "{"
            for key in sorted(o):
                out.append(opening + lead + _encode_str(key) + ": ")
                opening = ","
                _json_pieces(o[key], depth + 1, out)
            out.append(end)
        elif all(type(item) is int for item in o):
            out.append(_flat_list(list(map(int.__repr__, o)), depth))
        else:
            opening = "["
            for item in o:
                out.append(opening + lead)
                opening = ","
                _json_pieces(item, depth + 1, out)
            out.append(end)


def _json_value(o, depth: int) -> str:
    """The text of json.dumps(o, sort_keys=True) with an indent of 2, at this depth (see _json_pieces)."""
    out: list[str] = []
    _json_pieces(o, depth, out)
    return "".join(out)


# 128 + SIGPIPE: what a shell reports for a writer killed by a closed pipe.
EXIT_CLOSED_PIPE = 141
# Any other exception out of a subcommand or its report: a fault of the
# program, not of its input.
EXIT_INTERNAL_ERROR = 3


# A report is written to stdout this many pieces at a time, so that the
# text of a whole report and its encoded copy never exist at once.  A scan
# row is two pieces, so a chunk holds 2**14 rows: under 1 MB of text, or
# about 5 MB of JSON where every row carries a witness.
_CHUNK_PIECES = 2**15


def _report_pieces(args: argparse.Namespace, verdict: Verdict | None, details: dict, start: float) -> list[str]:
    """The --json report payload (docs/report_schema.md), or the rendered lines, as text pieces."""
    if args.json:
        # the command's time, taken before its payload is built or written
        timing_ms = round((time.perf_counter() - start) * 1000, 3)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "tool": "selfmaps",
            "tool_version": __version__,
            "command": args.command,
            "verdict": None if verdict is None else verdict_to_payload(verdict),
            "details": details,
            "timing_ms": timing_ms,
        }
        pieces: list[str] = []
        _json_pieces(payload, 0, pieces)
        return pieces
    lines = globals()[args.render](details)
    if verdict is not None:
        lines.extend(_verdict_lines(verdict))
    pieces = []
    for line in lines:
        # a renderer gives a block of many lines as one list of pieces
        if type(line) is list:
            pieces += line
        else:
            pieces.append(line)
        pieces.append("\n")
    del pieces[-1:]
    return pieces


def _write_report(pieces: list[str]) -> None:
    """Write the pieces to stdout, _CHUNK_PIECES of them joined at a time, and a newline."""
    write = sys.stdout.write
    for first in range(0, len(pieces), _CHUNK_PIECES):
        write("".join(pieces[first : first + _CHUNK_PIECES]))
    # A write that a closed pipe cuts short returns without error (the
    # buffer's short count is dropped), so, as in print, the newline is
    # written on its own: it, or the flush, raises BrokenPipeError.
    write("\n")
    sys.stdout.flush()


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        try:
            verdict, details, code = globals()[args.handler](args)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # every piece is built before the first byte is written
        pieces = _report_pieces(args, verdict, details, start)
    except Exception as exc:
        # one stderr line and no traceback; KeyboardInterrupt and SystemExit pass
        print(f"error: internal: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    try:
        _write_report(pieces)
    except BrokenPipeError:
        # The devnull recipe of the `signal` docs: the rest of the buffer
        # goes nowhere, so the flush at interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
