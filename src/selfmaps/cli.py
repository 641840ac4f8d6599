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
toric.INPUT_BYTE_CAP bytes are refused.  Output is a human-readable summary or,
with --json, a report payload documented in docs/report_schema.md.
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
from itertools import chain
from pathlib import Path
from typing import Sequence

from . import __version__
from .claims import run_claims
from .elliptic_pbundle import (
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
from .group_condition import (
    CayleyGroup,
    RhoBarReport,
    load_group,
    rho_bar_surjective,
)
from .qorders import (
    OrderParams,
    degree_two_table,
    is_prime,
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


def _witness_text(witness: Witness) -> str:
    if isinstance(witness, TorsionMultiple):
        return f"torsion multiple (k={witness.k})"
    if isinstance(witness, AutRoute):
        return f"automorphism ({witness.phi.x},{witness.phi.y}) exponent {witness.m}"
    if isinstance(witness, IsogenyRoute):
        return f"isogeny ({witness.alpha.x},{witness.alpha.y}) sign {witness.sign:+d}"
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
_Outcome = tuple[Verdict | None, dict, int]


# Largest --bound density and classify accept, checked before any sieve.
# At 10^7 on a 2-core x86_64: density on the Gauss order 3.8 s and 66 MB
# peak RSS (one fresh run); classify 1.3 s and 88 MB on a Gauss
# atiyah_deg0 descriptor and 1.1 s and 116 MB on a no-CM split_nontorsion
# one (medians of 3 fresh runs).  Density took 33 s and 384 MB at 10^8;
# at 10^10 its sieve raised MemoryError under a 1.5 GB address-space
# limit.
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


def _cmd_scan(args: argparse.Namespace) -> _Outcome:
    desc = load_descriptor(args.descriptor)
    if desc.surface != "elliptic_bundle" or not isinstance(desc.elliptic.bundle, SplitTorsion):
        raise DescriptorError("scan needs an elliptic_bundle descriptor with bundle=split_torsion")
    e = desc.elliptic
    report = scan_primes(e, args.bound) if args.bound >= 2 else ScanReport(args.bound, {})
    missing = report.missing
    details = {
        "bound": args.bound,
        "k": e.bundle.k,
        "point": list(e.bundle.point.v),
        "curve": repr(e.curve),
        "rows": report,
        "missing": missing,
        "achievable_count": len(report.witnesses) - len(missing),
        "missing_count": len(missing),
    }
    return None, details, 0


def _render_scan(d: dict) -> list[str]:
    lines = [f"scan of k={d['k']} descriptor up to {d['bound']}"]
    # "yes  <route>" or "no   no route", once per witness object
    tails: dict[int, str] = {}
    for p, witness in d["rows"].witnesses.items():
        tail = tails.get(id(witness))
        if tail is None:
            tail = tails[id(witness)] = "no   no route" if witness is None else "yes  " + _witness_text(witness)
        lines.append(f"  {p:>6}  {tail}")
    lines.append(f"achievable: {d['achievable_count']}, missing: {d['missing_count']}")
    if d["missing"]:
        lines.append("missing primes: " + ", ".join(str(p) for p in d["missing"]))
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


# Largest --max-n cm-table accepts, checked before degree_two_table runs.
# Rows with n >= 3 are always empty, and the cost grows linearly with
# max_n: fresh runs on a 2-core x86_64 took 0.36 s and 33 MB peak RSS at
# 10^4, 1.3 s and 66 MB at 10^5 (median of 3), and 9.7 s and 355 MB at
# 10^6.
CM_TABLE_MAX_N_CAP = 10**5


def _cmd_cm_table(args: argparse.Namespace) -> _Outcome:
    if args.max_n > CM_TABLE_MAX_N_CAP:
        raise DescriptorError(f"--max-n {args.max_n} is above the cm-table cap {CM_TABLE_MAX_N_CAP}")
    table = degree_two_table(args.max_n)
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
    return None, {"max_n": args.max_n, "orders_scanned": len(table), "rows": rows}, 0


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


_constant_text = {None: "null", True: "true", False: "false"}.__getitem__
_SCALAR_TEXT = {
    str: _encode_str,
    int: int.__repr__,
    float: _float_text,
    bool: _constant_text,
    type(None): _constant_text,
}


class _IndentWriter:
    """The text of json.dumps with sort_keys and an indent of 2, built fast.

    With an indent, json falls back to its pure-Python encoder.  This
    writer builds the same text from the stdlib's C string escaper,
    int.__repr__ and per-depth indent strings.  Dicts with the same keys
    in the same insertion order share one layout: the keys sorted, in a
    %-template with their separators.

    Scan rows (a ScanReport) are written as the list of row dicts that
    _scan_row spells out, plus each row's "prime", without building them:
    the row of each distinct witness object is encoded once, through the
    same layout, and split at its prime into a head and a tail.  The list
    is then one join over head, prime and tail of each row.

    Only what CLI payloads hold is accepted: str keys, and values whose
    exact type is str, int, float, bool, None, list, tuple, dict or
    ScanReport.  Anything else raises TypeError, also where json.dumps
    would accept it (int keys, subclasses).  Circular payloads are not
    detected; the CLI builds none.
    """

    def __init__(self) -> None:
        self.layouts: dict[tuple[tuple, int], tuple[list, str]] = {}
        self.indents: list[str] = []

    def indent(self, depth: int) -> str:
        while len(self.indents) <= depth:
            self.indents.append("\n" + "  " * len(self.indents))
        return self.indents[depth]

    def layout(self, keys: tuple, depth: int) -> tuple[list, str]:
        """Keys in sorted order and a %-template with one %s per value, kept per key order and depth."""
        found = self.layouts.get((keys, depth))
        if found is not None:
            return found
        if not all(type(key) is str for key in keys):
            raise TypeError(f"keys must be str: {keys!r}")
        inner = self.indent(depth + 1)
        ordered = sorted(keys)
        heads = (("{" if i == 0 else ",") + inner + _encode_str(key) + ": " for i, key in enumerate(ordered))
        template = "".join(head.replace("%", "%%") + "%s" for head in heads)
        found = self.layouts[keys, depth] = ordered, template + self.indent(depth) + "}"
        return found

    def container(self, o, depth: int) -> str:
        if type(o) is dict:
            if not o:
                return "{}"
            ordered, template = self.layout(tuple(o), depth)
            value = self.value
            return template % tuple([value(o[key], depth + 1) for key in ordered])
        if not o:
            return "[]"
        inner = self.indent(depth + 1)
        if all(type(item) is int for item in o):
            body = ("," + inner).join(map(int.__repr__, o))
        else:
            value = self.value
            body = ("," + inner).join([value(item, depth + 1) for item in o])
        return "[" + inner + body + self.indent(depth) + "]"

    def scan_rows(self, rows: ScanReport, depth: int) -> str:
        if not rows.witnesses:
            return "[]"
        sep = "," + self.indent(depth + 1)
        witnesses = rows.witnesses.values()
        # keyed on identity: rows.witnesses keeps every witness alive
        distinct = dict(zip(map(id, witnesses), witnesses))
        heads, tails = {}, {}
        for key, witness in distinct.items():
            head, tail = self.row_parts(witness, depth + 1)
            heads[key], tails[key] = sep + head, tail
        rows_parts = zip(
            map(heads.__getitem__, map(id, witnesses)),
            map(int.__repr__, rows.witnesses),
            map(tails.__getitem__, map(id, witnesses)),
        )
        pieces = list(chain.from_iterable(rows_parts))
        # every head starts with the separator, but the first row's opens the list
        pieces[0] = "[" + pieces[0][1:]
        pieces.append(self.indent(depth) + "]")
        return "".join(pieces)

    def row_parts(self, witness: Witness | None, depth: int) -> list[str]:
        """The text of a scan row at depth, before and after its prime."""
        row = _scan_row(witness)
        ordered, template = self.layout((*row, "prime"), depth)
        value = self.value
        # the writer never emits a NUL (_encode_str escapes it), so one marks the prime
        texts = ["\0" if key == "prime" else value(row[key], depth + 1) for key in ordered]
        return (template % tuple(texts)).split("\0")

    def value(self, o, depth: int) -> str:
        scalar = _SCALAR_TEXT.get(type(o))
        if scalar is not None:
            return scalar(o)
        if type(o) is ScanReport:
            return self.scan_rows(o, depth)
        if type(o) not in (list, tuple, dict):
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        return self.container(o, depth)


def _json_text(payload) -> str:
    """Byte for byte what json.dumps(payload, sort_keys=True) prints with an indent of 2."""
    return _IndentWriter().value(payload, 0)


# 128 + SIGPIPE: what a shell reports for a writer killed by a closed pipe.
EXIT_CLOSED_PIPE = 141
# Any other exception out of a subcommand or its report: a fault of the
# program, not of its input.
EXIT_INTERNAL_ERROR = 3


def _report_text(args: argparse.Namespace, verdict: Verdict | None, details: dict, start: float) -> str:
    """The --json report payload (docs/report_schema.md) as text, or the rendered lines."""
    if args.json:
        # the command's time, taken before its payload is built or written
        timing_ms = round((time.perf_counter() - start) * 1000, 3)
        return _json_text(
            {
                "schema_version": SCHEMA_VERSION,
                "tool": "selfmaps",
                "tool_version": __version__,
                "command": args.command,
                "verdict": None if verdict is None else verdict_to_payload(verdict),
                "details": details,
                "timing_ms": timing_ms,
            }
        )
    lines = globals()[args.render](details)
    if verdict is not None:
        lines.extend(_verdict_lines(verdict))
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        try:
            verdict, details, code = globals()[args.handler](args)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        text = _report_text(args, verdict, details, start)
    except Exception as exc:
        # one stderr line and no traceback; KeyboardInterrupt and SystemExit pass
        print(f"error: internal: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    try:
        print(text)
        sys.stdout.flush()
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
