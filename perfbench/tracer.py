"""Outside-in tracing of the selfmaps layers.

The tracer wraps each listed public function, in its home module and in
every selfmaps module that imported the name, so calls from anywhere in
the package pass through the wrapper.  Each call records a span (name,
start, end, parent span, op id); hot per-prime functions are aggregated
per (op, parent, name) instead, which keeps memory flat on the 10^5-call
paths.  Self time is a span's duration minus the time of its wrapped
children.  Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# The layers are the package modules; each lists the public functions
# whose boundary the trace records.
LAYERS = {
    "qorders": ("elements_of_norm", "is_prime", "split_type", "legendre", "primes_up_to"),
    "cm_elliptic": ("pullback_exponent", "aut_group", "endomorphisms_of_degree", "kernel_on_torsion"),
    "elliptic_pbundle": ("prime_achievable", "admits_all_degrees", "nonsplit_verdict"),
    "group_condition": (
        "parse_group_text",
        "validate_group",
        "build_semidirect",
        "element_orders",
        "normalizer",
        "conjugation_rho",
        "rho_bar_surjective",
    ),
    "toric": ("validate_fan", "toric_verdict"),
    "ns_lattice": ("atiyah_deg2_search", "square_degree_certificate"),
    "verdicts": ("witness_to_payload", "verdict_to_payload"),
    "cli": ("main", "load_descriptor"),
    "claims": ("run_claims",),
}

# Called once per prime or per row: aggregated, not stored one span each.
HOT = {
    "qorders.elements_of_norm",
    "qorders.is_prime",
    "qorders.split_type",
    "qorders.legendre",
    "cm_elliptic.pullback_exponent",
    "cm_elliptic.aut_group",
    "cm_elliptic.endomorphisms_of_degree",
    "cm_elliptic.kernel_on_torsion",
    "elliptic_pbundle.prime_achievable",
    "verdicts.witness_to_payload",
}

_ROUTES = {"TorsionMultiple": "torsion_multiple", "AutRoute": "aut", "IsogenyRoute": "isogeny"}


def _count_route(counters, args, result):
    route = _ROUTES.get(type(result.witness).__name__, "none")
    counters[f"elliptic_pbundle.route.{route}"] += 1


def _count_norm_hit(counters, args, result):
    counters["qorders.norm_search.hits"] += bool(result)


def _count_entries(counters, args, result):
    counters["group_condition.validate_group.entries"] += result.order * result.order


def _count_bytes(counters, args, result):
    counters["group_condition.parse_group_text.bytes"] += len(args[0].encode())


# Counts taken at the boundary from the call's arguments and result.
OBSERVERS = {
    "elliptic_pbundle.prime_achievable": _count_route,
    "qorders.elements_of_norm": _count_norm_hit,
    "group_condition.validate_group": _count_entries,
    "group_condition.parse_group_text": _count_bytes,
}

# (metric, unit, better) reported by a traced run, per round.
PER_LAYER = (
    ("qorders.elements_of_norm.calls", "count", "lower"),
    ("qorders.elements_of_norm.self_s", "s", "lower"),
    ("qorders.norm_search.hit_ratio", "ratio", "higher"),
    ("qorders.is_prime.calls", "count", "lower"),
    ("qorders.is_prime.self_s", "s", "lower"),
    ("qorders.split_type.s", "s", "lower"),
    ("qorders.legendre.s", "s", "lower"),
    ("qorders.primes_up_to.s", "s", "lower"),
    ("cm_elliptic.pullback_exponent.calls", "count", "lower"),
    ("cm_elliptic.pullback_exponent.self_s", "s", "lower"),
    ("cm_elliptic.aut_group.s", "s", "lower"),
    ("cm_elliptic.endomorphisms_of_degree.s", "s", "lower"),
    ("cm_elliptic.kernel_on_torsion.s", "s", "lower"),
    ("elliptic_pbundle.prime_achievable.calls", "count", "lower"),
    ("elliptic_pbundle.prime_achievable.self_s", "s", "lower"),
    ("elliptic_pbundle.admits_all_degrees.s", "s", "lower"),
    ("elliptic_pbundle.nonsplit_verdict.s", "s", "lower"),
    ("elliptic_pbundle.route.torsion_multiple", "count", "higher"),
    ("elliptic_pbundle.route.aut", "count", "higher"),
    ("elliptic_pbundle.route.isogeny", "count", "higher"),
    ("elliptic_pbundle.route.none", "count", "lower"),
    ("elliptic_pbundle.pullback_per_decision", "ratio", "lower"),
    ("elliptic_pbundle.norm_search_share", "ratio", "lower"),
    ("group_condition.parse_group_text.s", "s", "lower"),
    ("group_condition.parse_group_text.bytes", "bytes", "lower"),
    ("group_condition.validate_group.calls", "count", "lower"),
    ("group_condition.validate_group.self_s", "s", "lower"),
    ("group_condition.validate_group.entries", "count", "lower"),
    ("group_condition.build_semidirect.self_s", "s", "lower"),
    ("group_condition.element_orders.s", "s", "lower"),
    ("group_condition.normalizer.calls", "count", "lower"),
    ("group_condition.normalizer.s", "s", "lower"),
    ("group_condition.conjugation_rho.calls", "count", "lower"),
    ("group_condition.conjugation_rho.self_s", "s", "lower"),
    ("group_condition.rho_bar_surjective.self_s", "s", "lower"),
    ("toric.validate_fan.s", "s", "lower"),
    ("toric.toric_verdict.s", "s", "lower"),
    ("ns_lattice.atiyah_deg2_search.s", "s", "lower"),
    ("ns_lattice.square_degree_certificate.s", "s", "lower"),
    ("verdicts.witness_to_payload.calls", "count", "lower"),
    ("verdicts.witness_to_payload.s", "s", "lower"),
    ("verdicts.verdict_to_payload.s", "s", "lower"),
    ("cli.load_descriptor.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("claims.run_claims.s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
)


class Tracer:
    """Installs wrappers for one traced round at a time and keeps its spans."""

    def __init__(self):
        self.op = None
        self.spans = []  # (name, start, end, parent, op, self_s); index is the span id
        self.hot = {}  # (op, parent, name) -> [calls, seconds, self seconds]
        self.counters = defaultdict(int)
        self._stack = []  # [child seconds, span id of the nearest stored span]
        self._patches = []
        self._written = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.startswith("selfmaps.") and m]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"selfmaps.{layer}")
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    if getattr(module, fn_name, None) is original:
                        setattr(module, fn_name, wrapper)
                        self._patches.append((module, fn_name, original))

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._patches):
            setattr(module, fn_name, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        hot = name in HOT
        observe = OBSERVERS.get(name)
        stack, spans, aggregates, counters = self._stack, self.spans, self.hot, self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_id = parent[1] if parent else None
            if hot:
                span_id = parent_id
            else:
                span_id = len(spans)
                spans.append(None)
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent:
                    parent[0] += duration
                if hot:
                    key = (self.op, parent_id, name)
                    agg = aggregates.get(key)
                    if agg is None:
                        aggregates[key] = [1, duration, duration - frame[0]]
                    else:
                        agg[0] += 1
                        agg[1] += duration
                        agg[2] += duration - frame[0]
                else:
                    spans[span_id] = (name, start, end, parent_id, self.op, duration - frame[0])
            if observe:
                observe(counters, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def end_round(self, round_no: int, stdout_bytes: int) -> dict:
        """Per-layer metrics of the round just traced; keeps its spans for writing."""
        calls, seconds, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        for span_id, (name, start, end, parent, op, own) in enumerate(self.spans):
            calls[name] += 1
            seconds[name] += end - start
            self_s[name] += own
            self._written.append({"round": round_no, "id": span_id, "name": name, "start": start,
                                  "end": end, "parent": parent, "op": op, "self_s": own})
        for (op, parent, name), (n, s, own) in self.hot.items():
            calls[name] += n
            seconds[name] += s
            self_s[name] += own
            self._written.append({"round": round_no, "name": name, "op": op, "parent": parent,
                                  "calls": n, "s": s, "self_s": own})
        counters = dict(self.counters)
        self.spans.clear()
        self.hot.clear()
        self.counters.clear()

        def ratio(a, b):
            return a / b if b else 0.0

        decisions = calls["elliptic_pbundle.prime_achievable"]
        derived = {
            "qorders.norm_search.hit_ratio": ratio(
                counters.get("qorders.norm_search.hits", 0), calls["qorders.elements_of_norm"]
            ),
            "elliptic_pbundle.pullback_per_decision": ratio(calls["cm_elliptic.pullback_exponent"], decisions),
            "elliptic_pbundle.norm_search_share": ratio(calls["cm_elliptic.endomorphisms_of_degree"], decisions),
            "cli.stdout_bytes": stdout_bytes,
        }
        fields = {"calls": calls, "s": seconds, "self_s": self_s}
        out = {}
        for metric, _unit, _better in PER_LAYER[:-1]:  # trace_overhead comes from run.py
            fn_name, field = metric.rsplit(".", 1)
            if metric in derived:
                out[metric] = derived[metric]
            elif field in fields:
                out[metric] = fields[field][fn_name]
            else:
                out[metric] = counters.get(metric, 0)
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            for record in self._written:
                f.write(json.dumps(record) + "\n")
