"""Output checks for every op, recomputed with the benchmark's own arithmetic.

Each check takes an op (as written by workloads.py) and its parsed
output, and returns a list of problems; an empty list means the output
is right.  FAULTS corrupts real outputs on purpose so a run can prove
that its checker catches a wrong witness sign, a dropped prime row, a
flipped group verdict and a wrong toric verdict.
"""

from __future__ import annotations

import copy
import functools
import math
import random

import arith

CLAIMS = (
    "degree-two-table",
    "exceptional-families",
    "necessity-grid",
    "small-torsion",
    "atiyah-obstructions",
    "toric-verdicts",
    "splitting-oracle",
    "group-condition",
    "ns-bookkeeping",
)


@functools.lru_cache(maxsize=None)
def _primes(bound: int) -> tuple:
    return tuple(arith.primes_up_to(bound))


def _order(value):
    return None if value is None else tuple(value)


def _elem(payload, order):
    """(x, y) of a witness element, or None when it is not in the curve's ring."""
    t_n = (payload["t"], payload["n"])
    if order is None:
        return (payload["x"], 0) if t_n == (0, 1) and payload["y"] == 0 else None
    return (payload["x"], payload["y"]) if t_n == order else None


def witness_problem(w, p, order, k, v):
    """Why the witness does not give a degree-p self-map, or None if it does."""
    route = w.get("route")
    if route == "torsion_multiple":
        return None if w["k"] == k and p % k == 0 else f"p={p}: torsion multiple needs k | p"
    if route == "aut":
        phi, m = _elem(w["phi"], order), w["exponent"]
        if phi is None or arith.norm(order, phi) != 1:
            return f"p={p}: {w['phi']} is not an automorphism of the curve"
        if arith.pullback_exponent(order, phi, v, k) != m:
            return f"p={p}: automorphism exponent is not {m}"
        return None if (p - m) % k == 0 or (p + m) % k == 0 else f"p={p}: p is not +-{m} mod {k}"
    if route == "isogeny":
        alpha, sign = _elem(w["alpha"], order), w["sign"]
        if alpha is None or arith.norm(order, alpha) != p:
            return f"p={p}: {w['alpha']} is not an endomorphism of norm p"
        if sign not in (1, -1) or arith.pullback_exponent(order, alpha, v, k) != sign % k:
            return f"p={p}: isogeny exponent is not {sign}"
        return None
    return f"p={p}: unknown route {route!r}"


def check_scan(op, payload) -> list:
    c, d = op["check"], payload["details"]
    order, k, v, bound = _order(c["order"]), c["k"], tuple(c["point"]), c["bound"]
    problems = []
    if payload["command"] != "scan" or payload["verdict"] is not None:
        problems.append("not a scan report")
    if (d["bound"], d["k"], tuple(d["point"])) != (bound, k, v):
        problems.append("bound, k or point differs from the input")
    rows = d["rows"]
    if [row["prime"] for row in rows] != list(_primes(bound)):
        problems.append(f"rows are not exactly the primes <= {bound}")
    missing = []
    for row in rows:
        if row["achievable"]:
            problem = witness_problem(row["witness"], row["prime"], order, k, v)
            if problem:
                problems.append(problem)
        else:
            missing.append(row["prime"])
    if d["missing"] != missing or d["missing_count"] != len(missing):
        problems.append("missing list disagrees with the rows")
    if d["achievable_count"] != len(rows) - len(missing):
        problems.append("achievable_count disagrees with the rows")
    rng = random.Random(op["id"])
    for p in rng.sample(missing, min(5, len(missing))):
        if arith.achievable(order, k, v, p):
            problems.append(f"p={p} is reported missing but brute force finds a route")
    return problems[:10]


class _Group:
    """Closed-form arithmetic of Z/p x| (Z/p)* or Z/n under the file's relabeling."""

    def __init__(self, kind, param, labels):
        self.kind, self.param = kind, param
        self.order = param * (param - 1) if kind == "semidirect" else param
        self.labels = labels or list(range(self.order))
        self.index = {label: i for i, label in enumerate(self.labels)}

    def _decode(self, label):
        i = self.index[label]
        return (i // (self.param - 1), i % (self.param - 1) + 1) if self.kind == "semidirect" else i

    def _encode(self, x):
        i = x[0] * (self.param - 1) + x[1] - 1 if self.kind == "semidirect" else x
        return self.labels[i]

    def _mul(self, x, y):
        if self.kind == "cyclic":
            return (x + y) % self.param
        p = self.param
        return ((x[0] + x[1] * y[0]) % p, x[1] * y[1] % p)

    def _inv(self, x):
        if self.kind == "cyclic":
            return -x % self.param
        p = self.param
        u_inv = pow(x[1], -1, p)
        return (-x[0] * u_inv % p, u_inv)

    def conjugate(self, g, x):
        g, x = self._decode(g), self._decode(x)
        return self._encode(self._mul(self._mul(g, x), self._inv(g)))

    def power(self, x, e):
        x = self._decode(x)
        out = self._decode(0)
        for _ in range(e):
            out = self._mul(out, x)
        return self._encode(out)

    def expected(self, q):
        """(holds, number of subgroups of order q) in closed form."""
        if self.kind == "cyclic":
            return q <= 3, 1
        if q == self.param:
            return True, 1
        return q <= 3, self.param


def group_problems(report, group: _Group, q: int) -> list:
    holds, n_subgroups = group.expected(q)
    problems = []
    if (report["group_order"], report["p"]) != (group.order, q):
        problems.append("group order or q differs from the input")
    if report["holds"] != holds:
        problems.append(f"q={q}: holds={report['holds']}, closed form says {holds}")
    subgroups = report["subgroups"]
    if len(subgroups) != n_subgroups:
        problems.append(f"q={q}: {len(subgroups)} subgroups, closed form says {n_subgroups}")
    for sub in subgroups:
        g = sub["generator"]
        if g == 0 or group.power(g, q) != 0:
            problems.append(f"q={q}: generator {g} does not have order {q}")
    covered = [sub for sub in subgroups if sub["covered"]]
    if bool(covered) != report["holds"]:
        problems.append(f"q={q}: holds disagrees with the covered subgroups")
    if report["holds"]:
        gen = covered[0]["generator"] if covered else 0
        if sorted(map(int, report["witnesses"])) != list(range(1, q)):
            problems.append(f"q={q}: witnesses do not cover every residue")
        for r, (g, sign) in report["witnesses"].items():
            if group.conjugate(g, gen) != group.power(gen, sign * int(r) % q):
                problems.append(f"q={q}: element {g} does not conjugate {gen} to its power {sign}*{r}")
    elif report.get("witnesses"):
        problems.append(f"q={q}: witnesses listed for a failing condition")
    return problems[:10]


def check_group(op, payload) -> list:
    c = op["check"]
    group = _Group(c["group"], c["param"], c["labels"])
    reports = payload if isinstance(payload, list) else [payload["details"]]
    if len(reports) != len(c["qs"]):
        return ["one report per q expected"]
    return [p for report, q in zip(reports, c["qs"]) for p in group_problems(report, group, q)]


def _certificate_problems(cert, order, k, v) -> list:
    if cert is None or cert["k"] != k:
        return ["all-degrees verdict without a certificate for this k"]
    problems = []
    wanted = [r for r in range(k) if math.gcd(r, k) == 1]
    if sorted(map(int, cert["residues"])) != wanted:
        problems.append("certificate residues are not (Z/k)*")
    for r, w in cert["residues"].items():
        if w["route"] != "aut":
            problems.append(f"residue {r}: not an automorphism route")
        else:
            problems.extend(filter(None, [witness_problem(w, int(r), order, k, v)]))
    if sorted(map(int, cert["special_primes"])) != [q for q in _primes(k) if k % q == 0]:
        problems.append("special primes are not the primes dividing k")
    for q, w in cert["special_primes"].items():
        problems.extend(filter(None, [witness_problem(w, int(q), order, k, v)]))
    return problems


def _expected_toric(rays):
    selfs = arith.self_intersections(rays)
    negatives = [c for c in selfs if c < 0]
    if not negatives:
        return selfs, ("squares_only" if len(rays) == 3 else "all_degrees"), None
    if len(negatives) == 1:
        return selfs, "squares_only", None
    return selfs, "finite_candidate_primes", sorted({-c for c in negatives if arith.is_prime(-c)})


def check_classify(op, payload) -> list:
    c, verdict, d = op["check"], payload["verdict"], payload["details"]
    shape, bound = c["shape"], c["bound"]
    kind = verdict["kind"]
    order = _order(c.get("order"))
    problems = []
    if payload["command"] != "classify":
        problems.append("not a classify report")
    if shape == "simple":
        expected = "infinitely_many_missing"
    elif shape == "toric":
        rays = arith.canonical_fan(c["rays"])
        selfs, expected, candidates = _expected_toric(rays)
        if [tuple(r) for r in d["rays"]] != rays or d["self_intersections"] != selfs:
            problems.append("rays or self-intersections differ from the wall relation")
        if kind == expected == "finite_candidate_primes" and verdict["candidates"] != candidates:
            problems.append(f"candidates {verdict['candidates']} != {candidates}")
    elif shape == "split_torsion":
        k, v = c["k"], tuple(c["point"])
        if k <= 3 or arith.is_exceptional(order, k, v):
            expected = "all_degrees"
            if kind == expected:
                problems += _certificate_problems(verdict["certificate"], order, k, v)
        else:
            expected = "missing_primes"
            if kind == expected:
                missing = [p for p in _primes(1000) if not arith.achievable(order, k, v, p)]
                if verdict["missing"] != missing or verdict["scan_bound"] != 1000:
                    problems.append("missing primes differ from brute force up to 1000")
    elif shape in ("split_nontorsion", "atiyah_deg0"):
        expected = "infinitely_many_missing"
        if kind == expected:
            non_norms = [p for p in _primes(bound) if not arith.elements_of_norm(order, p)]
            if verdict["missing_examples"] != non_norms:
                problems.append("missing examples are not the primes outside the norm form")
    elif shape == "atiyah_deg1":
        expected = "missing_primes"
        if kind == expected and (verdict["missing"], verdict["scan_bound"]) != ([2], None):
            problems.append("degree-1 Atiyah bundle must miss exactly the prime 2")
    elif shape == "split_degree":
        expected = "squares_only"
    elif c["p"] == 1:
        expected = "all_degrees"
    else:
        p = c["p"]
        group = _Group(c["group"], c["param"], c["labels"])
        holds, _ = group.expected(p)
        expected = "all_degrees" if holds else "infinitely_many_missing"
        problems += group_problems(d, group, p)
        if kind == expected == "infinitely_many_missing":
            uncovered = set(range(2, p - 1))
            if verdict["missing_examples"] != [q for q in _primes(max(bound, 2)) if q % p in uncovered]:
                problems.append("missing examples are not the primes in uncovered classes")
    if kind != expected:
        problems.insert(0, f"{shape}: verdict {kind}, expected {expected}")
    return problems[:10]


def check_verify_paper(op, payload) -> list:
    d = payload["details"]
    names = [claim["name"] for claim in d["claims"]]
    problems = []
    if tuple(names) != CLAIMS:
        problems.append(f"claims {names}")
    problems += [f"claim {c['name']} failed: {c['detail']}" for c in d["claims"] if not c["passed"]]
    if d.get("all_passed") is not True or d["negative_test"]:
        problems.append("all_passed is not true")
    return problems


CHECKS = {
    "scan": check_scan,
    "group": check_group,
    "classify": check_classify,
    "verify-paper": check_verify_paper,
}


def check(op, payload) -> list:
    try:
        return CHECKS[op["check"]["kind"]](op, payload)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]


# Deliberate corruptions: (name, workload, picks an op and returns a
# corrupted copy of its output, or None if no op of the round fits).
def _flip_witness_sign(ops, outputs):
    """Negate an isogeny sign, or else an automorphism exponent m -> -m mod k."""
    candidates = []
    for op in ops:
        k = op["check"]["k"]
        for i, row in enumerate(outputs[op["id"]]["details"]["rows"]):
            w = row.get("witness", {})
            if w.get("route") == "isogeny":
                candidates.insert(0, (op, i, "sign", -w["sign"]))
            elif w.get("route") == "aut" and (-w["exponent"]) % k != w["exponent"] and not candidates:
                candidates.append((op, i, "exponent", (-w["exponent"]) % k))
    if not candidates:
        return None
    op, i, field, value = candidates[0]
    bad = copy.deepcopy(outputs[op["id"]])
    bad["details"]["rows"][i]["witness"][field] = value
    return op, bad


def _drop_prime_row(ops, outputs):
    op = ops[0]
    bad = copy.deepcopy(outputs[op["id"]])
    rows = bad["details"]["rows"]
    dropped = rows.pop(len(rows) // 2)
    if not dropped["achievable"]:
        bad["details"]["missing"].remove(dropped["prime"])
        bad["details"]["missing_count"] -= 1
    else:
        bad["details"]["achievable_count"] -= 1
    return op, bad


def _flip_holds(ops, outputs):
    op = ops[0]
    bad = copy.deepcopy(outputs[op["id"]])
    bad[0]["holds"] = not bad[0]["holds"]
    return op, bad


def _wrong_toric_verdict(ops, outputs):
    for op in ops:
        if op["check"].get("shape") == "toric":
            bad = copy.deepcopy(outputs[op["id"]])
            bad["verdict"]["kind"] = "squares_only" if bad["verdict"]["kind"] == "all_degrees" else "all_degrees"
            return op, bad
    return None


FAULTS = (
    ("wrong witness sign", "scan", _flip_witness_sign),
    ("dropped prime row", "scan", _drop_prime_row),
    ("flipped holds", "group", _flip_holds),
    ("wrong toric verdict", "battery", _wrong_toric_verdict),
)


def self_test(workload, ops, outputs) -> list:
    """Inject this workload's faults; returns (fault, caught) pairs."""
    results = []
    for name, target, corrupt in FAULTS:
        if target != workload:
            continue
        picked = corrupt(ops, outputs)
        results.append((name, picked is not None and bool(check(*picked))))
    return results
