"""Seeded input generators for the three benchmark workloads.

Each generator writes descriptor, fan and Cayley-table files into a work
directory and returns the op list of one round.  An op is one CLI
invocation (``argv``) or one library group job (``lib``), with the work
it stands for and what the checker needs to know about its input.  The
seed picks points, fans, relabelings and test primes inside fixed
strata, so every seed runs the same mix at nearly the same cost.

Why each workload exists:

- scan: the O(sqrt p) norm-p sweep dominates here.  A profile at bound
  3*10^5 showed elements_of_norm at about 65% of the time, then
  pullback_exponent, per-prime is_prime and the JSON encoding.  This is
  where the Cornacchia work (ROADMAP item 2) must show.
- group: the only workload where group_condition, numpy and memory
  dominate.  It never enters the qorders norm search.
- battery: it uses the same layers differently.  qorders runs the
  brute-force oracle and the Legendre paths that must stay brute force.
  elliptic_pbundle builds certificates and short scans, mostly through
  the automorphism route.  It is also the only workload that runs toric
  and ns_lattice.
"""

from __future__ import annotations

import random
from pathlib import Path

import arith

SCAN_BOUND = 100_000
CLASSIFY_BOUND = 1000

# Fixed strata of the scan round: (order, torsion levels the seed picks
# from).  Levels in one stratum share phi(k), so the share of primes
# that reach the norm search is the same whichever the seed picks.
SCAN_STRATA = (
    ((1, 1), (7, 9)),  # disc -3
    ((1, 2), (7, 9)),  # disc -7
    ((0, 2), (8, 10, 12)),  # disc -8
    ((0, 5), (7, 9)),  # class number 2
    ((0, 6), (11,)),  # class number 2
    (None, (7, 9, 11)),  # no CM
)
# The slow case of ROADMAP's baseline: every prime outside +-1 mod 7 runs
# the norm search.  Fixed, so its time compares across seeds.
SCAN_ANCHOR = ((0, 1), 7, (1, 0))
TEST_ORDERS = ((1, 1), (0, 1), (1, 2), (0, 2), (0, 5), (0, 6))
TEST_CURVES = (None, (0, 1), (1, 1), (0, 2), (1, 2))


def _descriptor(order, bundle_lines) -> str:
    curve = "curve=nocm\n" if order is None else f"curve=cm\norder={order[0]} {order[1]}\n"
    return "surface=elliptic_bundle\n" + curve + bundle_lines


def _split_torsion(order, k, v) -> str:
    return _descriptor(order, f"bundle=split_torsion\nk={k}\npoint={v[0]} {v[1]}\n")


def _generic_points(order, k) -> list:
    """Exact-order points on which only +-1 acts by a scalar."""
    return [
        v
        for v in arith.exact_order_points(k)
        if sum(m is not None for m in arith.unit_exponents(order, v, k)) == 2
        and not arith.is_exceptional(order, k, v)
    ]


def _exceptional_point(rng, order, k, elem):
    return rng.choice([v for v in arith.kernel(order, elem, k) if v in arith.exact_order_points(k)])


def _write(work: Path, name: str, text: str) -> str:
    path = work / name
    path.write_text(text)
    return str(path)


def scan_ops(rng: random.Random, work: Path) -> list:
    def op(name, order, k, v, anchor=False):
        path = _write(work, f"{name}.desc", _split_torsion(order, k, v))
        return {
            "id": name,
            "argv": ["scan", path, "--bound", str(SCAN_BOUND), "--json"],
            "work": n_primes,
            "anchor": anchor,
            "check": {"kind": "scan", "order": order, "k": k, "point": list(v), "bound": SCAN_BOUND},
        }

    n_primes = len(arith.primes_up_to(SCAN_BOUND))
    ops = [op("scan-anchor", *SCAN_ANCHOR, anchor=True)]
    for i, (order, levels) in enumerate(SCAN_STRATA):
        k = rng.choice(levels)
        ops.append(op(f"scan-{i}", order, k, rng.choice(_generic_points(order, k))))
    order, k, elem = rng.choice(arith.exceptional_families())
    ops.append(op("scan-exceptional", order, k, _exceptional_point(rng, order, k, elem)))
    order, k = rng.choice(TEST_ORDERS + (None,)), rng.choice((2, 3))
    ops.append(op("scan-small-k", order, k, rng.choice(arith.exact_order_points(k))))
    return ops


def _semidirect_table(p: int):
    """(a, u)(b, v) = (a + u*b, u*v) at index a*(p-1) + u-1, as in build_semidirect."""
    import numpy as np

    n = p * (p - 1)
    a = np.arange(n, dtype=np.int64) // (p - 1)
    u = np.arange(n, dtype=np.int64) % (p - 1) + 1
    prod_a = (a[:, None] + u[:, None] * a[None, :]) % p
    prod_u = (u[:, None] * u[None, :]) % p
    return prod_a * (p - 1) + prod_u - 1


def _cyclic_table(n: int):
    import numpy as np

    idx = np.arange(n, dtype=np.int64)
    return (idx[:, None] + idx[None, :]) % n


def _write_group(rng, work: Path, name: str, group: str, param: int) -> tuple[str, list]:
    """Write a relabeled Cayley table (identity stays 0); returns path and labels."""
    import numpy as np

    table = _semidirect_table(param) if group == "semidirect" else _cyclic_table(param)
    n = table.shape[0]
    rest = list(range(1, n))
    rng.shuffle(rest)
    label = np.array([0] + rest, dtype=np.int64)  # old index -> new index
    relabeled = np.empty_like(table)
    relabeled[label[:, None], label[None, :]] = label[table]
    lines = [str(n)] + [" ".join(map(str, row)) for row in relabeled.tolist()]
    return _write(work, name, "\n".join(lines) + "\n"), label.tolist()


def _prime_factors(m: int) -> list:
    return [q for q in arith.primes_up_to(m) if m % q == 0]


def group_ops(rng: random.Random, work: Path) -> list:
    def lib(p, anchor=False):
        qs = [p, rng.choice(_prime_factors(p - 1))]
        return {
            "id": f"lib-p{p}",
            "lib": {"p": p, "qs": qs},
            "work": (p * (p - 1)) ** 2,
            "anchor": anchor,
            "check": {"kind": "group", "group": "semidirect", "param": p, "qs": qs, "labels": None},
        }

    def cli(name, group, param):
        path, labels = _write_group(rng, work, f"{name}.grp", group, param)
        n = param * (param - 1) if group == "semidirect" else param
        q = rng.choice(_prime_factors(n))
        return {
            "id": name,
            "argv": ["group-check", path, str(q), "--json"],
            "work": n * n,
            "anchor": False,
            "check": {"kind": "group", "group": group, "param": param, "qs": [q], "labels": labels},
        }

    small = rng.sample([23, 29, 31], 2)
    return [
        lib(97, anchor=True),
        *(lib(p) for p in small),
        cli("check-semidirect43", "semidirect", 43),
        cli("check-cyclic1806", "cyclic", 1806),
    ]


PLANE = [(1, 0), (0, 1), (-1, -1)]


def hirzebruch(n: int) -> list:
    return [(1, 0), (0, 1), (-1, n), (0, -1)]


def _random_fan(rng) -> list:
    """A chain of blow-ups from the plane or a Hirzebruch surface."""
    fan = rng.choice([PLANE] + [hirzebruch(n) for n in range(6)])[:]
    for _ in range(rng.randint(1, 8)):
        i = rng.randrange(len(fan))
        u, v = fan[i], fan[(i + 1) % len(fan)]
        fan.insert(i + 1, (u[0] + v[0], u[1] + v[1]))
    return fan


def _classify(work, name, text, check):
    path = _write(work, f"{name}.desc", text)
    return {
        "id": name,
        "argv": ["classify", path, "--bound", str(CLASSIFY_BOUND), "--json"],
        "work": 1,
        "anchor": False,
        "check": {"kind": "classify", "bound": CLASSIFY_BOUND, **check},
    }


def battery_ops(rng: random.Random, work: Path) -> list:
    ops = [
        {
            "id": "verify-paper",
            "argv": ["verify-paper", "--json"],
            "work": 0,
            "anchor": True,
            "check": {"kind": "verify-paper"},
        }
    ]
    add = ops.append
    for i in range(12):
        surface = rng.choice(("abelian", "hyperelliptic", "kodaira_one"))
        add(_classify(work, f"simple-{i}", f"surface={surface}\n", {"shape": "simple"}))
    fixed = [PLANE] + [hirzebruch(n) for n in range(6)]
    for i in range(24):
        rays = fixed[i] if i < len(fixed) else _random_fan(rng)
        shift = rng.randrange(len(rays))
        rays = rays[shift:] + rays[:shift]
        _write(work, f"toric-{i}.fan", "".join(f"{x} {y}\n" for x, y in rays))
        add(_classify(work, f"toric-{i}", f"surface=toric\nfan_file=toric-{i}.fan\n", {"shape": "toric", "rays": rays}))
    # Every (curve, k) stratum once, so the seed moves only the points.
    strata = [(order, k, "small-k") for order in TEST_CURVES[:4] for k in (1, 2, 3)]
    strata += [(order, k, "torsion") for order in TEST_CURVES for k in (4, 5, 6, 8)]
    for i, (order, k, label) in enumerate(strata):
        v = rng.choice([v for v in arith.exact_order_points(k) if not arith.is_exceptional(order, k, v)])
        add(_classify(work, f"{label}-{i}", _split_torsion(order, k, v), {"shape": "split_torsion", "order": order, "k": k, "point": v}))
    for i, (order, k, elem) in enumerate(arith.exceptional_families()):
        v = _exceptional_point(rng, order, k, elem)
        add(_classify(work, f"exceptional-{i}", _split_torsion(order, k, v), {"shape": "split_torsion", "order": order, "k": k, "point": v}))
    for shape in ("split_nontorsion", "atiyah_deg0", "atiyah_deg1", "split_degree"):
        for i, order in enumerate(TEST_CURVES + ((0, 5), (0, 6))):
            extra = f"degree={rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])}\n" if shape == "split_degree" else ""
            text = _descriptor(order, f"bundle={shape}\n{extra}")
            add(_classify(work, f"{shape}-{i}", text, {"shape": shape, "order": order}))
    for i in range(6):
        add(_classify(work, f"high-genus-trivial-{i}", "surface=high_genus_bundle\np=1\n", {"shape": "high_genus", "p": 1}))
    groups = [("semidirect", p) for p in (5, 7, 11, 13)] + [("cyclic", n) for n in (6, 10, 12, 15, 21, 30, 35, 42)]
    for i, (group, param) in enumerate(groups):
        n = param * (param - 1) if group == "semidirect" else param
        p = rng.choice(_prime_factors(n))
        path, labels = _write_group(rng, work, f"high-genus-{i}.grp", group, param)
        text = f"surface=high_genus_bundle\np={p}\ngroup_file={Path(path).name}\n"
        add(_classify(work, f"high-genus-{i}", text, {"shape": "high_genus", "p": p, "group": group, "param": param, "labels": labels}))
    return ops


GENERATORS = {"scan": scan_ops, "group": group_ops, "battery": battery_ops}


def generate(workload: str, seed: int, work: Path) -> list:
    """Write the inputs of one seeded round into work and return its ops."""
    work.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), work)
