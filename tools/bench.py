"""Time the selfmaps CLI paths and record the runs in a BENCH_*.json file.

Usage:
    python3 tools/bench.py SUITE --label NAME [--checkout DIR] [--out FILE]

Every CLI case runs `python -m selfmaps.cli ...` against DIR/src in RUNS
(5) fresh interpreters, one after another, and records the median wall
time (time.perf_counter around each subprocess), the peak RSS of the
largest run (ru_maxrss of each child, from os.wait4) and the sha256 of
the payload minus its timing_ms line.  Every run must exit 0 and print
the same payload, so two checkouts can be shown to print the same report.

SUITE is one of:

    verify-paper  `verify-paper --json`; then, in this process, each
                  `_check_*` function of the claims module is wrapped with
                  a timer and run_claims is called RUNS times, so each
                  claim's seconds are a median (the first call also pays
                  the one-time caches and sieves)
    scan          `scan DESC --bound B --json` on the Gauss order:
                  gauss-k5 (k = 5, point (4, 2): every prime achievable,
                  so the JSON of about 25 MB dominates) and gauss-k7
                  (k = 7, point (1, 0): 52,344 of the 78,498 primes are
                  missing, and no isogeny can reach their residues) at
                  B = 10^6; gauss-k7-text, the same scan without --json,
                  which times the text renderer; gauss-k5, gauss-k7 and
                  gauss-k13 (k = 13, point (1, 8), an eigenvector of the
                  dual of w, so the lattice pass walks the working
                  classes of every row) at B = 10^7, where the k = 5
                  report is the largest (209 MB); and gauss-k999983
                  (k = 999,983, point (1, 0)) at B = 10^6
    density       `density --order T N --bound B --json` for the Gauss
                  order (0 1) and t = 1, n = 2 (discriminant -7), each at
                  B = 10^6 and 10^7
    cm-table      `cm-table --max-n N --json` at N = 10^4 and at the cap
                  N = 10^5
    group         `group-check GROUP P --json` on Z/71 x| (Z/71)* (order
                  4970) with its non-identity elements relabeled by a fixed
                  permutation, at P = 71 (the normal subgroup of order 71,
                  covered) and P = 5 (71 subgroups of order 5, none
                  covered); then semidirect97: RUNS fresh interpreters each
                  time build_semidirect(97) (order 9312: build and
                  validation) and rho_bar_surjective at q = 97 and q = 2,
                  recording the median of each part and of their sum, the
                  largest peak RSS and the sha256 of the reports' holds,
                  images and witnesses
    classify      `classify DESC --json` on one descriptor per surface
                  kind and bundle shape: the simple surfaces, a toric
                  hexagon, every elliptic bundle shape (split torsion at
                  the default bound, split_degree with degree -5) and
                  high-genus bundles with p = 1 and on the tables of
                  Z/7 x| (Z/7)* (order 42, p = 7) and Z/13 x| (Z/13)*
                  (order 156, p = 13); then, in this process, cli.main on
                  each descriptor in CLASSIFY_ROUNDS rounds, each case once
                  per round after one untimed call, recording the median
                  microseconds per case, as start-up hides sub-millisecond
                  work; each in-process payload must hash as the CLI's
    startup       fresh-interpreter start-up: `--version`, `toric` of
                  the plane fan, `classify` of an abelian and of a toric
                  descriptor (the paths that run no numpy array pass),
                  and `verify-paper --json`, which imports everything.
                  Each case runs in two modes.  source sets
                  PYTHONDONTWRITEBYTECODE=1, so every run compiles
                  selfmaps from source; every older BENCH_*.json record
                  was taken this way.  bytecode points PYTHONPYCACHEPREFIX
                  at a temporary directory that one untimed run of each
                  case fills, so every run reads bytecode, as an installed
                  package does.  Each mode also records the -X importtime
                  split of `import selfmaps.cli` (RUNS runs, medians): the
                  self time of each selfmaps module and their share of all
                  import time, numpy's cumulative time, and the number of
                  dataclasses the imported selfmaps modules define

Each record's host block names the machine, its CPU count, the CPUs
this process may run on (os.sched_getaffinity where it exists) and the
Python version.

The record goes under runs[NAME] in FILE (default: the suite's
BENCH_*.json at the repository root), so measurements of several
checkouts, such as a commit and its parent, sit side by side.  Measure
a commit from a clean clone of it, through --checkout: the record's
checkout key names the clone's commit, with -dirty appended when tracked
files other than BENCH_*.json differ from it.  One suite
runs per invocation, and its CLI children run before anything imports
selfmaps or numpy into this process (see _run_child).  Measure only with
nothing else heavy running: the numbers are wall times on a shared host.
"""

import argparse
import contextlib
import hashlib
import importlib.machinery
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
RUNS = 5
_TIMING_PREFIX = b'  "timing_ms": '

SCAN_DESCRIPTORS = {
    f"gauss-k{k}": f"surface=elliptic_bundle\ncurve=cm\norder=0 1\nbundle=split_torsion\nk={k}\npoint={point}\n"
    for k, point in ((5, "4 2"), (7, "1 0"), (13, "1 8"), (999_983, "1 0"))
}
# case: [descriptor, bound, *output flags]
SCAN_CASES = {
    "gauss-k5": ["gauss-k5", 10**6, "--json"],
    "gauss-k7": ["gauss-k7", 10**6, "--json"],
    "gauss-k7-text": ["gauss-k7", 10**6],
    "gauss-k5-1e7": ["gauss-k5", 10**7, "--json"],
    "gauss-k7-1e7": ["gauss-k7", 10**7, "--json"],
    "gauss-k13-1e7": ["gauss-k13", 10**7, "--json"],
    "gauss-k999983": ["gauss-k999983", 10**6, "--json"],
}
DENSITY_ORDERS = {"gauss": "0 1", "disc7": "1 2"}
DENSITY_BOUNDS = (10**6, 10**7)
CM_TABLE_MAX_NS = (10**4, 10**5)
# case: descriptor; CLASSIFY_FILES holds the files they name
CLASSIFY_DESCRIPTORS = {
    "abelian": "surface=abelian\n",
    "hyperelliptic": "surface=hyperelliptic\n",
    "kodaira-one": "surface=kodaira_one\n",
    "toric-hexagon": "surface=toric\nfan_file=hexagon.fan\n",
    **{
        shape.replace("_", "-"): f"surface=elliptic_bundle\ncurve=cm\norder=0 1\nbundle={shape}\n{extra}"
        for shape, extra in (
            ("split_torsion", "k=7\npoint=1 0\n"),
            ("split_nontorsion", ""),
            ("atiyah_deg0", ""),
            ("atiyah_deg1", ""),
            ("split_degree", "degree=-5\n"),
        )
    },
    "high-genus-trivial": "surface=high_genus_bundle\np=1\n",
    **{f"high-genus-{p * (p - 1)}": f"surface=high_genus_bundle\np={p}\ngroup_file=semidirect{p}.grp\n" for p in (7, 13)},
}
CLASSIFY_FILES = {
    "hexagon.fan": "1 0\n1 1\n0 1\n-1 0\n-1 -1\n0 -1\n",
    **{f"semidirect{p}.grp": f"semidirect_text({p})" for p in (7, 13)},
}
CLASSIFY_ROUNDS = 51
GROUP_P, GROUP_QS = 71, (71, 5)
SEMIDIRECT_P, SEMIDIRECT_QS = 97, (97, 2)

# Runs in the child: prints the seconds of each part and the result summary.
_SEMIDIRECT_SCRIPT = """
import json, time
from selfmaps.group_condition import build_semidirect, rho_bar_surjective
start = time.perf_counter()
group = build_semidirect({p})
built = time.perf_counter()
reports = [rho_bar_surjective(group, q) for q in {qs}]
done = time.perf_counter()
summary = [[r.p, r.holds, sorted(r.witnesses.items()), [list(s.image) for s in r.subgroup_reports]] for r in reports]
print(json.dumps({{"build_s": built - start, "rho_s": done - built, "summary": summary}}))
"""


def _describe(checkout: Path) -> str | None:
    """The checkout's commit, marked -dirty when tracked files other than BENCH_*.json differ from it.

    A suite run on the repository writes its record into a tracked
    BENCH_*.json, which must not mark the next suite's record dirty.
    """
    git = ["git", "-C", str(checkout)]
    commit = subprocess.run([*git, "describe", "--always"], capture_output=True, text=True).stdout.strip()
    if not commit:
        return None
    status = [*git, "status", "--porcelain", "--untracked-files=no", "--", ".", ":(exclude)BENCH_*.json"]
    changed = subprocess.run(status, capture_output=True, text=True).stdout.strip()
    return f"{commit}-dirty" if changed else commit


def _run_child(src: Path, name: str, argv: list[str], parse, env: dict | None = None) -> tuple[tuple[dict, str], int]:
    """parse(wall seconds, stdout) and peak RSS in kB of `python ARGV` against SRC, which must exit 0.

    stdout is the child's output as a binary file, read back from disk,
    so the runner holds only what parse keeps of it.  os.wait4 gives this
    child's own ru_maxrss; RUSAGE_CHILDREN would hold the largest of every
    child waited for so far, earlier cases included.  Linux carries the
    peak across fork and exec, so the figure is never below this
    process's own peak RSS: keep the runner smaller than what it measures.
    ENV is set in the child's environment on top of this process's.
    """
    env = dict(os.environ, PYTHONPATH=str(src), **(env or {}))
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        if status != 0:
            err.seek(0)
            raise SystemExit(f"{name} exited {os.waitstatus_to_exitcode(status)}: {err.read().decode()}")
        out.seek(0)
        return parse(wall, out), usage.ru_maxrss


def _runs(src: Path, name: str, argv: list[str], parse, env: dict | None = None) -> dict:
    """Medians, peak RSS and payload sha256 of `python ARGV` against SRC in RUNS fresh interpreters.

    parse(wall, stdout) gives a run's timed parts, in seconds, and the
    sha256 of its payload; every run must give the same payload.  The
    per-run seconds of the last part are kept as well as its median.
    """
    seconds, digests, peak_kb = {}, set(), 0
    for _ in range(RUNS):
        (parts, digest), rss_kb = _run_child(src, name, argv, parse, env)
        digests.add(digest)
        for part, s in parts.items():
            seconds.setdefault(part, []).append(s)
        peak_kb = max(peak_kb, rss_kb)
    if len(digests) != 1:
        raise SystemExit(f"{name} printed {len(digests)} different payloads")
    last = list(seconds)[-1]
    return {
        **{f"{part}_median": round(statistics.median(s), 4) for part, s in seconds.items()},
        f"{last}_runs": [round(s, 4) for s in seconds[last]],
        # Linux reports ru_maxrss in kB.
        "peak_rss_mb": round(peak_kb / 1024, 1),
        "payload_sha256": digests.pop(),
    }


def payload_sha256(stdout) -> str:
    """sha256 of a CLI report, a binary file, minus its first timing_ms line; read line by line."""
    digest = hashlib.sha256()
    lines = iter(stdout)
    for line in lines:
        if line.startswith(_TIMING_PREFIX) and line.endswith(b"\n"):
            break
        digest.update(line)
    for line in lines:
        digest.update(line)
    return digest.hexdigest()


def _wall_and_digest(wall: float, stdout) -> tuple[dict, str]:
    return {"wall_s": wall}, payload_sha256(stdout)


def cli_runs(src: Path, argv: list[str], env: dict | None = None) -> dict:
    """Median wall and peak RSS of `python -m selfmaps.cli ARGV` in RUNS fresh interpreters, ENV set in each."""
    return _runs(src, argv[0], ["-m", "selfmaps.cli", *argv], _wall_and_digest, env)


def _import_from(src: Path, module: str):
    """The selfmaps module MODULE of the package in SRC."""
    # the package is looked up in SRC alone, so this process's sys.path stays as it is
    spec = importlib.machinery.PathFinder.find_spec("selfmaps", [str(src)])
    sys.modules["selfmaps"] = package = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    return importlib.import_module(module)


def claim_seconds(src: Path) -> dict:
    """Median in-process seconds of each claim over RUNS calls of run_claims."""
    claims = _import_from(src, "selfmaps.claims")
    spent: dict[str, list[float]] = {}

    def timed(name, check):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return check(*args, **kwargs)
            finally:
                spent.setdefault(name, []).append(time.perf_counter() - start)

        return wrapper

    # run_claims looks the checks up as module globals on each call, so
    # replacing them here times every claim, exceptional-families included.
    for attr in [a for a in vars(claims) if a.startswith("_check_")]:
        claim = attr.removeprefix("_check_").replace("_", "-")
        setattr(claims, attr, timed(claim, getattr(claims, attr)))
    totals = []
    for _ in range(RUNS):
        start = time.perf_counter()
        results = claims.run_claims()
        totals.append(time.perf_counter() - start)
        if not all(r.passed for r in results):
            raise SystemExit("a claim failed: " + "; ".join(r.line for r in results if not r.passed))
    if set(spent) != {r.name for r in results}:
        raise SystemExit(f"timed {sorted(spent)}, but the battery ran {[r.name for r in results]}")
    return {
        "run_claims_s_median": round(statistics.median(totals), 4),
        "claims_s_median": {name: round(statistics.median(s), 4) for name, s in spent.items()},
    }


def write_semidirect(path: Path, p: int, seed: int = 0) -> None:
    """Table file of (a, u)(b, v) = (a + u*b, u*v), elements 1..n-1 relabeled.

    Written 64 rows at a time: a child's ru_maxrss starts from this
    process's own peak, so building the whole table here would hide the
    RSS of every case behind it.
    """
    import numpy as np

    n = p * (p - 1)
    label = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(n - 1)])
    # row r, column c of the relabeled table is label[table[old[r], old[c]]]
    old = np.argsort(label)
    a = old // (p - 1)
    u = old % (p - 1) + 1
    with path.open("w") as out:
        out.write(f"{n}\n")
        for start in range(0, n, 64):
            ra, ru = a[start : start + 64, None], u[start : start + 64, None]
            rows = label[((ra + ru * a) % p) * (p - 1) + (ru * u) % p - 1]
            out.writelines(" ".join(map(str, row)) + "\n" for row in rows.tolist())


def _semidirect_parts(wall: float, stdout) -> tuple[dict, str]:
    parts = json.loads(stdout.read())
    summary = json.dumps(parts.pop("summary"))
    return {**parts, "total_s": parts["build_s"] + parts["rho_s"]}, hashlib.sha256(summary.encode()).hexdigest()


# Each suite measures one CLI path; its CLI children run before anything it imports into this process.
def _verify_paper(src: Path, work: Path) -> dict:
    return {"cli": cli_runs(src, ["verify-paper", "--json"]), "in_process": claim_seconds(src)}


def _scan(src: Path, work: Path) -> dict:
    for name, text in SCAN_DESCRIPTORS.items():
        (work / f"{name}.desc").write_text(text)
    cases = {}
    for case, (name, bound, *flags) in SCAN_CASES.items():
        cases[case] = cli_runs(src, ["scan", str(work / f"{name}.desc"), "--bound", str(bound), *flags])
    return {"cases": cases}


def _density(src: Path, work: Path) -> dict:
    cases = {}
    for name, order in DENSITY_ORDERS.items():
        for bound in DENSITY_BOUNDS:
            argv = ["density", "--order", *order.split(), "--bound", str(bound), "--json"]
            cases[f"{name}-1e{len(str(bound)) - 1}"] = cli_runs(src, argv)
    return {"cases": cases}


def _cm_table(src: Path, work: Path) -> dict:
    cases = {f"max-n-1e{len(str(n)) - 1}": cli_runs(src, ["cm-table", "--max-n", str(n), "--json"]) for n in CM_TABLE_MAX_NS}
    return {"cases": cases}


def _group(src: Path, work: Path) -> dict:
    import numpy

    group = work / f"semidirect{GROUP_P}.grp"
    write_semidirect(group, GROUP_P)
    cases = {f"semidirect{GROUP_P}-p{q}": cli_runs(src, ["group-check", str(group), str(q), "--json"]) for q in GROUP_QS}
    script = _SEMIDIRECT_SCRIPT.format(p=SEMIDIRECT_P, qs=SEMIDIRECT_QS)
    cases[f"semidirect{SEMIDIRECT_P}"] = _runs(src, f"semidirect{SEMIDIRECT_P}", ["-c", script], _semidirect_parts)
    return {"numpy": numpy.__version__, "cases": cases}


def main_microseconds(src: Path, argvs: dict, cases: dict) -> dict:
    """Median in-process microseconds of cli.main per case, over CLASSIFY_ROUNDS interleaved rounds."""
    cli = _import_from(src, "selfmaps.cli")
    spent: dict[str, list[float]] = {case: [] for case in argvs}
    for round_ in range(CLASSIFY_ROUNDS + 1):
        for case, argv in argvs.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                start = time.perf_counter()
                code = cli.main(argv)
                seconds = time.perf_counter() - start
            if code != 0:
                raise SystemExit(f"{case} exited {code} in process")
            # the first round fills the one-time caches and is not timed
            if round_ == 0:
                if payload_sha256(io.BytesIO(out.getvalue().encode())) != cases[case]["payload_sha256"]:
                    raise SystemExit(f"{case} printed another payload in process")
            else:
                spent[case].append(seconds)
    return {"rounds": CLASSIFY_ROUNDS, "main_us_median": {case: round(statistics.median(s) * 1e6, 1) for case, s in spent.items()}}


def semidirect_text(p: int) -> str:
    """Table file of (a, u)(b, v) = (a + u*b, u*v), (a, u) numbered (p - 1)*a + u - 1.

    Pure Python, for small p: write_semidirect loads numpy, which would
    raise this process's peak RSS, and so every child's, above what the
    classify children use.
    """
    pairs = [(a, u) for a in range(p) for u in range(1, p)]
    rows = (" ".join(str((a + u * b) % p * (p - 1) + u * v % p - 1) for b, v in pairs) for a, u in pairs)
    return f"{len(pairs)}\n" + "".join(row + "\n" for row in rows)


def _classify(src: Path, work: Path) -> dict:
    (work / "hexagon.fan").write_text(CLASSIFY_FILES["hexagon.fan"])
    for p in (7, 13):
        (work / f"semidirect{p}.grp").write_text(semidirect_text(p))
    argvs = {}
    for case, text in CLASSIFY_DESCRIPTORS.items():
        (work / f"{case}.desc").write_text(text)
        argvs[case] = ["classify", str(work / f"{case}.desc"), "--json"]
    cases = {case: cli_runs(src, argv) for case, argv in argvs.items()}
    return {"cases": cases, "in_process": main_microseconds(src, argvs, cases)}


STARTUP_FILES = {
    "plane.fan": "1 0\n0 1\n-1 -1\n",
    "abelian.desc": "surface=abelian\n",
    "toric.desc": "surface=toric\nfan_file=plane.fan\n",
}
# case: argv, with the names of STARTUP_FILES standing for their paths
STARTUP_CASES = {
    "version": ["--version"],
    "toric-plane": ["toric", "plane.fan", "--json"],
    "classify-abelian": ["classify", "abelian.desc", "--json"],
    "classify-toric": ["classify", "toric.desc", "--json"],
    "verify-paper": ["verify-paper", "--json"],
}
STARTUP_MODES = {
    "source": "PYTHONDONTWRITEBYTECODE=1: every run compiles selfmaps from source, as in every older BENCH_*.json record",
    "bytecode": "PYTHONPYCACHEPREFIX=a temporary directory, filled by one untimed run of each case: every run reads bytecode",
}

# Runs in the child under -X importtime; prints how many dataclasses the imported selfmaps modules define.
_DATACLASS_COUNT_SCRIPT = """
import selfmaps.cli
import dataclasses, sys
modules = [(name, m) for name, m in list(sys.modules.items()) if name.startswith("selfmaps")]
print(sum(isinstance(v, type) and dataclasses.is_dataclass(v) and v.__module__ == name for name, m in modules for v in vars(m).values()))
"""


def import_split(src: Path, env: dict) -> dict:
    """Medians over RUNS fresh `-X importtime` imports of selfmaps.cli, in ms.

    Self time of each selfmaps module and their sum, the sum over every
    module the interpreter imported (site included), and numpy's
    cumulative time (0 when it was not imported).
    """
    env = dict(os.environ, PYTHONPATH=str(src), **env)
    runs, dataclass_counts = [], set()
    for _ in range(RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", _DATACLASS_COUNT_SCRIPT], capture_output=True, text=True, env=env
        )
        if proc.returncode != 0:
            raise SystemExit(f"importtime run exited {proc.returncode}: {proc.stderr}")
        dataclass_counts.add(int(proc.stdout))
        selfs, numpy_us = {}, 0
        for line in proc.stderr.splitlines()[1:]:
            own, cumulative, module = line.removeprefix("import time:").split("|")
            module = module.strip()
            selfs[module] = int(own)
            if module == "numpy":
                numpy_us = int(cumulative)
        modules = {m: us for m, us in selfs.items() if m.split(".")[0] == "selfmaps"}
        runs.append({"modules": modules, "selfmaps": sum(modules.values()), "total": sum(selfs.values()), "numpy": numpy_us})
    if len(dataclass_counts) != 1:
        raise SystemExit(f"the imported modules defined {sorted(dataclass_counts)} dataclasses")

    def median_ms(values) -> float:
        return round(statistics.median(values) / 1000, 2)

    selfmaps_ms, total_ms = median_ms([r["selfmaps"] for r in runs]), median_ms([r["total"] for r in runs])
    return {
        "selfmaps_self_ms_by_module": {m: median_ms([r["modules"].get(m, 0) for r in runs]) for m in runs[0]["modules"]},
        "selfmaps_self_ms": selfmaps_ms,
        "all_imports_self_ms": total_ms,
        "selfmaps_share": round(selfmaps_ms / total_ms, 3),
        "numpy_cumulative_ms": median_ms([r["numpy"] for r in runs]),
        "selfmaps_dataclasses": dataclass_counts.pop(),
    }


def _startup(src: Path, work: Path) -> dict:
    if (src / "selfmaps" / "__pycache__").exists():
        raise SystemExit(f"{src / 'selfmaps' / '__pycache__'} holds bytecode: measure a clean clone")
    for name, text in STARTUP_FILES.items():
        (work / name).write_text(text)
    argvs = {case: [str(work / a) if a in STARTUP_FILES else a for a in argv] for case, argv in STARTUP_CASES.items()}
    prefix = work / "pycache"
    envs = {
        "source": {"PYTHONDONTWRITEBYTECODE": "1"},
        # an empty PYTHONDONTWRITEBYTECODE lets the untimed first runs write the prefix
        "bytecode": {"PYTHONDONTWRITEBYTECODE": "", "PYTHONPYCACHEPREFIX": str(prefix)},
    }
    for argv in argvs.values():
        _run_child(src, "precompile", ["-m", "selfmaps.cli", *argv], _wall_and_digest, envs["bytecode"])
    return {
        "modes": {
            mode: {
                "cases": {case: cli_runs(src, argv, env) for case, argv in argvs.items()},
                "import_selfmaps_cli": import_split(src, env),
            }
            for mode, env in envs.items()
        }
    }


# suite: (default --out at the repository root, header keys of the BENCH file, (src, work dir) -> record keys)
SUITES = {
    "verify-paper": ("BENCH_verify_paper.json", {"command": "python -m selfmaps.cli verify-paper --json"}, _verify_paper),
    "scan": (
        "BENCH_scan.json",
        {
            "command": "python -m selfmaps.cli scan DESC --bound B [--json]",
            "descriptors": SCAN_DESCRIPTORS,
            "cases": SCAN_CASES,
        },
        _scan,
    ),
    "density": (
        "BENCH_density.json",
        {"command": "python -m selfmaps.cli density --order T N --bound B --json", "orders": DENSITY_ORDERS},
        _density,
    ),
    "cm-table": ("BENCH_cm_table.json", {"command": "python -m selfmaps.cli cm-table --max-n N --json"}, _cm_table),
    "group": (
        "BENCH_group.json",
        {
            "command": f"python -m selfmaps.cli group-check GROUP P --json (order {GROUP_P * (GROUP_P - 1)})",
            "in_process": f"build_semidirect({SEMIDIRECT_P}), then rho_bar_surjective at q in {list(SEMIDIRECT_QS)}",
        },
        _group,
    ),
    "classify": (
        "BENCH_classify.json",
        {"command": "python -m selfmaps.cli classify DESC --json", "descriptors": CLASSIFY_DESCRIPTORS, "files": CLASSIFY_FILES},
        _classify,
    ),
    "startup": (
        "BENCH_startup.json",
        {"command": "python -m selfmaps.cli ARGV", "files": STARTUP_FILES, "cases": STARTUP_CASES, "modes": STARTUP_MODES},
        _startup,
    ),
}


def write_record(out: Path, label: str, header: dict, record: dict) -> None:
    """Set the header keys and runs[label] = record in the BENCH file OUT, keeping its other runs."""
    bench = json.loads(out.read_text()) if out.exists() else {}
    bench.update(header)
    bench.setdefault("runs", {})[label] = record
    out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("suite", choices=SUITES)
    parser.add_argument("--label", required=True, help="key of this measurement under runs")
    parser.add_argument("--checkout", type=Path, default=REPO, help="checkout whose src/ is timed")
    parser.add_argument("--out", type=Path, help="BENCH file to add to (default: the suite's, at the repository root)")
    args = parser.parse_args()
    out, header, measure = SUITES[args.suite]
    with tempfile.TemporaryDirectory() as work:
        measured = measure(args.checkout.resolve() / "src", Path(work))
    host = {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        # the CPUs this process may run on: group_condition splits its
        # largest table passes over two threads, so the group figures
        # depend on it
        "cpus_available": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
    }
    record = {"checkout": _describe(args.checkout), "host": host, "runs": RUNS, **measured}
    write_record(args.out or REPO / out, args.label, header, record)
    print(json.dumps({args.label: record}, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
