"""Closed-loop runner for one workload, started in a fresh interpreter.

Usage: worker.py OPS_JSON OUT_DIR SECONDS TRACE

Runs the round of ops in OPS_JSON again and again, one op at a time
with no other thread, until the next round would end after SECONDS.
The first round always runs; with TRACE=1 rounds alternate untraced
and traced, starting untraced, and at least one of each runs.  Each op's
stdout is captured; the first output of every op is written to OUT_DIR
for checking, and every output's sha256 (payload minus timing_ms) is
recorded so that repeats can be compared with it.  A SpeedProbe times
a fixed slice of work every 0.1 s throughout.  Results, including the
probes and this process's peak RSS, go to OUT_DIR/result.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import resource
import signal
import sys
import time
from pathlib import Path

_TIMING_LINE = re.compile(r'^  "timing_ms": [^\n]*\n', re.MULTILINE)


def digest(text: str) -> str:
    """sha256 of a --json payload without its timing_ms line."""
    return hashlib.sha256(_TIMING_LINE.sub("", text, count=1).encode()).hexdigest()


def _rho_payload(report, order: int) -> dict:
    """The group-check details of one rho_bar_surjective report."""
    return {
        "group_order": order,
        "p": report.p,
        "holds": report.holds,
        "subgroups": [
            {"generator": s.subgroup.generator, "image": list(s.image), "covered": s.covered}
            for s in report.subgroup_reports
        ],
        "witnesses": {str(r): list(w) for r, w in sorted(report.witnesses.items())},
    }


def probe_once() -> float:
    """Seconds for a fixed pure-Python loop on small (cached) ints.

    It allocates nothing and touches almost no memory, so the program's
    heap and cache state barely change its time; what changes it is how
    fast the shared host runs this process right now.
    """
    start = time.perf_counter()
    x = 1
    for _ in range(12_000):
        x = (x * 5 + 3) & 255
    return time.perf_counter() - start


class SpeedProbe:
    """Samples probe_once all run long.

    An interval timer interrupts the process every PROBE_EVERY_S to take
    a sample.  The handler runs between bytecodes, so long ops are sampled
    from inside; the time spent in probes is subtracted from the op that
    contained it.
    """

    PROBE_EVERY_S = 0.1

    def __init__(self):
        self.samples = []  # (start, seconds)
        self.spent = 0.0

    def _probe(self, _signum, _frame):
        start = time.perf_counter()
        took = probe_once()
        self.samples.append((start, took))
        self.spent += took

    def start(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.PROBE_EVERY_S, self.PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_cli(selfmaps_cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = selfmaps_cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad argv by exiting
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_lib(group_condition, p, qs):
    """build_semidirect(p), which validates, then rho_bar_surjective at each q."""
    group = group_condition.build_semidirect(p)
    return group.order, [group_condition.rho_bar_surjective(group, q) for q in qs]


def main() -> int:
    ops_path, out_dir, seconds, trace = sys.argv[1], Path(sys.argv[2]), float(sys.argv[3]), sys.argv[4] == "1"
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import numpy
    import selfmaps.cli
    from selfmaps import group_condition

    if Path(selfmaps.cli.__file__).resolve().parent != (src / "selfmaps").resolve():
        print(f"error: imported selfmaps from {selfmaps.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    ops = json.loads(Path(ops_path).read_text())
    samples = []  # [op id, round, traced, seconds, exit code, digest, start, end]
    probe = SpeedProbe()
    probe.start()
    layers = []  # per traced round
    errors = {}
    rounds, began, last_round = 0, time.perf_counter(), 0.0
    while True:
        elapsed = time.perf_counter() - began
        enough = rounds >= (2 if trace else 1)
        if enough and elapsed + last_round > seconds:
            break
        traced = trace and rounds % 2 == 1
        if traced:
            tracer.install()
        round_start = time.perf_counter()
        stdout_bytes = 0
        for op in ops:
            if traced:
                tracer.op = op["id"]
            op_start, probed = time.perf_counter(), probe.spent
            if "lib" in op:
                order, reports = run_lib(group_condition, op["lib"]["p"], op["lib"]["qs"])
            else:
                code, text, err = run_cli(selfmaps.cli, op["argv"])
            op_end = time.perf_counter()
            took = op_end - op_start - (probe.spent - probed)
            if "lib" in op:
                text = json.dumps([_rho_payload(r, order) for r in reports], sort_keys=True)
                code, err, sha = 0, "", hashlib.sha256(text.encode()).hexdigest()
                del reports
            else:
                stdout_bytes += len(text.encode())
                sha = digest(text)
            if rounds == 0:
                (out_dir / f"{op['id']}.out").write_text(text)
            if err:
                errors.setdefault(op["id"], err[-2000:])
            samples.append([op["id"], rounds, traced, took, code, sha, op_start, op_end])
        last_round = time.perf_counter() - round_start
        if traced:
            tracer.uninstall()
            layers.append(tracer.end_round(rounds, stdout_bytes))
        rounds += 1
    probe.stop()
    if tracer is not None:
        tracer.write(out_dir / "spans.jsonl")
    result = {
        "samples": samples,
        "probes": probe.samples,
        "layers": layers,
        "rounds": rounds,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    (out_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
