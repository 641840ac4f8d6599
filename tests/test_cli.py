import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from math import gcd
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import scan_witnesses

import selfmaps
from selfmaps import cli, elliptic_pbundle, group_condition, qorders, toric
from selfmaps.cli import (
    CM_TABLE_MAX_N_CAP,
    EXIT_CLOSED_PIPE,
    SIEVE_BOUND_CAP,
    DescriptorError,
    main,
    parse_descriptor_text,
)
from selfmaps.elliptic_pbundle import ISOGENY, NO_ROUTE, SCAN_BOUND_CAP, ScanReport
from selfmaps.group_condition import build_cyclic, build_semidirect
from selfmaps.toric import INPUT_BYTE_CAP, read_capped_text
from selfmaps.qorders import OrderParams, QuadElem
from selfmaps.verdicts import AutRoute, IsogenyRoute, TorsionMultiple, witness_to_payload

EXC_DESCRIPTOR = """\
# order-5 kernel point on the square-lattice curve
surface=elliptic_bundle
curve=cm
order=0 1
bundle=split_torsion
k=5
point=1 2
"""

PLANE_FAN = "1 0\n0 1\n-1 -1\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def group_file(tmp_path, name, group):
    rows = [
        " ".join(str(int(group.table[i, j])) for j in range(group.order))
        for i in range(group.order)
    ]
    return write(tmp_path, name, f"{group.order}\n" + "\n".join(rows) + "\n")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    """The environment of a child process that imports this selfmaps."""
    src = str(Path(selfmaps.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_child(*argv, timeout):
    """The CLI in a child process, which the timeout stops if it hangs."""
    return subprocess.run(
        [sys.executable, "-m", "selfmaps.cli", *argv], capture_output=True, env=child_env(), timeout=timeout
    )


def test_parse_descriptor_text():
    fields = parse_descriptor_text("# hi\nsurface=abelian\n\n")
    assert fields == {"surface": "abelian"}
    with pytest.raises(DescriptorError, match="surface"):
        parse_descriptor_text("curve=nocm\n")
    with pytest.raises(DescriptorError, match="line 2"):
        parse_descriptor_text("surface=toric\nnonsense\n")
    with pytest.raises(DescriptorError, match="duplicate"):
        parse_descriptor_text("surface=abelian\nsurface=abelian\n")


def test_classify_exceptional_descriptor(tmp_path, capsys):
    desc = write(tmp_path, "exc.desc", EXC_DESCRIPTOR)
    code, out, _ = run_cli(capsys, "classify", desc)
    assert code == 0
    assert "verdict: all degrees" in out
    assert "residue 1:" in out and "prime 5:" in out


def test_classify_simple_surfaces(tmp_path, capsys):
    for surface in ("abelian", "hyperelliptic", "kodaira_one"):
        desc = write(tmp_path, f"{surface}.desc", f"surface={surface}\n")
        code, out, _ = run_cli(capsys, "classify", desc)
        assert code == 0
        assert "infinitely many missing" in out


def test_classify_toric_descriptor_with_relative_fan(tmp_path, capsys):
    write(tmp_path, "plane.fan", PLANE_FAN)
    desc = write(tmp_path, "t.desc", "surface=toric\nfan_file=plane.fan\n")
    code, out, _ = run_cli(capsys, "classify", desc)
    assert code == 0
    assert "squares only" in out


def test_classify_json_payload_roundtrips(tmp_path, capsys):
    desc = write(tmp_path, "exc.desc", EXC_DESCRIPTOR)
    code, out, _ = run_cli(capsys, "classify", desc, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["verdict"]["kind"] == "all_degrees"
    # the parsed payload, written again, is the same text
    assert cli._json_value(payload, 0) + "\n" == out


def test_classify_input_errors(tmp_path, capsys):
    cases = (
        "surface=elliptic_bundle\ncurve=cm\norder=0 1\nbundle=split_torsion\nk=5\npoint=1 2\ntypo=1\n",
        "surface=elliptic_bundle\ncurve=nocm\nbundle=split_torsion\nk=5\n",
        "surface=elliptic_bundle\ncurve=cm\norder=zero 1\nbundle=split_nontorsion\n",
        "surface=high_genus_bundle\np=6\ngroup_file=g.grp\n",
        "surface=martian\n",
    )
    for i, text in enumerate(cases):
        desc = write(tmp_path, f"bad{i}.desc", text)
        code, _, err = run_cli(capsys, "classify", desc)
        assert code == 2, text
        assert err.startswith("error:")
    code, _, err = run_cli(capsys, "classify", str(tmp_path / "absent.desc"))
    assert code == 2


def test_classify_high_genus_descriptor(tmp_path, capsys):
    grp = group_file(tmp_path, "sd5.grp", build_semidirect(5))
    desc = write(tmp_path, "hg.desc", "surface=high_genus_bundle\np=5\ngroup_file=sd5.grp\n")
    code, out, _ = run_cli(capsys, "classify", desc)
    assert code == 0
    assert "verdict: all degrees" in out

    grp7 = group_file(tmp_path, "c7.grp", build_cyclic(7))
    desc = write(tmp_path, "hg7.desc", "surface=high_genus_bundle\np=7\ngroup_file=c7.grp\n")
    code, out, _ = run_cli(capsys, "classify", desc, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["kind"] == "infinitely_many_missing"
    # image is {1}, so only residues 1 and 6 are reachable
    assert all(p % 7 in (2, 3, 4, 5) for p in payload["verdict"]["missing_examples"])
    assert payload["verdict"]["missing_examples"][0] == 2


def test_high_genus_missing_examples_stay_under_bound(tmp_path, capsys):
    group_file(tmp_path, "c7.grp", build_cyclic(7))
    desc = write(tmp_path, "hg7.desc", "surface=high_genus_bundle\np=7\ngroup_file=c7.grp\n")
    for bound, examples in ((1, []), (2, [2]), (12, [2, 3, 5, 11])):
        code, out, _ = run_cli(capsys, "classify", desc, "--bound", str(bound), "--json")
        assert code == 0
        assert json.loads(out)["verdict"]["missing_examples"] == examples


def test_scan_table(tmp_path, capsys):
    desc = write(tmp_path, "exc.desc", EXC_DESCRIPTOR)
    code, out, _ = run_cli(capsys, "scan", desc, "--bound", "30", "--json")
    assert code == 0
    payload = json.loads(out)
    rows = payload["details"]["rows"]
    assert [row["prime"] for row in rows] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert all(row["achievable"] for row in rows)
    assert payload["details"]["missing"] == []
    assert rows[2]["witness"] == {"route": "torsion_multiple", "k": 5}


def test_scan_empty_below_first_prime(tmp_path, capsys):
    desc = write(tmp_path, "exc.desc", EXC_DESCRIPTOR)
    code, out, _ = run_cli(capsys, "scan", desc, "--bound", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["details"]["rows"] == []
    assert payload["details"]["missing"] == []


def test_scan_rejects_nontorsion_descriptor(tmp_path, capsys):
    desc = write(
        tmp_path, "nt.desc", "surface=elliptic_bundle\ncurve=nocm\nbundle=split_nontorsion\n"
    )
    code, _, err = run_cli(capsys, "scan", desc)
    assert code == 2
    assert "split_torsion" in err


def test_scan_bound_above_cap_is_an_input_error(tmp_path, capsys):
    desc = write(tmp_path, "exc.desc", EXC_DESCRIPTOR)
    code, out, err = run_cli(capsys, "scan", desc, "--bound", str(SCAN_BOUND_CAP + 1))
    assert code == 2 and out == ""
    assert err == f"error: bound {SCAN_BOUND_CAP + 1} is above the scan cap {SCAN_BOUND_CAP}\n"


@pytest.mark.parametrize("curve", ["curve=nocm", "curve=cm\norder=0 1"], ids=["nocm", "gauss"])
def test_split_torsion_at_a_huge_level_exits_within_2s(tmp_path, curve):
    # the unit -1 pulls back by m = k - 1, which a search over m in
    # range(k) reaches only after k steps
    k = 10**12 + 39
    desc = write(tmp_path, "big.desc", f"surface=elliptic_bundle\n{curve}\nbundle=split_torsion\nk={k}\npoint=1 0\n")
    for argv in (["scan", desc, "--bound", "100"], ["classify", desc]):
        proc = run_child(*argv, timeout=2)
        assert proc.returncode == 0, proc.stderr


# 2**61 - 1 is prime; trial division up to its square root never finished
MERSENNE_61 = 2**61 - 1


def test_huge_prime_inputs_finish_within_5s(tmp_path):
    grp = write(tmp_path, "z2.grp", "2\n0 1\n1 0\n")
    proc = run_child("group-check", grp, str(MERSENNE_61), "--json", timeout=5)
    assert proc.returncode == 0, proc.stderr
    details = json.loads(proc.stdout)["details"]
    assert (details["holds"], details["subgroups"]) == (False, [])

    desc = write(tmp_path, "hg.desc", f"surface=high_genus_bundle\np={MERSENNE_61}\ngroup_file=z2.grp\n")
    proc = run_child("classify", desc, timeout=5)
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr == f"error: group of order 2 has no cyclic subgroup of order {MERSENNE_61}\n".encode()

    # the wall relation gives the fourth ray self-intersection -n
    n = MERSENNE_61
    fan = write(tmp_path, "five.fan", f"1 0\n0 1\n-1 {n}\n-1 {n - 1}\n0 -1\n")
    proc = run_child("toric", fan, "--json", timeout=5)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"]["candidates"] == [n]


def _padded(text, size):
    """text and then one comment line, size bytes in all."""
    return text + "#" + "x" * (size - len(text) - 2) + "\n"


@pytest.mark.parametrize("target", ["descriptor", "fan", "fan-of-descriptor"])
def test_input_files_above_the_byte_cap_are_refused(tmp_path, capsys, target):
    # real files, one exactly at the cap and one a byte above it
    for size in (INPUT_BYTE_CAP, INPUT_BYTE_CAP + 1):
        if target == "descriptor":
            path = write(tmp_path, "big.desc", _padded("surface=abelian\n", size))
            argv = ["classify", path]
        else:
            path = write(tmp_path, "big.fan", _padded(PLANE_FAN, size))
            argv = ["toric", path]
            if target == "fan-of-descriptor":
                argv = ["classify", write(tmp_path, "t.desc", "surface=toric\nfan_file=big.fan\n")]
        assert os.path.getsize(path) == size
        code, out, err = run_cli(capsys, *argv)
        if size == INPUT_BYTE_CAP:
            assert code == 0 and err == ""
        else:
            assert code == 2 and out == ""
            assert err == f"error: {path} is larger than the input cap of {INPUT_BYTE_CAP} bytes\n"


@pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
def test_scan_into_closed_pipe_exits_141_without_traceback(tmp_path, mode):
    # `selfmaps scan ... | head -1`: at bound 10^5 the report (about 340 kB
    # of text, 1.7 MB of JSON) far exceeds a pipe buffer, so writing it
    # fails once the reader has closed its end
    desc = write(
        tmp_path,
        "k7.desc",
        "surface=elliptic_bundle\ncurve=cm\norder=0 1\nbundle=split_torsion\nk=7\npoint=1 0\n",
    )
    with open(tmp_path / "stderr", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "selfmaps.cli", "scan", desc, "--bound", "100000", *mode],
            stdout=subprocess.PIPE,
            stderr=err,
            env=child_env(),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=120)
    assert first.strip() in (b"{", b"scan of k=7 descriptor up to 100000")
    assert code == EXIT_CLOSED_PIPE == 141
    assert (tmp_path / "stderr").read_bytes() == b""


K7_DESCRIPTOR = "surface=elliptic_bundle\ncurve=cm\norder=0 1\nbundle=split_torsion\nk=7\npoint=1 0\n"


@pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
def test_scan_of_several_chunks_into_closed_pipe_exits_141_without_traceback(tmp_path, mode):
    # at bound 10^6 the report (about 3.4 MB of text, 17 MB of JSON) is
    # 157,000 pieces, so the pipe closes while chunks are still to come
    desc = write(tmp_path, "k7.desc", K7_DESCRIPTOR)
    with open(tmp_path / "stderr", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "selfmaps.cli", "scan", desc, "--bound", "1000000", *mode],
            stdout=subprocess.PIPE,
            stderr=err,
            env=child_env(),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=120)
    assert first.strip() in (b"{", b"scan of k=7 descriptor up to 1000000")
    assert code == EXIT_CLOSED_PIPE == 141
    assert (tmp_path / "stderr").read_bytes() == b""


@pytest.mark.parametrize(
    "mode, target",
    # the JSON report writes timing_ms after its rows, and the text report
    # builds its rows after its first line
    [(("--json",), "_float_text"), ((), "_row_pieces")],
    ids=["json", "text"],
)
def test_internal_error_while_the_pieces_are_built_writes_nothing(tmp_path, capsys, monkeypatch, mode, target):
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, target, boom)
    # one piece a chunk: any piece written before the error would show
    monkeypatch.setattr(cli, "_CHUNK_PIECES", 1)
    desc = write(tmp_path, "k7.desc", K7_DESCRIPTOR)
    code, out, err = run_cli(capsys, "scan", desc, "--bound", "3000", *mode)
    assert code == cli.EXIT_INTERNAL_ERROR == 3 and out == ""
    assert err == "error: internal: RuntimeError('boom')\n"


# Address-space budget of `scan --bound 10**7 --json` on the Gauss order,
# with one OpenBLAS thread: README, "Memory budgets".
SCAN_AS_BUDGET_KB = 300_000


@pytest.mark.parametrize(
    "k, point, size",
    # k = 5 prints the largest report: 664,579 rows, every one with its
    # witness (209 MB); k = 13 has the largest peak RSS, with 147,585
    # isogeny rows, each with a piece of its own (151 MB)
    [(5, "4 2", 2 * 10**8), (13, "1 8", 1.5 * 10**8)],
    ids=["k5", "k13"],
)
def test_scan_at_the_bound_cap_runs_within_its_memory_budget(tmp_path, k, point, size):
    desc = write(tmp_path, f"k{k}.desc", K7_DESCRIPTOR.replace("k=7\npoint=1 0", f"k={k}\npoint={point}"))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (SCAN_AS_BUDGET_KB * 1024,) * 2)

    proc = subprocess.Popen(
        [sys.executable, "-m", "selfmaps.cli", "scan", desc, "--bound", str(SCAN_BOUND_CAP), "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(child_env(), OPENBLAS_NUM_THREADS="1"),
        preexec_fn=limit,
    )
    written, tail = 0, b""
    for block in iter(lambda: proc.stdout.read(1 << 20), b""):
        written, tail = written + len(block), (tail + block)[-64:]
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 0 and err == b""
    assert written > size and tail.endswith(b'\n  "verdict": null\n}\n')


def _row_dicts(witnesses):
    """Scan rows as the list of dicts scan once built per prime: the reference."""
    rows = []
    for p, witness in witnesses.items():
        if witness is None:
            rows.append({"prime": p, "achievable": False, "reason": "no route"})
        else:
            route = cli._witness_text(witness)
            rows.append({"prime": p, "achievable": True, "route": route, "witness": witness_to_payload(witness)})
    return rows


def _rendered_rows(d, rows):
    """The text lines scan once rendered from the row dicts."""
    lines = [f"scan of k={d['k']} descriptor up to {d['bound']}"]
    for row in rows:
        mark = "yes" if row["achievable"] else "no "
        route = row.get("route", row.get("reason", ""))
        lines.append(f"  {row['prime']:>6}  {mark}  {route}")
    lines.append(f"achievable: {d['achievable_count']}, missing: {d['missing_count']}")
    if d["missing"]:
        lines.append("missing primes: " + ", ".join(str(p) for p in d["missing"]))
    return lines


def assert_scan_matches_row_dicts(path, bound):
    """`scan --json` prints json.dumps of the row dicts, and text mode their old lines."""
    e = cli.load_descriptor(path).elliptic
    witnesses = scan_witnesses(elliptic_pbundle.scan_primes(e, bound)) if bound >= 2 else {}
    rows = _row_dicts(witnesses)
    missing = [row["prime"] for row in rows if not row["achievable"]]
    details = {
        "bound": bound,
        "k": e.bundle.k,
        "point": list(e.bundle.point.v),
        "curve": repr(e.curve),
        "rows": rows,
        "missing": missing,
        "achievable_count": len(rows) - len(missing),
        "missing_count": len(missing),
    }
    for mode in (["--json"], []):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["scan", str(path), "--bound", str(bound), *mode]) == 0
        if mode:
            # the report's other keys, timing_ms included, are taken as printed
            payload = json.loads(out.getvalue())
            payload["details"] = details
            assert out.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        else:
            assert out.getvalue() == "\n".join(_rendered_rows(details, rows)) + "\n"


SCAN_CURVES = ["curve=nocm"] + [f"curve=cm\norder={t} {n}" for t, n in ((0, 1), (1, 1), (0, 2), (1, 2), (0, 5), (0, 6))]


@st.composite
def scan_cli_cases(draw):
    curve = draw(st.sampled_from(SCAN_CURVES))
    k = draw(st.integers(1, 13))
    points = [(a, b) for a in range(k) for b in range(k) if gcd(gcd(a, b), k) == 1]
    bound = draw(st.sampled_from((0, 1, 2, 3)) | st.integers(2, 20_000))
    return curve, k, draw(st.sampled_from(points)), bound


@settings(max_examples=40, deadline=None)
@given(scan_cli_cases())
# torsion, automorphism and isogeny routes and missing primes in one scan
@example(("curve=cm\norder=0 1", 13, (1, 8), 20_000))
@example(("curve=nocm", 1, (0, 0), 3))
def test_scan_output_matches_row_dicts(tmp_path_factory, case):
    curve, k, v, bound = case
    path = tmp_path_factory.mktemp("scan") / "st.desc"
    path.write_text(f"surface=elliptic_bundle\n{curve}\nbundle=split_torsion\nk={k}\npoint={v[0]} {v[1]}\n")
    assert_scan_matches_row_dicts(path, bound)


def test_scan_route_text_with_percent_and_nul(tmp_path, monkeypatch):
    # route texts hold only digits, signs and fixed words, so none has a %,
    # a NUL or a brace; the row texts must not depend on that.  Isogeny
    # routes take their text from _isogeny_text, the others from _witness_text
    isogeny_text, witness_text = cli._isogeny_text, cli._witness_text
    monkeypatch.setattr(cli, "_isogeny_text", lambda x, y, sign: "%s %d %% \x00 {{}} " + isogeny_text(x, y, sign))
    monkeypatch.setattr(
        cli, "_witness_text", lambda w: witness_text(w) if isinstance(w, IsogenyRoute) else "%s %d %% \x00 {} " + witness_text(w)
    )
    path = tmp_path / "k13.desc"
    path.write_text("surface=elliptic_bundle\ncurve=cm\norder=0 1\nbundle=split_torsion\nk=13\npoint=1 8\n")
    assert_scan_matches_row_dicts(path, 3000)


@pytest.mark.parametrize(
    "target, exc, message",
    [("_cmd_cm_table", RuntimeError, "RuntimeError('boom')"), ("_render_cm_table", ValueError, "ValueError('boom')")],
    ids=["handler", "renderer"],
)
def test_internal_error_exits_3_with_one_stderr_line(capsys, monkeypatch, target, exc, message):
    # a ValueError out of the renderer is a fault of the program, not bad input
    def boom(*args):
        raise exc("boom")

    monkeypatch.setattr(cli, target, boom)
    code, out, err = run_cli(capsys, "cm-table")
    assert code == cli.EXIT_INTERNAL_ERROR == 3 and out == ""
    assert err == f"error: internal: {message}\n"


@pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
def test_interrupt_and_exit_are_not_internal_errors(monkeypatch, exc):
    def stop(args):
        raise exc()

    monkeypatch.setattr(cli, "_cmd_cm_table", stop)
    with pytest.raises(exc):
        main(["cm-table", "--json"])


def test_internal_error_in_a_subprocess_prints_no_traceback():
    script = (
        "import sys\n"
        "from selfmaps import cli\n"
        "def boom(args):\n"
        "    raise RuntimeError('boom')\n"
        "cli._cmd_cm_table = boom\n"
        "sys.exit(cli.main(['cm-table', '--json']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=child_env(), timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert proc.stderr == b"error: internal: RuntimeError('boom')\n"
    assert b"Traceback" not in proc.stderr


# quotes, backslashes, control characters, non-ASCII and astral code points
TRICKY_TEXT = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600ab%{}'), max_size=6
) | st.text(max_size=6)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200).flatmap(lambda n: st.sampled_from((n, -n)))
    | st.floats()
    | st.sampled_from((-0.0, 0.0, float("inf"), float("-inf"), float("nan"), 1e300, 5e-324))
    | TRICKY_TEXT
)


def _json_values(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.lists(st.integers(), max_size=5)
        | st.dictionaries(TRICKY_TEXT, children, max_size=4)
    )


QUAD_ELEMS = st.builds(
    QuadElem, st.builds(OrderParams, st.sampled_from((0, 1)), st.integers(1, 10)), st.integers(-9, 9), st.integers(-9, 9)
)
RESIDUE_WITNESSES = (
    st.none()
    | st.builds(TorsionMultiple, st.integers(1, 13))
    | st.builds(AutRoute, QUAD_ELEMS, st.integers(0, 12))
)
INT64_COORDS = st.integers(-(2**62), 2**62)


def scan_report(witnesses):
    """scan's rows value for the ScanReport of a {prime: witness} dict whose IsogenyRoutes share one order."""
    routes = (None, *dict.fromkeys(w for w in witnesses.values() if type(w) not in (IsogenyRoute, type(None))))
    slots = [ISOGENY if type(w) is IsogenyRoute else NO_ROUTE if w is None else routes.index(w) for w in witnesses.values()]
    isogenies = [w for w in witnesses.values() if type(w) is IsogenyRoute]
    columns = ([w.alpha.x for w in isogenies], [w.alpha.y for w in isogenies], [w.sign for w in isogenies])
    order = isogenies[0].alpha.order if isogenies else None
    report = ScanReport(
        np.array(list(witnesses), dtype=np.int64),
        np.array(slots, dtype=np.int8),
        routes,
        order,
        tuple(np.array(column, dtype=np.int64) for column in columns),
    )
    return cli._ScanRows(report, [str(p) for p in witnesses])


@st.composite
def scan_reports(draw):
    """Small ScanReports: residue routes that one witness may stand for several primes of, isogeny rows and missing rows.

    Some have every row missing, or none.
    """
    pool = draw(st.lists(RESIDUE_WITNESSES, min_size=1, max_size=3))
    order = draw(st.builds(OrderParams, st.sampled_from((0, 1)), st.integers(1, 10**30)))
    isogenies = st.builds(IsogenyRoute, st.builds(QuadElem, st.just(order), INT64_COORDS, INT64_COORDS), st.sampled_from((1, -1)))
    kind = draw(st.sampled_from(["mixed", "all missing", "none missing"]))
    if kind == "all missing":
        witnesses = st.none()
    else:
        residues = pool if kind == "mixed" else [w for w in pool if w is not None]
        witnesses = st.sampled_from(residues) | isogenies if residues else isogenies
    primes = sorted(draw(st.lists(st.integers(2, 10**6), unique=True, max_size=6)))
    return scan_report({p: draw(witnesses) for p in primes})


def scan_details(rows):
    """A dict holding scan's rows and the texts of their missing primes, as scan's details do."""
    missing = rows.report.missing
    return {"missing": cli._PrimeTexts(map(str, missing)), "missing_count": len(missing), "rows": rows}


def _with_row_dicts(o):
    """o with scan's rows replaced by their list of row dicts, and prime texts by their ints: what json.dumps must write."""
    if type(o) is cli._ScanRows:
        return [{**cli._scan_row(w), "prime": p} for p, w in scan_witnesses(o.report).items()]
    if type(o) is cli._PrimeTexts:
        return list(map(int, o))
    if type(o) is dict:
        return {key: _with_row_dicts(value) for key, value in o.items()}
    if type(o) in (list, tuple):
        return [_with_row_dicts(item) for item in o]
    return o


def assert_writes_like_json_dumps(payload):
    assert cli._json_value(payload, 0) == json.dumps(_with_row_dicts(payload), indent=2, sort_keys=True)


PAYLOADS = st.recursive(SCALARS | scan_reports() | scan_reports().map(scan_details), _json_values, max_leaves=25)
_SHARED_AUT = AutRoute(QuadElem(OrderParams(0, 1), 0, -1), 2)
_ISOGENIES = [IsogenyRoute(QuadElem(OrderParams(0, 1), x, y), sign) for x, y, sign in ((1, 2, 1), (-3, 0, -1), (2**62, -(2**62), 1))]


@settings(max_examples=400, deadline=None)
@given(PAYLOADS)
@example({})
@example([])
@example({"a": {}, "b": [[], {}], "c": ((),)})
@example({"": [-0.0, float("inf"), float("-inf"), float("nan")]})
@example([2**64, -(2**100), True, False, None])
@example(scan_report({}))
@example([{"rows": scan_report({2: _SHARED_AUT, 3: None, 5: TorsionMultiple(5), 7: _SHARED_AUT})}, scan_report({2: None})])
# an isogeny row first and last, and between rows of other kinds
@example(scan_details(scan_report({2: _ISOGENIES[0], 3: None, 5: _ISOGENIES[1], 7: _SHARED_AUT, 11: None, 13: _ISOGENIES[2]})))
@example(scan_report({2: _ISOGENIES[0], 3: _ISOGENIES[1], 5: _ISOGENIES[2]}))
# one row of each kind
@example([scan_details(scan_report({p: w})) for p, w in ((2, None), (3, TorsionMultiple(3)), (5, _SHARED_AUT), (7, _ISOGENIES[0]))])
# every row missing, and none
@example(scan_details(scan_report({2: None, 3: None, 5: None, 7: None})))
@example(scan_details(scan_report({2: TorsionMultiple(1), 3: _ISOGENIES[1], 5: _SHARED_AUT, 7: _SHARED_AUT})))
@example(scan_details(scan_report({})))
def test_json_writer_matches_json_dumps_indent2(payload):
    assert_writes_like_json_dumps(payload)


@settings(max_examples=200, deadline=None)
@given(PAYLOADS, st.integers(1, 7))
@example(scan_details(scan_report({2: _ISOGENIES[0], 3: None, 5: _ISOGENIES[1], 7: _SHARED_AUT, 11: None, 13: _ISOGENIES[2]})), 1)
def test_report_written_in_chunks_is_the_json_text(payload, chunk):
    # a chunk of 1 to 7 pieces ends at every kind of piece
    pieces = []
    cli._json_pieces(payload, 0, pieces)
    out = io.StringIO()
    with mock.patch.object(cli, "_CHUNK_PIECES", chunk), contextlib.redirect_stdout(out):
        cli._write_report(pieces)
    assert out.getvalue() == json.dumps(_with_row_dicts(payload), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("chunk", range(1, 8))
def test_scan_written_in_chunks_matches_row_dicts(tmp_path, chunk):
    # both report modes, with torsion, automorphism and isogeny rows and missing primes
    path = tmp_path / "k13.desc"
    path.write_text("surface=elliptic_bundle\ncurve=cm\norder=0 1\nbundle=split_torsion\nk=13\npoint=1 8\n")
    with mock.patch.object(cli, "_CHUNK_PIECES", chunk):
        assert_scan_matches_row_dicts(path, 400)


@given(PAYLOADS)
@settings(max_examples=200, deadline=None)
def test_json_writer_shared_subobject_at_two_depths(shared):
    assert_writes_like_json_dumps({"a": shared, "b": [shared, {"c": shared, "d": [shared]}], "e": shared})


class _Tag(str):
    pass


@pytest.mark.parametrize(
    "payload", [{"a": {1, 2}}, [object()], {"k": b"bytes"}, {1: "int key"}, {"a": [_Tag("x")]}]
)
def test_json_writer_rejects_what_payloads_never_hold(payload):
    with pytest.raises(TypeError):
        cli._json_value(payload, 0)


def test_density_with_modulus(capsys):
    code, out, _ = run_cli(
        capsys, "density", "--order", "0", "1", "--bound", "10000", "--modulus", "40", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    d = payload["details"]
    assert d["split_count"] + d["inert_count"] + d["ramified_count"] == 1229
    assert abs(d["split_fraction"] - 0.5) < 0.02
    assert d["congruence"]["count"] > 0
    assert d["congruence"]["smallest"] == 41


def test_density_input_errors(capsys):
    code, _, err = run_cli(capsys, "density", "--order", "0", "1", "--bound", "50")
    assert code == 2
    code, _, err = run_cli(capsys, "density", "--order", "0", "1", "--modulus", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "density", "--order", "2", "1")
    assert code == 2


@pytest.mark.parametrize("command", ["density", "classify"])
def test_sieve_bound_above_cap_is_an_input_error(tmp_path, capsys, monkeypatch, command):
    def no_sieve(bound):
        pytest.fail(f"sieved primes up to {bound}")

    for module in (qorders, elliptic_pbundle, cli):
        monkeypatch.setattr(module, "primes_up_to", no_sieve)
    desc = write(tmp_path, "deg0.desc", "surface=elliptic_bundle\ncurve=cm\norder=0 1\nbundle=atiyah_deg0\n")
    target = ["--order", "0", "1"] if command == "density" else [desc]
    code, out, err = run_cli(capsys, command, *target, "--bound", str(SIEVE_BOUND_CAP + 1))
    assert code == 2 and out == ""
    assert err == f"error: bound {SIEVE_BOUND_CAP + 1} is above the sieve cap {SIEVE_BOUND_CAP}\n"


def test_cm_table_rows(capsys):
    code, out, _ = run_cli(capsys, "cm-table", "--json")
    assert code == 0
    payload = json.loads(out)
    rows = payload["details"]["rows"]
    assert [(r["t"], r["n"]) for r in rows] == [(0, 1), (0, 2), (1, 2)]
    assert [r["discriminant"] for r in rows] == [-4, -8, -7]
    assert rows[0]["elements"] == [[-1, -1], [1, -1], [-1, 1], [1, 1]]


def _brute_force_cm_table(max_n):
    """cm-table's details from degree_two_table over every order with n <= max_n."""
    table = qorders.degree_two_table(max_n)
    rows = [
        {"t": o.t, "n": o.n, "discriminant": o.discriminant, "elements": [[e.x, e.y] for e in elems]}
        for o, elems in table.items()
        if elems
    ]
    return {"max_n": max_n, "orders_scanned": len(table), "rows": rows}


def test_cm_table_matches_the_brute_force_table(capsys):
    # the command searches only n <= 2, where norm 2 can be reached
    for max_n in (2, 3, 4, 8, 9, 10, 12, 137, 1000, 2999, 3000):
        code, out, _ = run_cli(capsys, "cm-table", "--max-n", str(max_n), "--json")
        assert code == 0
        assert json.loads(out)["details"] == _brute_force_cm_table(max_n), max_n
    for max_n in (-3, 0, 1):
        with pytest.raises(ValueError) as brute_force_error:
            qorders.degree_two_table(max_n)
        code, out, err = run_cli(capsys, "cm-table", "--max-n", str(max_n))
        assert (code, out, err) == (2, "", f"error: {brute_force_error.value}\n")


def test_cm_table_max_n_above_cap_is_an_input_error(capsys, monkeypatch):
    def no_table(n_max):
        pytest.fail(f"built the table up to n = {n_max}")

    monkeypatch.setattr(cli, "degree_two_table", no_table)
    code, out, err = run_cli(capsys, "cm-table", "--max-n", str(CM_TABLE_MAX_N_CAP + 1))
    assert code == 2 and out == ""
    assert err == f"error: --max-n {CM_TABLE_MAX_N_CAP + 1} is above the cm-table cap {CM_TABLE_MAX_N_CAP}\n"


def test_toric_subcommand(tmp_path, capsys):
    fan = write(tmp_path, "plane.fan", PLANE_FAN)
    code, out, _ = run_cli(capsys, "toric", fan, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["kind"] == "squares_only"
    assert payload["details"]["self_intersections"] == [1, 1, 1]

    bad = write(tmp_path, "bad.fan", "1 0\n2 0\n-1 -1\n")
    code, _, err = run_cli(capsys, "toric", bad)
    assert code == 2


def test_group_check(tmp_path, capsys):
    grp = group_file(tmp_path, "sd5.grp", build_semidirect(5))
    code, out, _ = run_cli(capsys, "group-check", grp, "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["details"]["holds"] is True
    assert payload["details"]["subgroups"][0]["image"] == [1, 2, 3, 4]

    code, _, err = run_cli(capsys, "group-check", grp, "6")
    assert code == 2


def test_group_without_order_p_elements_group_check_says_no_and_classify_rejects(tmp_path, capsys):
    # Z/5 x| (Z/5)* has order 20, so no element of order 3: group-check
    # answers "is some order-3 subgroup conjugated onto every residue?" with
    # no, while classify refuses a descriptor whose p the group cannot carry
    grp = group_file(tmp_path, "sd5.grp", build_semidirect(5))
    code, out, err = run_cli(capsys, "group-check", grp, "3", "--json")
    assert code == 0 and err == ""
    details = json.loads(out)["details"]
    assert (details["group_order"], details["holds"], details["subgroups"]) == (20, False, [])
    desc = write(tmp_path, "hg.desc", "surface=high_genus_bundle\np=3\ngroup_file=sd5.grp\n")
    code, out, err = run_cli(capsys, "classify", desc)
    assert code == 2 and out == ""
    assert err == "error: group of order 20 has no cyclic subgroup of order 3\n"


def test_group_files_above_the_byte_cap_are_refused(tmp_path, capsys, monkeypatch):
    # a small cap, so that /dev/zero is refused after one byte past it
    grp = write(tmp_path, "z3.grp", "3\n0 1 2\n1 2 0\n2 0 1\n")
    monkeypatch.setattr(group_condition, "GROUP_FILE_BYTE_CAP", os.path.getsize(grp))
    code, out, err = run_cli(capsys, "group-check", grp, "3")
    assert code == 0 and err == ""
    cap = os.path.getsize(grp) - 1
    monkeypatch.setattr(group_condition, "GROUP_FILE_BYTE_CAP", cap)
    for path in (grp, "/dev/zero"):
        desc = write(tmp_path, "hg.desc", f"surface=high_genus_bundle\np=3\ngroup_file={path}\n")
        for argv in (["group-check", path, "3"], ["classify", desc], ["classify", desc, "--json"]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == ""
            assert err == f"error: {path} is larger than the input cap of {cap} bytes\n"


def test_capped_read_reserves_no_memory_for_the_cap(tmp_path):
    # one read of cap + 1 bytes would ask for 4 EiB here
    grp = write(tmp_path, "z3.grp", "3\n0 1 2\n1 2 0\n2 0 1\n")
    assert read_capped_text(grp, 2**62) == "3\n0 1 2\n1 2 0\n2 0 1\n"


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("cap", [21, 22, 2**62])
def test_capped_read_of_a_pipe_in_blocks(monkeypatch, cap):
    # a pipe has no size, so it comes in blocks (of 4 bytes here) up to one byte past the cap
    monkeypatch.setattr(toric, "_READ_BLOCK", 4)
    text = "3\n0 1 2\n1 2 0\n2 0 1\n"
    r, w = os.pipe()
    try:
        os.write(w, text.encode())
        os.close(w)
        path = f"/dev/fd/{r}"
        if cap < len(text):
            with pytest.raises(ValueError, match=f"larger than the input cap of {cap} bytes"):
                read_capped_text(path, cap)
        else:
            assert read_capped_text(path, cap) == text
    finally:
        os.close(r)


def _read_sizes(monkeypatch) -> list:
    """The byte counts read_capped_text asks its file for, recorded from here on."""
    sizes = []

    class Recording(io.BufferedReader):
        def read(self, size=-1):
            sizes.append(size)
            return super().read(size)

    monkeypatch.setattr(toric, "open", lambda path, mode: Recording(io.FileIO(path, mode)), raising=False)
    return sizes


def test_capped_read_of_a_small_file_asks_for_its_size_plus_one(tmp_path, monkeypatch):
    # a read of _READ_BLOCK bytes would ask for 1 TiB here
    monkeypatch.setattr(toric, "_READ_BLOCK", 2**40)
    text = "3\n0 1 2\n1 2 0\n2 0 1\n"
    grp = write(tmp_path, "z3.grp", text)
    sizes = _read_sizes(monkeypatch)
    for cap in (INPUT_BYTE_CAP, 2**62):
        assert read_capped_text(grp, cap) == text
    assert sizes == [len(text) + 1] * 2


@pytest.mark.parametrize("cap, last", [(19, 2), (20, 3), (2**62, 4)])
def test_capped_read_of_a_file_larger_than_its_fstat_size(tmp_path, monkeypatch, cap, last):
    # as for a file that grew after fstat: its size plus one byte, then
    # blocks (of 4 bytes here) to its end or one byte past the cap
    text = "3\n0 1 2\n1 2 0\n2 0 1\n"
    grp = write(tmp_path, "z3.grp", text)
    monkeypatch.setattr(toric, "_READ_BLOCK", 4)
    monkeypatch.setattr(toric.os, "fstat", lambda fd: SimpleNamespace(st_size=5))
    sizes = _read_sizes(monkeypatch)
    if cap < len(text):
        with pytest.raises(ValueError, match=f"larger than the input cap of {cap} bytes"):
            read_capped_text(grp, cap)
    else:
        assert read_capped_text(grp, cap) == text
    # 18 bytes, then at most what is left up to one byte past the cap
    assert sizes == [6, 4, 4, 4, last]


def test_group_check_rejects_bad_p_before_reading_the_table(tmp_path, capsys):
    grp = write(tmp_path, "bad.grp", "2\n0 1\n1 7\n")
    code, out, err = run_cli(capsys, "group-check", grp, "6")
    assert code == 2
    assert out == ""
    assert err == "error: p must be prime, got 6\n"
    code, _, err = run_cli(capsys, "group-check", str(tmp_path / "missing.grp"), "4")
    assert code == 2
    assert err == "error: p must be prime, got 4\n"


def test_group_order_cap_checked_before_rows(tmp_path, capsys):
    grp = write(tmp_path, "huge.grp", "10001\n")
    code, _, err = run_cli(capsys, "group-check", grp, "2")
    assert code == 2
    assert err == "error: order 10001 exceeds cap 10000\n"


@pytest.mark.parametrize(
    "text, order", [("0\n", 0), ("-2\n", -2), ("0\n0 1\n", 0)], ids=["zero", "negative", "zero-with-row"]
)
def test_group_order_below_one_is_an_input_error(tmp_path, capsys, text, order):
    grp = write(tmp_path, "empty.grp", text)
    code, out, err = run_cli(capsys, "group-check", grp, "2")
    assert code == 2 and out == ""
    assert err == f"error: group order must be at least 1, got {order}\n"


def test_group_check_oversized_entry_is_an_input_error(tmp_path, capsys):
    for entry in ("99999999999999999999999", "-99999999999999999999999"):
        grp = write(tmp_path, "big.grp", f"2\n0 1\n1 {entry}\n")
        code, out, err = run_cli(capsys, "group-check", grp, "2")
        assert code == 2
        assert out == ""
        assert err == "error: table entries must be element indices\n"


def _fake_results(fail_exceptional):
    from selfmaps.claims import ClaimResult

    return (
        ClaimResult("degree-two-table", True, "stub"),
        ClaimResult("exceptional-families", not fail_exceptional, "stub"),
        ClaimResult("ns-bookkeeping", True, "stub"),
    )


def test_verify_exit_codes_with_stub_battery(capsys, monkeypatch):
    # exit-code plumbing only; the real battery runs in the acceptance tests
    all_pass = "PASS degree-two-table: stub\nPASS exceptional-families: stub\nPASS ns-bookkeeping: stub\n"
    one_fail = "PASS degree-two-table: stub\nFAIL exceptional-families: stub\nPASS ns-bookkeeping: stub\n"
    monkeypatch.setattr("selfmaps.claims.run_claims", lambda negative_test=False: _fake_results(False))
    code, out, _ = run_cli(capsys, "verify-paper")
    assert code == 0
    assert out == all_pass + "3/3 claims pass\n"

    monkeypatch.setattr("selfmaps.claims.run_claims", lambda negative_test=False: _fake_results(True))
    code, out, _ = run_cli(capsys, "verify-paper")
    assert code == 1
    assert out == one_fail + "2/3 claims pass\n"

    code, out, _ = run_cli(capsys, "verify-paper", "--negative-test")
    assert code == 0
    assert out == one_fail + "injected fault: detected\n"

    monkeypatch.setattr("selfmaps.claims.run_claims", lambda negative_test=False: _fake_results(False))
    code, out, _ = run_cli(capsys, "verify-paper", "--negative-test")
    assert code == 1
    assert out == all_pass + "injected fault: MISSED\n"
