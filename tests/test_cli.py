import contextlib
import io
import json
import os
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import selfmaps
from selfmaps import cli, elliptic_pbundle, qorders
from selfmaps.cli import (
    CM_TABLE_MAX_N_CAP,
    EXIT_CLOSED_PIPE,
    SIEVE_BOUND_CAP,
    DescriptorError,
    _json_text,
    main,
    parse_descriptor_text,
)
from selfmaps.elliptic_pbundle import SCAN_BOUND_CAP
from selfmaps.group_condition import build_cyclic, build_semidirect
from selfmaps.toric import INPUT_BYTE_CAP
from selfmaps.verdicts import witness_to_payload

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
    assert _json_text(payload) + "\n" == out


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
    witnesses = elliptic_pbundle.scan_primes(e, bound).witnesses if bound >= 2 else {}
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
    # route texts hold only digits, signs and fixed words, so none has a %
    # or a NUL; the row templates must not depend on that
    witness_text = cli._witness_text
    monkeypatch.setattr(cli, "_witness_text", lambda w: "%s %d %% \x00 " + witness_text(w))
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


PAYLOADS = st.recursive(SCALARS, _json_values, max_leaves=25)


@settings(max_examples=400, deadline=None)
@given(PAYLOADS)
@example({})
@example([])
@example({"a": {}, "b": [[], {}], "c": ((),)})
@example({"": [-0.0, float("inf"), float("-inf"), float("nan")]})
@example([2**64, -(2**100), True, False, None])
def test_json_writer_matches_json_dumps_indent2(payload):
    assert _json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


@given(PAYLOADS)
@settings(max_examples=200, deadline=None)
def test_json_writer_shared_subobject_at_two_depths(shared):
    payload = {"a": shared, "b": [shared, {"c": shared, "d": [shared]}], "e": shared}
    assert _json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


class _Tag(str):
    pass


@pytest.mark.parametrize(
    "payload", [{"a": {1, 2}}, [object()], {"k": b"bytes"}, {1: "int key"}, {"a": [_Tag("x")]}]
)
def test_json_writer_rejects_what_payloads_never_hold(payload):
    with pytest.raises(TypeError):
        _json_text(payload)


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
    monkeypatch.setattr("selfmaps.cli.run_claims", lambda negative_test=False: _fake_results(False))
    code, out, _ = run_cli(capsys, "verify-paper")
    assert code == 0
    assert out == all_pass + "3/3 claims pass\n"

    monkeypatch.setattr("selfmaps.cli.run_claims", lambda negative_test=False: _fake_results(True))
    code, out, _ = run_cli(capsys, "verify-paper")
    assert code == 1
    assert out == one_fail + "2/3 claims pass\n"

    code, out, _ = run_cli(capsys, "verify-paper", "--negative-test")
    assert code == 0
    assert out == one_fail + "injected fault: detected\n"

    monkeypatch.setattr("selfmaps.cli.run_claims", lambda negative_test=False: _fake_results(False))
    code, out, _ = run_cli(capsys, "verify-paper", "--negative-test")
    assert code == 1
    assert out == all_pass + "injected fault: MISSED\n"
