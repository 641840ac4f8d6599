"""Exit-code fuzz: `classify`, `toric` and `group-check` on drawn input
files exit 0 or 2, never with a traceback or an internal error.

main() runs in this process on each example.  Drawn integers include
huge ones: Mersenne primes beyond any trial division, and values at and
past qorders.PRIMALITY_CAP, which must be refused with exit 2.  Each
example has a deadline, so an input that makes a command crawl fails
the test instead of stalling it.
"""

from __future__ import annotations

import contextlib
import io
from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as st

from selfmaps.cli import main
from selfmaps.qorders import PRIMALITY_CAP
from selfmaps.toric import blow_up, hirzebruch, validate_fan

HUGE = st.sampled_from(
    (2**61 - 1, -(2**61 - 1), 2**89 - 1, 2**127 - 1, PRIMALITY_CAP, PRIMALITY_CAP + 2, 10**40 + 1)
)
INTEGERS = st.integers(-40, 40) | st.integers() | HUGE
WORD = st.text(max_size=10)


def mostly(valid, noise):
    """valid nine times in ten, noise otherwise."""
    return st.integers(0, 9).flatmap(lambda i: valid if i else noise)


def pairs(first=INTEGERS):
    return st.tuples(first, INTEGERS).map(lambda v: f"{v[0]} {v[1]}")


FANS = {
    "plane.fan": "1 0\n0 1\n-1 -1\n",
    "f3.fan": "1 0\n0 1\n-1 3\n0 -1\n",
    "five.fan": f"1 0\n0 1\n-1 {2**61 - 1}\n-1 {2**61 - 2}\n0 -1\n",
    "bad.fan": "1 0\n2 0\n",
}
GROUPS = {
    "z2.grp": "2\n0 1\n1 0\n",
    "z3.grp": "3\n0 1 2\n1 2 0\n2 0 1\n",
    "s3.grp": "6\n0 1 2 3 4 5\n1 2 0 4 5 3\n2 0 1 5 3 4\n3 5 4 0 2 1\n4 3 5 1 0 2\n5 4 3 2 1 0\n",
    "bad.grp": "2\n0 1\n1 1\n",
}

# each descriptor key and the values it draws
VALUES = {
    "surface": mostly(
        st.sampled_from(("abelian", "hyperelliptic", "kodaira_one", "toric", "elliptic_bundle", "high_genus_bundle")),
        WORD,
    ),
    "fan_file": st.sampled_from((*FANS, "missing.fan")),
    "curve": mostly(st.sampled_from(("cm", "nocm")), WORD),
    "order": mostly(pairs(st.integers(-1, 2)), WORD),
    "bundle": mostly(
        st.sampled_from(("split_torsion", "split_nontorsion", "split_degree", "atiyah_deg0", "atiyah_deg1")), WORD
    ),
    "k": mostly(INTEGERS.map(str), WORD),
    "point": mostly(pairs(), WORD),
    "degree": mostly(INTEGERS.map(str), WORD),
    "p": mostly(INTEGERS.map(str), WORD),
    "group_file": st.sampled_from((*GROUPS, "missing.grp")),
}
BUNDLE_KEYS = {"split_torsion": ("k", "point"), "split_degree": ("degree",)}


@st.composite
def descriptor_texts(draw):
    """Mostly well-formed descriptors: each key the descriptor needs is
    kept nine times in ten; a stray key or noise line is added at times."""
    fields = {}

    def put(key):
        if draw(st.integers(0, 9)):
            fields[key] = draw(VALUES[key])

    put("surface")
    surface = fields.get("surface")
    if surface == "toric":
        put("fan_file")
    elif surface == "high_genus_bundle":
        put("p")
        put("group_file")
    elif surface == "elliptic_bundle":
        put("curve")
        if fields.get("curve") == "cm":
            put("order")
        put("bundle")
        for key in BUNDLE_KEYS.get(fields.get("bundle"), ()):
            put(key)
    for key in draw(mostly(st.just(()), st.sets(st.sampled_from(sorted(VALUES)), max_size=2))):
        fields[key] = draw(VALUES[key])
    lines = [f"{key}={value}" for key, value in fields.items()]
    lines += draw(mostly(st.just([]), st.lists(st.sampled_from(("", "# comment", "x=")) | WORD, max_size=2)))
    return "\n".join(draw(st.permutations(lines)))


@st.composite
def valid_fans(draw):
    """A Hirzebruch surface blown up a few times, in either orientation."""
    fan = validate_fan(hirzebruch(abs(draw(INTEGERS))))
    for i in draw(st.lists(st.integers(0, 10**6), max_size=4)):
        fan = blow_up(fan, i % len(fan))
    rays = list(fan.rays)
    if draw(st.booleans()):
        rays.reverse()
    return "\n".join(f"{x} {y}" for x, y in rays)


FAN_TEXTS = mostly(
    valid_fans(),
    st.lists(pairs() | st.sampled_from(("", "# ray", "1", "1 2 3")) | WORD, max_size=8).map("\n".join),
)


@st.composite
def group_texts(draw):
    """The table of Z/n, n <= 5, now and then with entries, rows or the
    order line changed, and noise lines."""
    order = draw(st.integers(0, 5))
    table = [[(i + j) % order for j in range(order)] for i in range(order)]
    for _ in range(draw(mostly(st.just(0), st.integers(1, 3))) if order else 0):
        table[draw(st.integers(0, order - 1))][draw(st.integers(0, order - 1))] = draw(INTEGERS)
    rows = [" ".join(map(str, row)) for row in table]
    rows = draw(mostly(st.just(rows), st.lists(st.sampled_from(rows or [""]), max_size=order + 1)))
    head = draw(mostly(st.just(str(order)), INTEGERS.map(str) | WORD))
    return "\n".join([head, *rows, *draw(mostly(st.just([]), st.lists(WORD, max_size=1)))])


def file_bytes(texts):
    """A drawn file: the UTF-8 of a drawn text, or now and then bytes that need not be UTF-8."""
    return mostly(texts.map(lambda text: text.encode("utf-8")), st.binary(max_size=40))


FUZZ = settings(max_examples=150, deadline=timedelta(seconds=5))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    for name, text in {**FANS, **GROUPS}.items():
        (work / name).write_text(text)
    return work


def assert_exit_0_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stderr = err.getvalue()
    assert code in (0, 2), (code, stderr)
    assert "Traceback" not in stderr and "error: internal" not in stderr, stderr
    if code == 2:
        assert out.getvalue() == "" and stderr.startswith("error: ") and stderr.count("\n") == 1, stderr


@FUZZ
@given(file_bytes(descriptor_texts()), st.booleans())
def test_classify_exits_0_or_2(inputs, data, as_json):
    path = inputs / "drawn.desc"
    path.write_bytes(data)
    assert_exit_0_or_2(["classify", str(path), *(["--json"] if as_json else [])])


@FUZZ
@given(file_bytes(FAN_TEXTS), st.booleans())
def test_toric_exits_0_or_2(inputs, data, as_json):
    path = inputs / "drawn.fan"
    path.write_bytes(data)
    assert_exit_0_or_2(["toric", str(path), *(["--json"] if as_json else [])])


@FUZZ
@given(
    file_bytes(group_texts()) | st.sampled_from(tuple(GROUPS.values())).map(str.encode),
    st.sampled_from((2, 3, 5, 7)) | INTEGERS,
)
def test_group_check_exits_0_or_2(inputs, data, p):
    path = inputs / "drawn.grp"
    path.write_bytes(data)
    assert_exit_0_or_2(["group-check", str(path), str(p), "--json"])
