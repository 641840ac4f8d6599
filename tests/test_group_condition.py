import itertools
import random
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfmaps import group_condition
from selfmaps.group_condition import (
    GROUP_ORDER_CAP,
    _check_associativity,
    _generating_set,
    _split_rows,
    CayleyGroup,
    CyclicSubgroup,
    GroupFileError,
    GroupValidationError,
    build_cyclic,
    build_semidirect,
    conjugation_rho,
    element_orders,
    find_cyclic_subgroups,
    load_group,
    normalizer,
    parse_group_text,
    rho_bar_surjective,
    validate_group,
)
from selfmaps.qorders import is_prime


def _perm_parity(perm):
    flips = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return flips % 2


def _perm_group(degree, even_only=False):
    perms = sorted(itertools.permutations(range(degree)))
    if even_only:
        perms = [p for p in perms if _perm_parity(p) == 0]
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[x]] for x in range(degree))] for q in perms] for p in perms
    ]
    return validate_group(table)


def symmetric_3():
    return _perm_group(3)


def alternating_4():
    return _perm_group(4, even_only=True)


def _power(group: CayleyGroup, g: int, k: int) -> int:
    out = 0
    for _ in range(k):
        out = group.mul(out, g)
    return out


def test_cyclic_element_orders():
    orders = element_orders(build_cyclic(12))
    assert list(orders) == [1, 12, 6, 4, 3, 12, 2, 12, 3, 4, 6, 12]


def test_validate_rejects_non_square():
    with pytest.raises(GroupValidationError):
        validate_group([[0, 1], [1, 0], [0, 1]])


def test_validate_rejects_out_of_range():
    with pytest.raises(GroupValidationError):
        validate_group([[0, 1], [1, 7]])


def test_validate_rejects_corrupted_entry():
    table = np.add.outer(np.arange(6), np.arange(6)) % 6
    table[2, 3] = 2
    with pytest.raises(GroupValidationError):
        validate_group(table)


def test_validate_rejects_displaced_identity():
    with pytest.raises(GroupValidationError, match="identity"):
        validate_group([[1, 2, 0], [2, 0, 1], [0, 1, 2]])


def test_lights_test_catches_intercalate_swap():
    # swapping a 2x2 subsquare of Z/6 with equal diagonals keeps every
    # row and column a permutation and keeps identity and inverses
    # intact, so only the associativity stage can reject it
    table = np.add.outer(np.arange(6), np.arange(6)) % 6
    assert table[1, 1] == table[4, 4] == 2 and table[1, 4] == table[4, 1] == 5
    table[1, 1], table[4, 4] = 5, 5
    table[1, 4], table[4, 1] = 2, 2
    with pytest.raises(GroupValidationError, match="associativity"):
        validate_group(table)


def test_semidirect_three_matches_symmetric_group():
    built = build_semidirect(3)
    assert built.order == 6
    assert sorted(element_orders(built)) == sorted(element_orders(symmetric_3())) == [
        1,
        2,
        2,
        2,
        3,
        3,
    ]


def test_semidirect_two_is_order_two():
    assert build_semidirect(2).order == 2


def test_semidirect_rejects_bad_input():
    with pytest.raises(ValueError):
        build_semidirect(4)
    with pytest.raises(GroupValidationError, match="cap"):
        build_semidirect(101)


def test_find_cyclic_subgroups_counts():
    assert len(find_cyclic_subgroups(build_cyclic(5), 5)) == 1
    assert find_cyclic_subgroups(build_cyclic(6), 5) == ()
    subs = find_cyclic_subgroups(build_cyclic(6), 3)
    assert len(subs) == 1 and subs[0].elements == (0, 2, 4)
    assert len(find_cyclic_subgroups(symmetric_3(), 3)) == 1
    assert len(find_cyclic_subgroups(alternating_4(), 3)) == 4
    with pytest.raises(ValueError):
        find_cyclic_subgroups(build_cyclic(6), 6)


def test_normalizer_abelian_is_everything():
    group = build_cyclic(6)
    sub = find_cyclic_subgroups(group, 3)[0]
    assert normalizer(group, sub) == (0, 1, 2, 3, 4, 5)


def test_normalizer_in_symmetric_group():
    group = symmetric_3()
    sub = find_cyclic_subgroups(group, 3)[0]
    assert len(normalizer(group, sub)) == 6


def test_normalizer_in_alternating_group():
    group = alternating_4()
    for sub in find_cyclic_subgroups(group, 3):
        norm = normalizer(group, sub)
        assert len(norm) == 3
        assert set(norm) == set(sub.elements)


def test_conjugation_rho_abelian_is_constant_one():
    group = build_cyclic(7)
    sub = find_cyclic_subgroups(group, 7)[0]
    rho = conjugation_rho(group, sub)
    assert set(rho.values()) == {1}


def test_conjugation_rho_symmetric_group():
    group = symmetric_3()
    sub = find_cyclic_subgroups(group, 3)[0]
    rho = conjugation_rho(group, sub)
    assert sorted(set(rho.values())) == [1, 2]
    # recheck the homomorphism law directly on all pairs
    for n1 in rho:
        for n2 in rho:
            assert rho[group.mul(n1, n2)] == rho[n1] * rho[n2] % 3


def _relabeled(group: CayleyGroup, sigma) -> CayleyGroup:
    """The isomorphic group with element i renamed sigma[i]; sigma fixes 0."""
    sigma = np.asarray(sigma)
    table = np.empty_like(group.table)
    table[np.ix_(sigma, sigma)] = sigma[group.table]
    return CayleyGroup(table)


RHO_GROUPS = [
    *(lambda n=n: build_cyclic(n) for n in range(2, 13)),
    *(lambda p=p: build_semidirect(p) for p in (2, 3, 5, 7, 11, 13)),
    symmetric_3,
    alternating_4,
]


@st.composite
def relabeled_groups(draw):
    group = draw(st.sampled_from(RHO_GROUPS))()
    rest = draw(st.permutations(range(1, group.order)))
    primes = [q for q in range(2, group.order + 1) if group.order % q == 0 and is_prime(q)]
    q = draw(st.sampled_from(primes))
    return _relabeled(group, [0, *rest]), q


@settings(max_examples=150, deadline=None)
@given(relabeled_groups())
def test_conjugation_rho_matches_all_pairs_oracle(group_and_q):
    group, q = group_and_q
    subs = find_cyclic_subgroups(group, q)
    assert subs
    for sub in subs:
        rho = conjugation_rho(group, sub)
        gen = sub.generator
        assert set(rho) == {
            n for n in range(group.order) if group.conjugate(n, gen) in sub.elements
        }
        for n, delta in rho.items():
            assert 1 <= delta < q
            assert group.conjugate(n, gen) == _power(group, gen, delta)
        for a in rho:
            for b in rho:
                assert rho[group.mul(a, b)] == rho[a] * rho[b] % q


def test_conjugation_rho_rejects_inconsistent_subgroup():
    group = build_cyclic(6)
    bad = (
        CyclicSubgroup(generator=1, order=3, elements=(0, 2, 4)),
        CyclicSubgroup(generator=2, order=3, elements=(0, 1, 2)),
        CyclicSubgroup(generator=2, order=2, elements=(0, 2, 4)),
        CyclicSubgroup(generator=2, order=3, elements=(0, 2, 2)),
    )
    for sub in bad:
        with pytest.raises(ValueError, match="disagrees"):
            conjugation_rho(group, sub)
    good = CyclicSubgroup(generator=2, order=3, elements=(4, 0, 2))
    assert conjugation_rho(group, good) == {n: 1 for n in range(6)}


def test_conjugation_rho_matches_direct_conjugation():
    group = build_semidirect(5)
    sub = find_cyclic_subgroups(group, 5)[0]
    rho = conjugation_rho(group, sub)
    assert sorted(set(rho.values())) == [1, 2, 3, 4]
    for n, delta in rho.items():
        assert group.conjugate(n, sub.generator) == _power(group, sub.generator, delta)


def _check_witnesses(group: CayleyGroup, report):
    covering = next(r for r in report.subgroup_reports if r.covered)
    gen = covering.subgroup.generator
    p = report.p
    assert sorted(report.witnesses) == list(range(1, p))
    for residue, (elem, sign) in report.witnesses.items():
        assert sign in (1, -1)
        assert group.conjugate(elem, gen) == _power(group, gen, sign * residue % p)


def test_rho_bar_on_cyclic_groups():
    for p in (2, 3, 5, 7, 11, 13):
        report = rho_bar_surjective(build_cyclic(p), p)
        assert report.holds == (p <= 3)
        if report.holds:
            _check_witnesses(build_cyclic(p), report)
        else:
            assert report.subgroup_reports[0].image == (1,)


def test_rho_bar_without_subgroup_is_false():
    report = rho_bar_surjective(build_cyclic(6), 5)
    assert not report.holds
    assert report.subgroup_reports == ()


def test_rho_bar_semidirect_seven():
    group = build_semidirect(7)
    report = rho_bar_surjective(group, 7)
    assert report.holds
    _check_witnesses(group, report)


def test_rho_bar_full_semidirect_sweep():
    # every prime with p(p-1) under the order cap
    for p in (x for x in range(2, 101) if is_prime(x) and x * (x - 1) <= 10000):
        group = build_semidirect(p)
        report = rho_bar_surjective(group, p)
        assert report.holds, f"p={p}"
        for sub_report in report.subgroup_reports:
            image = set(sub_report.image)
            assert 1 in image
            assert all(a * b % p in image for a in image for b in image)


def test_parse_group_text_roundtrip():
    group = symmetric_3()
    text = "6\n" + "\n".join(
        " ".join(str(group.mul(i, j)) for j in range(6)) for i in range(6)
    )
    assert np.array_equal(parse_group_text(text), group.table)


def test_parse_group_text_errors():
    with pytest.raises(GroupFileError):
        parse_group_text("")
    with pytest.raises(GroupFileError):
        parse_group_text("x\n0\n")
    with pytest.raises(GroupFileError):
        parse_group_text("2\n0 1\n")
    with pytest.raises(GroupFileError):
        parse_group_text("2\n0 1\n1 0 0\n")
    with pytest.raises(GroupFileError):
        parse_group_text("2\n0 1\n1 a\n")


def test_load_group(tmp_path):
    path = tmp_path / "group.txt"
    path.write_text("# Z/3\n3\n0 1 2\n1 2 0\n2 0 1\n")
    group = load_group(path)
    assert group.order == 3
    assert group.inv(1) == 2


def _oracle_failure(table):
    """The ordered checks by brute force; None for a group, else the failing stage."""
    t = np.asarray(table).tolist()
    n = len(t)
    idx = list(range(n))
    if any(sorted(row) != idx for row in t):
        return "some row is not a permutation", None
    if any(sorted(col) != idx for col in zip(*t)):
        return "some column is not a permutation", None
    if t[0] != idx or [row[0] for row in t] != idx:
        return "identity must be element 0", None
    inverse = [row.index(0) for row in t]
    if any(t[inverse[i]][i] != 0 for i in idx):
        return "inverses are not two-sided", None
    bad_middles = {
        g for x in idx for g in idx for y in idx if t[t[x][g]][y] != t[x][t[g][y]]
    }
    if bad_middles:
        return "associativity fails", bad_middles
    return None


# a loop (Latin square with identity 0) in which 2 * 3 = 0 but 3 * 2 = 1
ONE_SIDED_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]

# Z/6 with the intercalate 1,4 x 1,4 swapped: a loop with two-sided
# inverses that is not associative
SWAPPED_Z6 = [[(i + j) % 6 for j in range(6)] for i in range(6)]
SWAPPED_Z6[1][1] = SWAPPED_Z6[4][4] = 5
SWAPPED_Z6[1][4] = SWAPPED_Z6[4][1] = 2

BASE_TABLES = [
    *(np.asarray(build_cyclic(n).table).tolist() for n in (1, 2, 4, 6, 7)),
    *(np.asarray(build_semidirect(p).table).tolist() for p in (3, 5)),
    ONE_SIDED_LOOP,
    SWAPPED_Z6,
]


def _intercalates(t):
    """Row pairs i < k and column pairs j < l holding a 2x2 subsquare a b / b a."""
    n = len(t)
    return [
        (i, k, j, l)
        for i, k in itertools.combinations(range(n), 2)
        for j, l in itertools.combinations(range(n), 2)
        if t[i][j] == t[k][l] and t[i][l] == t[k][j]
    ]


@st.composite
def corrupted_tables(draw, bases=BASE_TABLES, kinds=("swap", "intercalate", "relabel", "rows")):
    t = [row[:] for row in draw(st.sampled_from(bases))]
    n = len(t)
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=3)):
        if kind == "swap":
            (i1, j1), (i2, j2) = draw(cell), draw(cell)
            t[i1][j1], t[i2][j2] = t[i2][j2], t[i1][j1]
        elif kind == "intercalate":
            if n <= 16:
                squares = _intercalates(t)
            else:
                # all of them would take n^4 steps: those with one row drawn
                i = draw(st.integers(0, n - 1))
                squares = [(i, k, j, l) for k, j, l in _row_intercalates(np.array(t), i)]
            if squares:
                i, k, j, l = draw(st.sampled_from(squares))
                t[i][j], t[i][l] = t[i][l], t[i][j]
                t[k][j], t[k][l] = t[k][l], t[k][j]
        elif kind in ("relabel", "relabel0"):
            # an isomorphic table whose identity can move away from 0,
            # or with relabel0 stays at 0
            sigma = draw(st.permutations(range(n)))
            if kind == "relabel0":
                sigma = [0, *(x for x in sigma if x)]
            relabeled = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    relabeled[sigma[i]][sigma[j]] = sigma[t[i][j]]
            t = relabeled
        else:
            t = [t[i] for i in draw(st.permutations(range(n)))]
    return t


def _check_against_ordered_oracle(table):
    expected = _oracle_failure(table)
    if expected is None:
        group = validate_group(table)
        assert np.array_equal(group.table, table)
        return
    message, bad_middles = expected
    with pytest.raises(GroupValidationError) as info:
        validate_group(table)
    got = str(info.value)
    if bad_middles is None:
        assert got == message
    else:
        prefix = "associativity fails for triples with middle element "
        assert got.startswith(prefix)
        # up to order 64 every element is a generator, taken in increasing order
        assert int(got[len(prefix) :]) == min(bad_middles)


@settings(max_examples=300, deadline=None)
@given(corrupted_tables())
def test_validate_group_matches_ordered_oracle(table):
    _check_against_ordered_oracle(table)


@settings(max_examples=300, deadline=None)
@given(corrupted_tables())
def test_validate_group_matches_ordered_oracle_on_two_threads(table):
    with mock.patch.object(group_condition, "_SPLIT_ORDER", 1):
        _check_against_ordered_oracle(table)


# order 48, where Light's test takes its middle elements in blocks of
# 28: mostly intercalate swaps, which reach the associativity stage
BLOCKED_TABLES = corrupted_tables([np.asarray(build_cyclic(48).table).tolist()], ("swap", "intercalate", "intercalate", "relabel0"))


# the brute-force oracle takes n^3 steps, so fewer examples at order 48
@settings(max_examples=40, deadline=None)
@given(BLOCKED_TABLES)
def test_validate_group_matches_ordered_oracle_at_order_48(table):
    _check_against_ordered_oracle(table)


@settings(max_examples=40, deadline=None)
@given(BLOCKED_TABLES)
def test_validate_group_matches_ordered_oracle_at_order_48_on_two_threads(table):
    with mock.patch.object(group_condition, "_SPLIT_ORDER", 1):
        _check_against_ordered_oracle(table)


@pytest.mark.parametrize("split_order", [group_condition._SPLIT_ORDER, 1])
@pytest.mark.parametrize("i, j", [(1, 2), (7, 40), (29, 29), (50, 3)])
def test_blocked_lights_test_reports_the_smallest_bad_middle(split_order, i, j):
    # Z/60 has the intercalates i, i+30 x j, j+30; with one swapped, the
    # failing middle elements spread over several blocks of 18
    t = np.add.outer(np.arange(60), np.arange(60)) % 60
    k, l = (i + 30) % 60, (j + 30) % 60
    t[[i, k], j], t[[i, k], l] = t[[i, k], l], t[[i, k], j]
    n = np.arange(60)
    bad = np.nonzero((t[t] != t[n[:, None, None], t[None, :, :]]).any(axis=(0, 2)))[0]
    assert bad.size
    with mock.patch.object(group_condition, "_SPLIT_ORDER", split_order):
        with pytest.raises(GroupValidationError) as info:
            validate_group(t)
    assert str(info.value) == f"associativity fails for triples with middle element {bad.min()}"


@pytest.mark.parametrize("split_order", [group_condition._SPLIT_ORDER, 1])
@pytest.mark.parametrize("triples", [group_condition._TRIPLES, 7 * 60 * 60, 1])
def test_blocked_lights_test_finds_a_bad_middle_past_the_first_block(split_order, triples):
    # SWAPPED_Z6 x Z/10, (l, g) numbered 10 * label[l] + g: the middle
    # nucleus of SWAPPED_Z6 is {0, 3}, so 0..19 pass and 20 fails first
    label = np.argsort([0, 3, 1, 2, 4, 5])
    loop = label[np.asarray(SWAPPED_Z6)][np.ix_(np.argsort(label), np.argsort(label))]
    t = (10 * loop[:, None, :, None] + (np.add.outer(np.arange(10), np.arange(10)) % 10)[None, :, None, :]).reshape(60, 60)
    n = np.arange(60)
    bad = np.nonzero((t[t] != t[n[:, None, None], t[None, :, :]]).any(axis=(0, 2)))[0]
    assert bad.min() == 20
    with mock.patch.object(group_condition, "_SPLIT_ORDER", split_order):
        with mock.patch.object(group_condition, "_TRIPLES", triples):
            with pytest.raises(GroupValidationError, match="associativity fails for triples with middle element 20$"):
                validate_group(t)


def test_validate_group_copy_semantics():
    base = (np.add.outer(np.arange(6), np.arange(6)) % 6).astype(np.int32)
    frozen = base.copy()
    frozen.setflags(write=False)
    assert not np.shares_memory(validate_group(frozen).table, frozen)
    group = validate_group(base)
    assert not np.shares_memory(group.table, base)
    assert base.flags.writeable
    assert not group.table.flags.writeable


def _parse_rows_reference(text):
    """The parser with the per-row loop alone: int() on every whitespace-split token."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    n = int(lines[0])
    if len(lines) != n + 1:
        raise GroupFileError(f"expected {n} rows after the order line, got {len(lines) - 1}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=1):
        parts = line.split()
        if len(parts) != n:
            raise GroupFileError(f"row {lineno}: expected {n} entries, got {len(parts)}")
        try:
            rows.append([int(x) for x in parts])
        except ValueError as exc:
            raise GroupFileError(f"row {lineno}: not integers") from exc
    return np.array(rows, dtype=np.int64)


# integers in forms both parsers read, then tokens only int() reads
# (1_0, Arabic-Indic three) and tokens neither reads
CLEAN_TOKENS = st.one_of(
    st.integers(-3, 12).map(str), st.sampled_from(["+3", "-0", "007", "+0"])
)
DIRTY_TOKENS = st.sampled_from(["1_0", "\u0663", "#", "x", "2.0", "0x1"])


@st.composite
def table_texts(draw):
    n = draw(st.integers(1, 4))
    tokens_st = CLEAN_TOKENS if draw(st.booleans()) else st.one_of(CLEAN_TOKENS, DIRTY_TOKENS)
    lines = [str(n)]
    for _ in range(n):
        count = draw(st.sampled_from([n, n, n, n, n - 1, n + 1]))
        tokens = draw(st.lists(tokens_st, min_size=count, max_size=count))
        seps = draw(
            st.lists(st.sampled_from([" ", "\t", "  ", " \t "]), min_size=count, max_size=count)
        )
        line = "".join(sep + tok for sep, tok in zip(seps, tokens))
        if draw(st.booleans()):
            line += draw(st.sampled_from([" # x", "\t#x", ""]))
        lines.append(line)
    return "\n".join(lines) + "\n"


def _outcome(parse, text):
    try:
        return "ok", parse(text).tolist()
    except (GroupFileError, GroupValidationError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(table_texts())
def test_parse_group_text_fast_path_matches_row_loop(text):
    assert _outcome(parse_group_text, text) == _outcome(_parse_rows_reference, text)


# Features of a table text for the byte kernel.  Each changes one row
# token, or the text, in one way; the flag says whether the kernel
# still reads the text (True) or leaves it to the row loop (False).
KERNEL_EDITS = {
    "seven-digit": True,  # "000000" + entry: the longest token the kernel reads
    "eight-digit": False,
    "nine-digit": False,
    "entry-n": False,
    "entry-65537": False,
    "plus": False,  # "+3"
    "arabic-indic": False,  # U+0663, which int() reads as 3
    "trailing-comment": False,  # "# x" after the last token of a row
    "drop-token": False,
    "extra-token": False,
    "move-token": False,  # from one row to the next: right total, wrong rows
    "drop-row": False,
    "extra-row": False,
    "letter": False,
    "form-feed-comment": False,  # str.splitlines splits a comment at \x0c
}


@st.composite
def kernel_texts(draw):
    """(text, the kernel reads it) for a table of order up to 70 with random entries."""
    n = draw(st.integers(1, 70))
    rng = random.Random(draw(st.integers(0, 2**32)))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    width = draw(st.sampled_from([0, 0, 3, 5]))  # leading zeros up to this width
    rows = [[str(rng.randrange(n)).zfill(width) for _ in range(n)] for _ in range(n)]
    edits = draw(st.lists(st.sampled_from(sorted(KERNEL_EDITS)), max_size=2))
    for edit in edits:
        if not rows:
            break
        row = rows[rng.randrange(len(rows))]
        if not row and edit not in ("trailing-comment", "extra-token", "drop-row", "extra-row"):
            continue  # an earlier edit dropped the only token of an order-1 table's row
        col = rng.randrange(len(row)) if row else 0
        if edit == "seven-digit":
            row[col] = str(rng.randrange(n)).zfill(7)
        elif edit in ("eight-digit", "nine-digit"):
            row[col] = str(rng.randrange(n)).zfill(8 if edit == "eight-digit" else 9)
        elif edit == "entry-n":
            row[col] = str(n)
        elif edit == "entry-65537":
            row[col] = "65537"
        elif edit == "plus":
            row[col] = "+3"
        elif edit == "arabic-indic":
            row[col] = "\u0663"
        elif edit == "trailing-comment":
            row.append("# x")
        elif edit == "drop-token":
            row.pop(col)
        elif edit == "extra-token":
            row.append("0")
        elif edit == "move-token":
            rows[(rows.index(row) + 1) % len(rows)].append(row.pop(col))
        elif edit == "drop-row":
            rows.remove(row)
        elif edit == "extra-row":
            rows.append(list(row))
        elif edit == "letter":
            row[col] = "x"
    lines = [" ".join(row) if rng.random() < 0.5 else rng.choice(["\t", "  ", " \t "]).join(row) for row in rows]
    lines = [rng.choice(["", "", " ", "\t"]) + line + rng.choice(["", "", " ", "\t"]) for line in lines]
    lines.insert(0, rng.choice([str(n), str(n), f" {n} ", str(n).zfill(4)]))
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "  ", "\t", "# note", "  #", "#\t1 2"]))
    if "form-feed-comment" in edits:
        lines.insert(rng.randrange(len(lines) + 1), "# a\x0c0")
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    return text, all(KERNEL_EDITS[edit] for edit in edits)


@settings(max_examples=400, deadline=None)
@given(kernel_texts(), st.sampled_from([24, 40, 64, group_condition._TEXT_BLOCK]))
def test_parse_group_text_kernel_matches_row_loop(case, block):
    """The kernel, with blocks down to a few dozen bytes, against the row loop alone."""
    text, kernel_reads = case
    with mock.patch.object(group_condition, "_TEXT_BLOCK", block):
        got = _outcome(parse_group_text, text)
        read = group_condition._parse_table_bytes(text)
    with mock.patch.object(group_condition, "_parse_table_bytes", lambda text: None):
        expected = _outcome(parse_group_text, text)
    assert got == expected
    if kernel_reads:
        assert read is not None and read.tolist() == expected[1]


def test_row_loop_writes_into_one_table():
    """A table only the row loop reads, through one "+1" token, in under twice its int64 size."""
    n = 300
    text = f"{n}\n" + "".join(" ".join(str((a + b) % n) for b in range(n)) + "\n" for a in range(n))
    kernel = parse_group_text(text)
    assert kernel.dtype == np.uint16
    text = text.replace("\n1 ", "\n+1 ", 1)
    assert group_condition._parse_table_bytes(text) is None
    tracemalloc.start()
    try:
        table = parse_group_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.dtype == np.int64 and np.array_equal(table, kernel)
    # a list of lists of Python ints before the int64 copy peaked at 3.1 times
    assert peak < 2 * table.nbytes


@pytest.mark.parametrize(
    "text, error, message",
    [
        # every row's format check comes before the entry beyond int64
        ("2\n0 99999999999999999999999\n1 x\n", GroupFileError, "row 2: not integers"),
        ("2\n0 99999999999999999999999\n1\n", GroupFileError, "row 2: expected 2 entries, got 1"),
    ],
    ids=["overflow-then-word", "overflow-then-short-row"],
)
def test_row_loop_reports_overflow_after_row_checks(text, error, message):
    with pytest.raises(error) as info:
        parse_group_text(text)
    assert type(info.value) is error and str(info.value) == message


def test_kernel_table_is_uint16_and_validate_group_copies_it():
    text = "6\n" + "".join(" ".join(str((a + b) % 6) for b in range(6)) + "\n" for a in range(6))
    table = parse_group_text(text)
    assert table.dtype == np.uint16 and table.shape == (6, 6)
    group = validate_group(table)
    assert not np.shares_memory(group.table, table)
    assert group.table.tolist() == table.tolist()


@pytest.mark.parametrize(
    ("table", "message"),
    [
        ([[1, 2, 0], [2, 0, 1], [0, 1, 2]], "identity must be element 0"),
        (ONE_SIDED_LOOP, "inverses are not two-sided"),
        (SWAPPED_Z6, "associativity fails for triples with middle element"),
        ([[0, 1, 2], [1, 2, 0], [2, 0, 0]], "some row is not a permutation"),
        ([[0, 1], [0, 1]], "some column is not a permutation"),
    ],
)
def test_cayley_group_constructor_rejects_non_groups(table, message):
    with pytest.raises(GroupValidationError, match=message):
        CayleyGroup(table)


def test_cayley_group_takes_only_a_table():
    group = CayleyGroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert group.order == 3 and group.inverse.tolist() == [0, 2, 1]
    with pytest.raises(TypeError):
        CayleyGroup(order=group.order, table=group.table, inverse=group.inverse)


def test_validate_group_copies_read_only_view():
    base = (np.add.outer(np.arange(5), np.arange(5)) % 5).astype(np.int32)
    view = base.view()
    view.setflags(write=False)
    group = validate_group(view)
    assert not np.shares_memory(group.table, base)
    base[1, 1] = 0
    assert group.table[1].tolist() == [1, 2, 3, 4, 0]


@pytest.mark.parametrize("dtype", [np.int32, np.uint16])
def test_validate_group_copies_array_frozen_after_a_view(dtype):
    a = (np.add.outer(np.arange(5), np.arange(5)) % 5).astype(dtype)
    w = a[:]
    a.setflags(write=False)
    group = validate_group(a)
    w[1, 1] = 0
    assert group.table[1].tolist() == [1, 2, 3, 4, 0]


@pytest.mark.parametrize(
    "make",
    [
        lambda: CayleyGroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]]),
        lambda: CayleyGroup(np.array([[0, 1], [1, 0]], dtype=np.int8)),
        lambda: CayleyGroup(np.array([[0, 1], [1, 0]], dtype=np.uint64)),
        lambda: build_cyclic(12),
        lambda: build_semidirect(7),
    ],
    ids=["list", "int8", "uint64", "cyclic", "semidirect"],
)
def test_tables_are_read_only_uint16(make):
    group = make()
    for arr in (group.table, group.inverse):
        assert arr.dtype == np.uint16
        assert not arr.flags.writeable


def test_order_cap_fits_the_index_dtype():
    assert GROUP_ORDER_CAP <= np.iinfo(build_cyclic(2).table.dtype).max


# Z/3 with one entry replaced by a value that wraps to 1 (65537, 2**32 + 1)
# or to 65535 (-1) in 16 bits; only the range check before the cast catches them
@pytest.mark.parametrize("entry", [65537, 2**32 + 1, -1])
def test_out_of_range_entries_do_not_wrap_into_range(entry):
    table = [[0, entry, 2], [1, 2, 0], [2, 0, 1]]
    with pytest.raises(GroupValidationError, match="table entries must be element indices"):
        validate_group(table)


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("x\n", GroupFileError, "first line must be the order, got 'x'"),
        ("0\n", GroupFileError, "group order must be at least 1, got 0"),
        ("-2\n", GroupFileError, "group order must be at least 1, got -2"),
        ("0\n0 1\n", GroupFileError, "group order must be at least 1, got 0"),
        # n >= 1 comes before the cap, and the cap before the row count
        ("-20000\n", GroupFileError, "group order must be at least 1, got -20000"),
        ("10001\n0\n", GroupValidationError, "order 10001 exceeds cap 10000"),
        ("1\n", GroupFileError, "expected 1 rows after the order line, got 0"),
    ],
    ids=["word", "zero", "negative", "zero-with-row", "negative-over-cap", "over-cap", "no-rows"],
)
def test_parse_group_text_order_line_checks_in_order(text, error, message):
    with pytest.raises(error) as info:
        parse_group_text(text)
    assert type(info.value) is error and str(info.value) == message


def _subgroups_oracle(group: CayleyGroup, q: int):
    """find_cyclic_subgroups from element_orders: each order-q element not yet seen, in turn."""
    orders = element_orders(group)
    seen: set[int] = set()
    out = []
    for g in np.nonzero(orders == q)[0].tolist():
        if g not in seen:
            elems = {_power(group, g, k) for k in range(q)}
            seen |= elems
            out.append(CyclicSubgroup(generator=g, order=q, elements=tuple(sorted(elems))))
    return tuple(out)


def _rho_bar_oracle(group: CayleyGroup, q: int):
    """Per subgroup: its normalizer by conjugating every subgroup element by every
    group element, the image of rho, and the smallest witness per residue."""
    out = []
    for sub in _subgroups_oracle(group, q):
        members = set(sub.elements)
        exponent = {_power(group, sub.generator, k): k for k in range(q)}
        norm = [
            x for x in range(group.order) if all(group.conjugate(x, e) in members for e in sub.elements)
        ]
        rho = {x: exponent[group.conjugate(x, sub.generator)] for x in norm}
        witnesses = {}
        for r in range(1, q):
            for sign in (1, -1):
                hits = [x for x in norm if rho[x] == sign * r % q]
                if hits:
                    witnesses[r] = (min(hits), sign)
                    break
        out.append((sub, tuple(norm), tuple(sorted(set(rho.values()))), witnesses))
    return out


@st.composite
def oracle_groups(draw):
    """Relabeled groups, some above the order 64 where the generating set turns greedy."""
    if draw(st.booleans()):
        group = draw(st.sampled_from(RHO_GROUPS))()
    else:
        group = build_cyclic(draw(st.integers(65, 100)))
    rest = draw(st.permutations(range(1, group.order)))
    divisors = [q for q in range(2, group.order + 1) if group.order % q == 0 and is_prime(q)]
    q = draw(st.sampled_from(sorted({*divisors, 2, 3, 5})))
    return _relabeled(group, [0, *rest]), q


@settings(max_examples=100, deadline=None)
@given(oracle_groups())
def test_subgroups_normalizers_and_rho_bar_match_oracles(group_and_q):
    group, q = group_and_q
    assert find_cyclic_subgroups(group, q) == _subgroups_oracle(group, q)
    expected = _rho_bar_oracle(group, q)
    report = rho_bar_surjective(group, q)
    assert [(r.subgroup, r.image, r.witnesses, r.covered) for r in report.subgroup_reports] == [
        (sub, image, witnesses, len(witnesses) == q - 1) for sub, _, image, witnesses in expected
    ]
    covering = [witnesses for *_, witnesses in expected if len(witnesses) == q - 1]
    assert report.holds == bool(covering)
    assert report.witnesses == (covering[0] if covering else {})
    for sub, norm, _, _ in expected:
        assert normalizer(group, sub) == norm


def test_generating_set_drops_generators_on_a_later_power_orbit():
    # greedy adjoins 1, 2, 42; the element 1 = (0, 2) is a power of 2 = (0, 3)
    assert _generating_set(build_semidirect(43).table) == [2, 42]


def _generating_set_by_search(table: np.ndarray) -> list[int]:
    """_generating_set without its shortcut: the closure is searched after every new generator."""
    n = table.shape[0]
    if n <= group_condition._SMALL_ORDER:
        return list(range(1, n))
    known = np.zeros(n, dtype=bool)
    known[0] = True
    gens: list[int] = []
    while not known.all():
        g = int(np.nonzero(~known)[0][0])
        row = table[g].tolist()
        orbit = {g}
        cur = row[g]
        while cur not in orbit:
            orbit.add(cur)
            cur = row[cur]
        gens = [h for h in gens if h not in orbit]
        gens.append(g)
        known[g] = True
        frontier = np.array([g])
        while frontier.size and not known.all():
            kidx = np.nonzero(known)[0]
            reached = np.zeros(n, dtype=bool)
            reached[table[np.ix_(frontier, kidx)]] = True
            reached[table[np.ix_(kidx, frontier)]] = True
            frontier = np.nonzero(reached & ~known)[0]
            known[frontier] = True
    return gens


@st.composite
def generating_set_tables(draw):
    """Tables above order 64: relabeled cyclic and semidirect groups, corrupted groups and random magmas.

    Some magmas hold Z/m on their first m > n/2 elements, so the orbit of
    1 is most of the table but its closure is not all of it.
    """
    kind = draw(st.sampled_from(["cyclic", "semidirect", "corrupted", "magma", "submagma"]))
    if kind == "corrupted":
        return draw(large_corrupted_tables())
    if kind in ("magma", "submagma"):
        n = draw(st.integers(65, 120))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        table = rng.integers(0, n, (n, n))
        if kind == "submagma":
            m = draw(st.integers(n // 2 + 1, n - 1))
            table[:m, :m] = np.add.outer(np.arange(m), np.arange(m)) % m
        return table
    group = build_cyclic(draw(st.integers(65, 400))) if kind == "cyclic" else build_semidirect(draw(st.sampled_from([11, 13, 17])))
    # a relabeling fixing 0, or none, which keeps 1 a generator of a cyclic group
    rest = draw(st.permutations(range(1, group.order)) | st.just(range(1, group.order)))
    return _relabeled(group, [0, *rest]).table


@settings(max_examples=150, deadline=None)
@given(generating_set_tables())
def test_generating_set_matches_the_closure_search(t):
    assert _generating_set(t) == _generating_set_by_search(t)


def test_generating_set_of_a_cyclic_table_is_its_first_generator():
    # the orbit of 1 is the whole group, so no closure is searched
    assert _generating_set(build_cyclic(1806).table) == [1]


def _brute_closure(table: np.ndarray, gens) -> np.ndarray:
    """Elements reached from 0 and gens by all products of reached pairs, until none is new."""
    known = np.zeros(table.shape[0], dtype=bool)
    known[[0, *gens]] = True
    while True:
        members = np.nonzero(known)[0]
        prods = table[np.ix_(members, members)]
        if known[prods].all():
            return known
        known[prods] = True


def _row_intercalates(t: np.ndarray, i: int) -> np.ndarray:
    """(k, j, l) with t[i,j] = t[k,l], t[i,l] = t[k,j], k != i and j != l."""
    n = t.shape[0]
    # for a row k that is a permutation, argsort(t)[k, v] is the column holding v
    cols = np.argsort(t, axis=1)[:, t[i]]
    rows = np.arange(n)[:, None]
    ok = (t[rows, cols] == t[i]) & (t[i][cols] == t) & (cols != np.arange(n)) & (rows != i)
    return [(k, j, int(cols[k, j])) for k, j in np.argwhere(ok).tolist()]


@st.composite
def large_corrupted_tables(draw):
    """Tables of order 65-160: a group table with intercalate and cell swaps."""
    if draw(st.booleans()):
        t = build_cyclic(draw(st.integers(65, 160))).table.astype(np.int64)
    else:
        t = build_semidirect(draw(st.sampled_from([11, 13]))).table.astype(np.int64)
    n = t.shape[0]
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for kind in draw(st.lists(st.sampled_from(["swap", "intercalate", "intercalate"]), max_size=3)):
        if kind == "swap":
            (i1, j1), (i2, j2) = draw(cell), draw(cell)
            t[i1, j1], t[i2, j2] = t[i2, j2], t[i1, j1]
        else:
            i = draw(st.integers(0, n - 1))
            squares = _row_intercalates(t, i)
            if squares:
                k, j, l = draw(st.sampled_from(squares))
                t[[i, k], j], t[[i, k], l] = t[[i, k], l], t[[i, k], j]
    return t


def _check_generating_set_and_associativity(t):
    n = t.shape[0]
    assert _brute_closure(t, _generating_set(t)).all()
    # (x*y)*z and x*(y*z) for every triple, indexed [x, y, z]
    left = t[t]
    right = t[np.arange(n)[:, None, None], t[None, :, :]]
    idx = np.arange(n)
    is_group = (
        np.array_equal(t[0], idx)
        and np.array_equal(t[:, 0], idx)
        and (np.sort(t, axis=1) == idx).all()
        and (np.sort(t, axis=0) == idx[:, None]).all()
        and np.array_equal(left, right)
    )
    try:
        validate_group(t)
    except GroupValidationError as exc:
        assert not is_group
        prefix = "associativity fails for triples with middle element "
        if str(exc).startswith(prefix):
            g = int(str(exc)[len(prefix) :])
            assert not np.array_equal(left[:, g, :], right[:, g, :])
    else:
        assert is_group and np.array_equal(left, right)


@settings(max_examples=100, deadline=None)
@given(large_corrupted_tables())
def test_large_tables_generating_set_and_associativity(t):
    _check_generating_set_and_associativity(t)


@settings(max_examples=100, deadline=None)
@given(large_corrupted_tables())
def test_large_tables_generating_set_and_associativity_on_two_threads(t):
    with mock.patch.object(group_condition, "_SPLIT_ORDER", 1):
        _check_generating_set_and_associativity(t)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_build_semidirect_on_two_threads_fills_the_same_table(p):
    table = build_semidirect(p).table
    with mock.patch.object(group_condition, "_SPLIT_ORDER", 1):
        assert np.array_equal(build_semidirect(p).table, table)


def test_split_rows_runs_the_upper_half_in_a_helper_thread():
    caller = threading.get_ident()
    calls = []

    def work(lo, hi):
        calls.append((lo, hi, threading.get_ident() == caller))

    n = group_condition._SPLIT_ORDER
    _split_rows(work, n - 1)
    assert calls == [(0, n - 1, True)]
    calls.clear()
    _split_rows(work, 9312, unit=96)
    assert sorted(calls) == [(0, 4608, True), (4608, 9312, False)]


def test_split_rows_raises_the_helpers_exception_and_joins_it():
    before = threading.active_count()

    def work(lo, hi):
        if lo > 0:
            raise ZeroDivisionError(f"rows {lo}..{hi - 1}")

    n = group_condition._SPLIT_ORDER
    with pytest.raises(ZeroDivisionError, match=f"rows {n // 2}..{n - 1}"):
        _split_rows(work, n)
    assert threading.active_count() == before


def test_split_light_test_reports_a_defect_in_the_helpers_rows_like_one_pass():
    n = group_condition._SPLIT_ORDER
    t = build_cyclic(n).table.copy()
    # swap the entries 1 and 2 of the last row: for the generator 1,
    # only rows n - 2 and n - 1 see it, both in the helper's half; for
    # n/2 + 1 row n/2 - 2 of the caller's half sees it too
    t[n - 1, [2, 3]] = t[n - 1, [3, 2]]
    gens = [1, n // 2 + 1]
    with mock.patch.object(group_condition, "_SPLIT_ORDER", n + 1):
        with pytest.raises(GroupValidationError) as serial_light:
            _check_associativity(t, gens)
        with pytest.raises(GroupValidationError) as serial_validate:
            validate_group(t)
    with pytest.raises(GroupValidationError) as light:
        _check_associativity(t, gens)
    with pytest.raises(GroupValidationError) as validate:
        validate_group(t)
    assert str(light.value) == str(serial_light.value) == "associativity fails for triples with middle element 1"
    # Light's test rejects the table, then the Latin scan names the column
    assert str(validate.value) == str(serial_validate.value) == "some column is not a permutation"


def test_split_light_test_under_concurrent_callers_and_fast_thread_switches():
    # four callers at once, each with a helper thread, on two cores; a
    # lost or crossed write of a half's first failure changes a message
    n = group_condition._SPLIT_ORDER
    base = build_cyclic(n).table
    gens = [1, n // 2 + 1, 3]
    cases = []
    for row in (5, n // 2 - 1, n // 2 + 7, n - 1):
        t = base.copy()
        t[row, [2, 3]] = t[row, [3, 2]]
        with mock.patch.object(group_condition, "_SPLIT_ORDER", n + 1):
            with pytest.raises(GroupValidationError) as serial:
                _check_associativity(t, gens)
        cases.append((t, str(serial.value)))
    got = [[] for _ in cases]

    def caller(i):
        t, _ = cases[i]
        for _ in range(10):
            try:
                _check_associativity(t, gens)
            except GroupValidationError as exc:
                got[i].append(str(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(i,)) for i in range(len(cases))]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert got == [[message] * 10 for _, message in cases]
