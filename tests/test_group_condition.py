import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfmaps.group_condition import (
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
def corrupted_tables(draw):
    t = [row[:] for row in draw(st.sampled_from(BASE_TABLES))]
    n = len(t)
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    kinds = st.sampled_from(["swap", "intercalate", "relabel", "rows"])
    for kind in draw(st.lists(kinds, max_size=3)):
        if kind == "swap":
            (i1, j1), (i2, j2) = draw(cell), draw(cell)
            t[i1][j1], t[i2][j2] = t[i2][j2], t[i1][j1]
        elif kind == "intercalate":
            squares = _intercalates(t)
            if squares:
                i, k, j, l = draw(st.sampled_from(squares))
                t[i][j], t[i][l] = t[i][l], t[i][j]
                t[k][j], t[k][l] = t[k][l], t[k][j]
        elif kind == "relabel":
            # an isomorphic table whose identity can move away from 0
            sigma = draw(st.permutations(range(n)))
            relabeled = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    relabeled[sigma[i]][sigma[j]] = sigma[t[i][j]]
            t = relabeled
        else:
            t = [t[i] for i in draw(st.permutations(range(n)))]
    return t


@settings(max_examples=300, deadline=None)
@given(corrupted_tables())
def test_validate_group_matches_ordered_oracle(table):
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
        assert int(got[len(prefix) :]) in bad_middles


def test_validate_group_copy_semantics():
    base = (np.add.outer(np.arange(6), np.arange(6)) % 6).astype(np.int32)
    frozen = base.copy()
    frozen.setflags(write=False)
    assert np.shares_memory(validate_group(frozen).table, frozen)
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
