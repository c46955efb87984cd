import sys

import pytest

from zdg import algebra
from zdg.algebra import (
    CayleyTable,
    emit_table_csv,
    closure_violation,
    ideal_violation,
    parse_table_csv,
    same_products,
    validate,
)
from zdg.errors import InputError
from zdg.graph import LabeledGraph

TRIVIAL = CayleyTable(["0"], [[0]])


def test_validate_golden_table(table3):
    report = validate(table3)
    assert report.commutative and report.zero_ok and report.associative
    assert report.first_failure is None


def test_validate_one_element_table():
    report = validate(TRIVIAL)
    assert report.ok


def test_validate_detects_broken_associativity(table6):
    mutated = table6.with_cell("y1", "y2", "b")
    report = validate(mutated)
    assert report.commutative  # with_cell sets both symmetric cells
    assert not report.associative
    fail = report.first_failure
    assert fail is not None
    # re-check the reported triple by direct multiplication
    left = mutated.rows[mutated.rows[fail.i][fail.j]][fail.k]
    right = mutated.rows[fail.i][mutated.rows[fail.j][fail.k]]
    assert left == fail.left and right == fail.right and left != right


def test_validate_first_failure_is_the_least_failing_triple(table6):
    mutated = table6.with_cell("y1", "y2", "b")
    rows = mutated.rows
    n = mutated.order
    least = next(
        (i, j, k, rows[rows[i][j]][k], rows[i][rows[j][k]])
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if rows[rows[i][j]][k] != rows[i][rows[j][k]]
    )
    fail = validate(mutated).first_failure
    assert (fail.i, fail.j, fail.k, fail.left, fail.right) == least


def test_validate_is_deterministic(table5):
    assert validate(table5) == validate(table5)


def test_validate_scans_a_table_once(monkeypatch, small_table_corpus, table6):
    scans = []
    scan = algebra._scan

    def counting(table):
        scans.append(table)
        return scan(table)

    monkeypatch.setattr(algebra, "_scan", counting)
    # fresh objects: the session's tables may carry a report already
    valid = [CayleyTable(t.names, t.rows) for t in small_table_corpus]
    invalid = [
        table6.with_cell("y1", "y2", "b"),  # not associative
        CayleyTable(["0", "a", "b"], [[0, 0, 0], [0, 0, 1], [0, 2, 0]]),  # not commutative
        CayleyTable(["0", "a"], [[0, 1], [1, 1]]),  # 0 does not absorb
    ]
    for table in valid + invalid:
        report = validate(table)
        assert validate(table) is report
        assert report == scan(table)
    assert [id(t) for t in scans] == [id(t) for t in valid + invalid]
    assert all(validate(t).ok for t in valid) and not any(validate(t).ok for t in invalid)
    assert len({id(validate(t)) for t in valid}) == 1  # valid tables share one report
    # a with_cell copy is a new table with a report of its own
    base = CayleyTable(table6.names, table6.rows)
    assert validate(base).ok
    broken = base.with_cell("y1", "y2", "b")
    assert not validate(broken).ok and validate(broken) == scan(broken)
    assert validate(broken.with_cell("y1", "y2", "a")).ok  # table6's own cell again
    assert len(scans) == len(valid) + len(invalid) + 3


def test_subsemigroup_examples(table3):
    everything = set(table3.names)
    assert closure_violation(table3, everything - {"y1", "y2", "u1"}) is None
    violation = closure_violation(table3, everything - {"x1", "x2"})
    assert violation == ("u1", "v1", "x1") or violation[2] in {"x1", "x2"}
    assert closure_violation(table3, {"0"}) is None


def test_ideal_examples(table3):
    assert ideal_violation(table3, {"0", "a", "b"}) is None
    assert ideal_violation(table3, {"0"}) is None
    assert ideal_violation(table3, {"0", "d"}) is None
    assert ideal_violation(table3, {"0", "u1"}) is not None
    with pytest.raises(InputError):
        ideal_violation(table3, {"0", "nope"})


def test_ideal_implies_subsemigroup(small_table_corpus):
    import itertools

    for table in small_table_corpus[:3]:
        names = table.names
        for size in (1, 2, 3):
            for subset in itertools.islice(itertools.combinations(names, size), 60):
                if ideal_violation(table, subset) is None:
                    assert closure_violation(table, subset) is None


def test_tables_are_immutable(table6):
    mutated = table6.with_cell("y1", "y2", "b")
    assert table6.mul("y1", "y2") == "a"
    assert mutated.mul("y1", "y2") == "b"
    assert mutated.mul("y2", "y1") == "b"
    with pytest.raises(AttributeError):
        table6.names = ()


def test_construction_errors():
    with pytest.raises(InputError):
        CayleyTable([], [])
    with pytest.raises(InputError):
        CayleyTable(["z"], [[0]])  # zero must come first, named "0"
    with pytest.raises(InputError):
        CayleyTable(["0", "a", "a"], [[0] * 3] * 3)
    with pytest.raises(InputError):
        CayleyTable(["0", "a b"], [[0, 0], [0, 0]])
    with pytest.raises(InputError):
        CayleyTable(["0", "a"], [[0, 0]])  # not square
    with pytest.raises(InputError):
        CayleyTable(["0", "a"], [[0, 0], [0, 7]])  # out of range


def test_names_hold_no_whitespace_character():
    # every character str.isspace() accepts, including the separators that
    # are no ASCII whitespace, on its own or inside a name
    spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    assert {"\x1c", "\x85", "\xa0", "\u3000"} <= set(spaces)
    for bad in ["", *spaces, *(f"a{ch}b" for ch in spaces)]:
        with pytest.raises(InputError):
            CayleyTable(["0", bad], [[0, 0], [0, 0]])
        with pytest.raises(InputError):
            LabeledGraph([bad])
    for good in ("a-b", "é"):
        assert CayleyTable(["0", good], [[0, 0], [0, 0]]).names[1] == good
        assert LabeledGraph([good]).vertices == (good,)


def test_csv_round_trip(table5):
    text = emit_table_csv(table5)
    again = parse_table_csv(text)
    assert again == table5
    assert emit_table_csv(again) == text  # byte-identical for canonical files


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("x,0\n0,0\n", "header"),
        ("*,a\na,a\n", 'first element must be "0"'),
        ("*,0,a\n0,0,0\n", "expected 2 body rows"),
        ("*,0,a\n0,0,0\na,0\n", "fields"),
        ("*,0,a\na,0,a\n0,0,0\n", "row label"),
        ("*,0,a\n0,0,0\na,0,q\n", "unknown element"),
        ("*,0,a,b\n0,0,0,0\na,0,a,a\nb,0,b,b\n", "not symmetric"),
        ("*,0,a\n0,0,a\na,a,a\n", "zero row"),
    ],
)
def test_csv_parse_errors(text, fragment):
    with pytest.raises(InputError) as err:
        parse_table_csv(text)
    assert fragment in str(err.value)


def test_same_products_ignores_element_order(table3):
    # reorder elements, keep the multiplication
    names = [table3.names[0]] + sorted(table3.names[1:])
    perm = [table3.names.index(nm) for nm in names]
    rows = [
        [names.index(table3.names[table3.rows[i][j]]) for j in perm] for i in perm
    ]
    shuffled = CayleyTable(names, rows)
    assert same_products(table3, shuffled)
    assert shuffled != table3  # positional equality is order-sensitive


def _permuted(table, names):
    """``table`` with its elements listed in the order ``names``."""
    perm = [table.index(nm) for nm in names]
    where = {v: k for k, v in enumerate(perm)}
    return CayleyTable(names, [[where[table.rows[i][j]] for j in perm] for i in perm])


def _same_products_by_name(t1, t2):
    return set(t1.names) == set(t2.names) and all(
        t1.mul(x, y) == t2.mul(x, y) for x in t1.names for y in t1.names
    )


def test_same_products_under_a_permuted_name_order(small_table_corpus):
    for table in small_table_corpus:
        names = (table.names[0],) + table.names[:0:-1]  # nonzero names reversed
        other = _permuted(table, names)
        assert same_products(table, other) and same_products(other, table)
        # changing one product breaks the match, wherever it sits
        x, y = table.names[1], table.names[-1]
        for value in table.names:
            changed = other.with_cell(x, y, value)
            assert same_products(table, changed) == _same_products_by_name(table, changed)
            assert same_products(table, changed) == (value == table.mul(x, y))
    t3, t5 = small_table_corpus[0], small_table_corpus[2]
    assert not same_products(t3, t5) and not _same_products_by_name(t3, t5)
