import hashlib
from collections import defaultdict

import pytest

from zdg.acceptance import GOLDEN, load_golden_table, sweep_specs
from zdg.algebra import CayleyTable
from zdg.errors import InputError
from zdg.families import FamilySpec, generate_table
from zdg.graph import _layers, _witness_edges, zero_divisor_graph
from zdg.search import enumerate_tables
from zdg.theorems import ClaimCheck, TheoremReport, _claims, _layout, _witness_claims, run_all


def _check(table, prefix, subject=None):
    """The claims of ``_claims(table)`` named ``prefix``..., on ``subject`` if given."""
    return TheoremReport(tuple(
        c for c in _claims(table)
        if c.claim.startswith(prefix) and subject in (None, c.subject)
    ))


def _by_claim(report, claim):
    return [c for c in report.checks if c.claim == claim]


W_AB = "witness=(a,b,y1,v1)"
W_BA = "witness=(b,a,y1,v1)"


def test_square_nonzero_checker(table3, table5):
    report = _check(table3, "lemma_2_1")
    subjects = {c.subject for c in report.checks if c.applicable}
    assert "x=y1" in subjects and "x=u1" in subjects
    assert not report.failures()
    report5 = _check(table5, "lemma_2_1")
    assert any(c.subject == "x=c1" and c.holds for c in report5.checks)


def test_square_nonzero_vacuous_on_small_diameter():
    # null semigroup on two generators: diameter 1, nothing at distance 3
    table = CayleyTable(["0", "a", "b"], [[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    report = _check(table, "lemma_2_1")
    assert report.checks and all(not c.applicable for c in report.checks)


def test_end_vertex_checker(table3, table6):
    report = _check(table3, "prop_2_2", "b=a")
    part1 = _by_claim(report, "prop_2_2.1")[0]
    part2 = _by_claim(report, "prop_2_2.2")[0]
    assert part1.applicable and part1.holds
    assert part2.applicable and part2.holds

    report = _check(table6, "prop_2_2", "b=x1")
    part1 = _by_claim(report, "prop_2_2.1")[0]
    part2 = _by_claim(report, "prop_2_2.2")[0]
    assert not part1.applicable  # x1*x1 = 0
    assert part2.applicable and part2.holds

    # an end vertex is vacuous for part 2
    report = _check(table3, "prop_2_2", "b=u1")
    assert not _by_claim(report, "prop_2_2.2")[0].applicable


def test_main_structure_checker(table3):
    report = _check(table3, "thm_2_4", W_AB)
    names = {c.claim: c for c in report.checks}
    assert names["thm_2_4.ideal_0ab"].holds
    assert names["thm_2_4.ideal_complement"].holds
    assert names["thm_2_4.l_closed"].holds
    assert not names["thm_2_4.case1_ideal"].applicable  # a has an end vertex
    assert not report.failures()
    # flipped orientation: the end-free endpoint plays the internal role
    report2 = _check(table3, "thm_2_4", W_BA)
    case2 = {c.claim: c for c in report2.checks}["thm_2_4.case2_subsemigroup"]
    assert case2.applicable and case2.holds


def test_main_structure_checker_on_square_family(table5):
    report = _check(table5, "thm_2_4", "witness=(a,b,c1,y1)")
    names = {c.claim: c for c in report.checks}
    assert names["thm_2_4.l_closed"].holds  # y1*y2 stays inside L
    assert not names["thm_2_4.case2_subsemigroup"].applicable  # b*b = 0
    assert not report.failures()


def test_two_singleton_ideals_checker(table3, table5):
    [check] = _check(table3, "thm_2_6", W_BA).checks
    assert check.applicable and check.holds
    # on the square family the roles never line up: b*b = 0 there
    [check5] = _check(table5, "thm_2_6", "witness=(a,b,c1,y1)").checks
    assert not check5.applicable


def test_cap_adjunction_checker(table3):
    [check] = _check(table3, "prop_2_8", W_BA).checks
    assert check.applicable and check.holds
    assert check.detail == "c=y1"  # y1*u1 = y1 and y1*y1 = d keep the set closed


def test_cap_adjunction_both_internal():
    table = generate_table(FamilySpec("fig5", m=2, n=2, v=0))
    [check] = _check(table, "prop_2_8", "witness=(a,b,c1,y1)").checks
    assert check.applicable and check.holds
    assert check.detail.startswith("c=c")


def test_run_all_on_fixtures(table3, table4, table5, table6, table7):
    for table in (table3, table4, table5, table6, table7):
        report = run_all(table)
        assert not report.failures()


def test_run_all_trivial_table():
    report = run_all(CayleyTable(["0"], [[0]]))
    assert all(not c.applicable for c in report.checks)
    assert not report.failures()


def test_run_all_requires_valid_table(table6):
    broken = table6.with_cell("y1", "y2", "b")
    with pytest.raises(InputError):
        run_all(broken)


def test_report_serialization_is_stable(table6):
    report = run_all(table6)
    text = report.to_text()
    assert text == run_all(table6).to_text()
    lines = text.splitlines()
    assert lines == sorted(lines)
    assert all(line.startswith("CLAIM ") for line in lines)
    assert any("vacuous" in line for line in lines)
    assert any(" holds" in line for line in lines)


FIG3 = "fig3_2_2_1_2"

# claim: (table, planted cells x*y := z, the claim's subject, the failing line).
# Every planted table keeps its zero-divisor graph, so the witness stays valid.
PLANTED = {
    "lemma_2_1": (
        FIG3, [("y1", "y1", "0")], "x=y1",
        "CLAIM lemma_2_1[x=y1] applicable fails d(y1,v1)=3 and y1*y1=0",
    ),
    "prop_2_2.1": (
        FIG3, [("u1", "u1", "a")], "b=a",
        "CLAIM prop_2_2.1[b=a] applicable fails u1*u1=a",
    ),
    # x1*y2 = a pushes a product out of the ideal {0, x1}
    "prop_2_2.2": (
        "kn2_4", [("x1", "y2", "a")], "b=x1",
        "CLAIM prop_2_2.2[b=x1] applicable fails x1*y2=a",
    ),
    "thm_2_4.ideal_0ab": (
        FIG3, [("a", "a", "d")], W_AB,
        "CLAIM thm_2_4.ideal_0ab[witness=(a,b,y1,v1)] applicable fails a*a=d",
    ),
    "thm_2_4.ideal_complement": (
        FIG3, [("a", "a", "y1")], W_AB,
        "CLAIM thm_2_4.ideal_complement[witness=(a,b,y1,v1)] applicable fails a*a=y1",
    ),
    "thm_2_4.l_closed": (
        FIG3, [("v1", "v1", "a")], W_AB,
        "CLAIM thm_2_4.l_closed[witness=(a,b,y1,v1)] applicable fails v1*v1=a",
    ),
    "thm_2_4.case1_ideal": (
        FamilySpec("fig5", m=2, n=2, v=0), [("a", "a", "c1")], "witness=(a,b,c1,y1)",
        "CLAIM thm_2_4.case1_ideal[witness=(a,b,c1,y1)] applicable fails a*a=c1",
    ),
    "thm_2_4.case2_subsemigroup": (
        FIG3, [("a", "a", "y1")], W_BA,
        "CLAIM thm_2_4.case2_subsemigroup[witness=(b,a,y1,v1)] applicable fails a*a=y1",
    ),
    "thm_2_6": (
        FIG3, [("a", "a", "d")], W_BA,
        "CLAIM thm_2_6[witness=(b,a,y1,v1)] applicable fails a*a=d",
    ),
    "prop_2_8": (
        FIG3, [("a", "a", "y1"), ("a", "v1", "y2")], W_BA,
        "CLAIM prop_2_8[witness=(b,a,y1,v1)] applicable fails no cap works",
    ),
}


@pytest.mark.parametrize("claim", PLANTED)
def test_planted_violation_fails_its_claim(claim):
    # run_all refuses these tables (they are not associative), so the
    # claims come from _claims, which skips that check
    base, cells, subject, line = PLANTED[claim]
    table = load_golden_table(base) if isinstance(base, str) else generate_table(base)
    planted = table
    for x, y, z in cells:
        planted = planted.with_cell(x, y, z)
    assert zero_divisor_graph(planted).same_graph(zero_divisor_graph(table))
    with pytest.raises(InputError):
        run_all(planted)
    [bad] = [c for c in _check(planted, claim, subject).checks if c.line() == line]
    assert bad.claim == claim and bad.applicable and bad.holds is False
    # the same claim holds on the table the violation was planted in
    [good] = _by_claim(_check(table, claim, subject), claim)
    assert good.applicable and good.holds, good.line()


@pytest.fixture(scope="module")
def golden_and_sweep():
    """The 5 golden and 247 sweep tables."""
    tables = [load_golden_table(name) for name in GOLDEN]
    return tables + [generate_table(spec) for spec in sweep_specs()]


def test_theorem_output_pinned(golden_and_sweep):
    # every claim line of run_all on the 5 golden and 247 sweep tables, in
    # order, pinned by one digest
    text = "".join(
        "\n".join(c.line() for c in run_all(t).checks) + "\n\n" for t in golden_and_sweep
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e3ba194149fef8183c7b0d765c892e8ade76098ae7897d0333acbbc82fdf27e1"
    )


def _claim_digest(tables):
    """sha256 of every claim line of run_all on ``tables``, in order, as above."""
    text = "".join("\n".join(c.line() for c in run_all(t).checks) + "\n\n" for t in tables)
    return hashlib.sha256(text.encode()).hexdigest()


def test_theorem_output_pinned_on_five_vertex_tables(bench_graphs):
    # every table that realizes one of the 21 five-vertex classes, class by
    # class in file order: witnesses, caps and end vertices the paper's
    # families do not reach
    tables = [t for g in bench_graphs[5] for t in enumerate_tables(g).tables]
    assert len(tables) == 6414
    assert _claim_digest(tables) == (
        "1d82f50ee1a6020b8efbfdcee3e163eafa91284a09c5dcae83f7e87ff5d1d995"
    )


def test_theorem_output_pinned_on_every_order_4_semigroup(order4_semigroups):
    assert _claim_digest(order4_semigroups) == (
        "c17ccaf24ad66419607f826b0c315254a1fcacce40d205d09de642a9a7d5e509"
    )


def test_claim_check_is_a_read_only_record(table6):
    check = ClaimCheck("thm_2_6", "witness=(b,a,y1,v1)", True, False, "a*a=d")
    for field in ("claim", "subject", "applicable", "holds", "detail"):
        with pytest.raises(AttributeError):
            setattr(check, field, None)
    assert check == ("thm_2_6", "witness=(b,a,y1,v1)", True, False, "a*a=d")
    claim, _, applicable, holds, detail = check
    assert (claim, applicable, holds, detail) == ("thm_2_6", True, False, "a*a=d")
    assert check.line() == "CLAIM thm_2_6[witness=(b,a,y1,v1)] applicable fails a*a=d"
    assert ClaimCheck("prop_2_2.1", "b=a", True, True).line() == (
        "CLAIM prop_2_2.1[b=a] applicable holds"
    )
    assert ClaimCheck("lemma_2_1", "", False, None, "no pair at distance 3").line() == (
        "CLAIM lemma_2_1 vacuous - no pair at distance 3"
    )
    report = run_all(table6)
    assert report.failures() == ()
    planted = TheoremReport(report.checks + (check,))
    assert planted.failures() == (check,)
    assert report.to_text() == TABLE6_TEXT
    assert planted.to_text() == "".join(sorted((TABLE6_TEXT + check.line() + "\n").splitlines(True)))


TABLE6_TEXT = """\
CLAIM lemma_2_1[x=y1] applicable holds d(y1,y2)=3 and y1*y1=y1
CLAIM lemma_2_1[x=y2] applicable holds d(y2,y1)=3 and y2*y2=y2
CLAIM prop_2_2.1[b=a] vacuous - T_b empty
CLAIM prop_2_2.1[b=b] vacuous - b^2=0
CLAIM prop_2_2.1[b=x1] vacuous - x1^2=0
CLAIM prop_2_2.1[b=x2] vacuous - x2^2=0
CLAIM prop_2_2.1[b=y1] vacuous - T_b empty
CLAIM prop_2_2.1[b=y2] vacuous - T_b empty
CLAIM prop_2_2.2[b=a] vacuous - T_b empty
CLAIM prop_2_2.2[b=b] vacuous - T_b empty
CLAIM prop_2_2.2[b=x1] applicable holds
CLAIM prop_2_2.2[b=x2] applicable holds
CLAIM prop_2_2.2[b=y1] vacuous - T_b empty
CLAIM prop_2_2.2[b=y2] vacuous - T_b empty
CLAIM prop_2_8 vacuous - no witness
CLAIM thm_2_4 vacuous - no witness
CLAIM thm_2_6 vacuous - no witness
"""


def test_run_all_shares_witness_claims_like_the_checkers(golden_and_sweep):
    # run_all checks each witness edge (a, b) once and gives every witness
    # (a, b, s, z) on it the same seven checks: what _witness_claims gives
    # for the edge, with only the subject changed. L is shared because every
    # cap s has the same distance-3 layer, the mask of far.
    witnesses = 0
    for t in golden_and_sweep:
        by_subject = defaultdict(list)
        for c in run_all(t).checks:
            by_subject[c.subject].append(c)
        g = zero_divisor_graph(t)
        layout, vn = _layout(t, g), g.vertices
        ws = 0
        for a, b, caps, far in _witness_edges(g):
            own = _witness_claims(layout, a, b, caps, far)
            for s in caps:
                assert _layers(g.masks, s)[3] == sum(1 << z for z in far)
                for z in far:
                    subject = f"witness=({vn[a]},{vn[b]},{vn[s]},{vn[z]})"
                    assert by_subject[subject] == [c._replace(subject=subject) for c in own]
                    ws += 1
        assert sum(len(v) for k, v in by_subject.items() if k.startswith("witness=")) == 7 * ws
        witnesses += ws
    assert witnesses == 1680
