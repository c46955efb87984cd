"""The ten acceptance criteria, one test each, printed as pass/fail lines.

Criterion 5 is split in two: the parts that hold, and the literal part (i).
Part (i) expects fig5(1,1,0) plus an end vertex on a to be unrealizable, but
that graph is isomorphic to fig5(1,1,1), a realizable member of the same
family (the empty-pendant-set corner case). So criterion 5 stays red in
``zdg reproduce``, while the test for part (i) asserts what is true: the
graph is realizable, shown both by the engine's witness and by a relabeled
family table that does not come from the search. The corrected form of the
statement, with a nonempty pendant set on b, is verified in the test of the
parts that hold. See README, "Acceptance suite".
"""
import ast
import inspect
import itertools
import types

import pytest

from zdg import acceptance, search
from zdg.acceptance import (
    ORACLE_GRAPHS,
    Corpus,
    brute_force_realizations,
    criterion_5_parts,
    run_acceptance,
)
from zdg.algebra import validate
from zdg.errors import InputError
from zdg.families import FamilySpec, add_end, generate_graph, generate_table
from zdg.graph import relabel_table, zero_divisor_graph
from zdg.search import Outcome, realize


@pytest.fixture(scope="module")
def results():
    return {r.number: r for r in run_acceptance()}


def test_run_acceptance_reads_criteria_at_call_time_and_reports_crashes(monkeypatch):
    # bench/spans.py swaps in wrapped criteria; bench's judge keys on "crashed"
    def crash(corpus):
        raise ValueError("planted")

    def check(corpus):
        return True, f"{len(corpus.witnesses)} witnesses"

    monkeypatch.setattr(acceptance, "CRITERIA", (crash,) + (check,) * 9)
    crashed, fine = acceptance.run_acceptance([1, 2])
    assert (crashed.number, crashed.passed) == (1, False)
    assert crashed.detail == "crashed: ValueError('planted')"
    assert (fine.number, fine.name, fine.passed) == (2, "extension sweep", True)
    assert fine.line().startswith("criterion  2 [PASS] extension sweep: 0 witnesses (")


def test_run_acceptance_rejects_unknown_criteria(monkeypatch):
    with pytest.raises(InputError, match=r"no such criterion: \[11, 0\]"):
        run_acceptance([11, 0])
    # the count of criteria is read at call time
    monkeypatch.setattr(acceptance, "CRITERIA", acceptance.CRITERIA[:9])
    with pytest.raises(InputError, match=r"no such criterion: \[10\]"):
        run_acceptance([10])


def _report(result):
    print(result.line())
    return result


def test_criterion_01_golden_tables(results):
    r = _report(results[1])
    assert r.passed, r.detail


def test_criterion_02_extension_sweep(results):
    r = _report(results[2])
    assert r.passed, r.detail


def test_criterion_03_nonrealizability_certificates(results):
    r = _report(results[3])
    assert r.passed, r.detail


def test_criterion_04_classification_sweep(results):
    r = _report(results[4])
    assert r.passed, r.detail


def test_criterion_05_parts_that_hold():
    parts = criterion_5_parts(Corpus())
    for key in ("plain", "end_on_x1", "edge_x1_x2", "end_on_a_corrected"):
        ok, detail = parts[key]
        print(f"criterion 5 part {key}: {'PASS' if ok else 'FAIL'} ({detail})")
        assert ok, (key, detail)


def test_criterion_05_end_vertex_on_a_as_specified(results):
    # Literal part (i) expects G = fig5(1,1,0) + end(a) to be unrealizable.
    # It is realizable, so this test asserts that, with two witnesses. The
    # criterion itself stays red, and its report must keep saying why.
    r = _report(results[5])
    assert "engine says realized" in r.detail, r.detail
    assert "graph isomorphic to fig5(1,1,1): True" in r.detail, r.detail

    g = add_end(generate_graph(FamilySpec("fig5", m=1, n=1, v=0)), "a")

    out = realize(g)
    assert out.tag == Outcome.REALIZED, out.reason
    assert validate(out.witness).ok
    assert zero_divisor_graph(out.witness).same_graph(g)

    # A witness that does not come from the search: the family table of
    # fig5(1,1,1), renamed along the isomorphism a->b, b->a, v1->w1 onto G.
    family = generate_table(FamilySpec("fig5", m=1, n=1, v=1))
    relabeled = relabel_table(family, {"a": "b", "b": "a", "v1": "w1"})
    assert validate(relabeled).ok
    assert zero_divisor_graph(relabeled).same_graph(g)


def test_relabel_table_partial_and_bad_mappings():
    family = generate_table(FamilySpec("fig5", m=1, n=1, v=1))
    # a partial permutation keeps the source's name order
    sigma = {"a": "b", "b": "a"}
    swapped = relabel_table(family, sigma)
    assert swapped.names == family.names
    for x in family.names:
        for y in family.names:
            image = family.mul(x, y)
            assert swapped.mul(sigma.get(x, x), sigma.get(y, y)) == sigma.get(image, image)
    assert swapped.rows != family.rows
    # onto a new name: element i of the result is the image of element i
    renamed = relabel_table(family, {"v1": "w1"})
    assert renamed.names == tuple("w1" if x == "v1" else x for x in family.names)
    assert renamed.rows == family.rows
    for bad in ({"a": "b"}, {"a": "0"}, {"0": "z"}, {"nowhere": "a"}):
        with pytest.raises(InputError):
            relabel_table(family, bad)


def test_criterion_06_caps_on_clique(results):
    r = _report(results[6])
    assert r.passed, r.detail


def test_criterion_07_uniqueness_up_to_relabeling(results):
    r = _report(results[7])
    assert r.passed, r.detail


def test_criterion_08_oracle_equivalence(results):
    r = _report(results[8])
    assert r.passed, r.detail


# criterion 8's oracle, checked against the definition and kept apart from the engine

ORACLE_COUNTS = {
    "K2": 6, "P3": 22, "K3": 23, "P4": 2, "K1_3": 173,
    "paw": 36, "C4": 64, "diamond": 94, "K4": 104,
}


def _product_and_filter(g):
    """Every filling of the upper triangle with g's zero pattern (an edge 0,
    a non-edge nonzero, a square anything), kept if all triples associate."""
    n = g.n + 1
    cells = list(itertools.combinations_with_replacement(range(1, n), 2))
    edge = [[g.has_edge(x, y) for y in g.vertices] for x in g.vertices]
    choices = [range(n) if i == j else [0] if edge[i - 1][j - 1] else range(1, n)
               for i, j in cells]
    triples = list(itertools.product(range(n), repeat=3))
    found = set()
    for values in itertools.product(*choices):
        P = [[0] * n for _ in range(n)]
        for (i, j), v in zip(cells, values):
            P[i][j] = P[j][i] = v
        if all(P[P[a][b]][c] == P[a][P[b][c]] for a, b, c in triples):
            found.add(tuple(map(tuple, P)))
    return found


def test_oracle_matches_product_and_filter_on_the_oracle_graphs():
    counts = {}
    for name, g in ORACLE_GRAPHS.items():
        tables = brute_force_realizations(g)
        assert tables == _product_and_filter(g), name
        counts[name] = len(tables)
    assert counts == ORACLE_COUNTS
    assert sum(counts.values()) == 524


def _loaded_names(code):
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _loaded_names(const)
    return names


def test_oracle_loads_no_engine_name():
    # criterion 8 is a cross-check only while the oracle reuses none of the
    # engine's code or cuts
    tree = ast.parse(inspect.getsource(search))
    engine = {node.name for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    engine |= {t.id for node in tree.body if isinstance(node, ast.Assign)
               for t in node.targets if isinstance(t, ast.Name)}
    assert {"realize", "_process_triple", "UNKNOWN"} <= engine
    forbidden = engine | {"validate", "zero_divisor_graph", "_covering", "necessary_conditions"}
    loaded = _loaded_names(brute_force_realizations.__code__)
    assert "edges" in loaded and not loaded & forbidden, loaded & forbidden


def test_criterion_09_theorem_sweep(results):
    r = _report(results[9])
    assert r.passed, r.detail
    # how many checks of each claim apply over the 802 tables; a checker
    # that turns vacuous moves its count
    assert r.detail == (
        "zero applicable-claim failures over 802 corpus tables; applicable: "
        "lemma_2_1 1282, prop_2_2.1 415, prop_2_2.2 657, thm_2_4.ideal_0ab 1774, "
        "thm_2_4.ideal_complement 1774, thm_2_4.l_closed 1774, thm_2_4.case1_ideal 380, "
        "thm_2_4.case2_subsemigroup 328, thm_2_6 328, prop_2_8 492"
    )


def test_criterion_10_prescreen_sound_but_insufficient(results):
    r = _report(results[10])
    assert r.passed, r.detail
