import pytest

from zdg.acceptance import brute_force_realizations
from zdg.algebra import same_products, validate
from zdg.errors import InputError
from zdg.families import FamilySpec, add_cap, add_edge, add_end, generate_graph
from zdg.graph import LabeledGraph, necessary_conditions, zero_divisor_graph
from zdg.search import (
    Outcome,
    SearchConfig,
    SearchState,
    enumerate_tables,
    init_domains,
    parse_config_file,
    propagate,
    realize,
)

K2 = LabeledGraph(["a", "b"], [("a", "b")])
K3 = LabeledGraph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
C4_WITH_END = LabeledGraph(
    list("abcde"), [("a", "c"), ("c", "b"), ("b", "d"), ("d", "a"), ("c", "e")]
)


def fig(family, **kw):
    return generate_graph(FamilySpec(family, **kw))


# --- init_domains -------------------------------------------------------------


def test_square_domain_excludes_zero_at_distance_3():
    st = init_domains(fig("fig3", m=1, n=1, u=0, v=1))
    assert "0" not in st.domain_of("y1", "y1")


def test_pair_domain_neighborhood_cut(kn2_graph):
    st = init_domains(kn2_graph)
    assert st.domain_of("y1", "y2") <= {"a", "b", "x1", "x2"}


def test_single_edge_domains():
    st = init_domains(K2)
    assert st.domain_of("a", "a") == {"0", "a", "b"}
    assert st.domain_of("b", "b") == {"0", "a", "b"}


def test_init_domains_keeps_the_callers_config(kn2_graph):
    # a state follows its config, SearchConfig's defaults (symmetry on, no
    # solution limit) when none is given; the initial domains depend on neither
    cfg = SearchConfig(symmetry=False, max_solutions=2)
    st = init_domains(kn2_graph, cfg)
    assert st.config is cfg
    default = init_domains(kn2_graph)
    assert default.config == SearchConfig()
    assert default.config.symmetry and default.config.max_solutions is None
    assert st.domains == default.domains and st.M == default.M


def test_init_short_circuits_on_failed_prescreen():
    c5 = LabeledGraph(list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")])
    st = init_domains(c5)
    assert st.failed_precheck == "core"


# --- propagate ------------------------------------------------------------------


def test_prescreen_failure_implies_empty_initial_domain(small_connected_graphs, census_graphs):
    # every pre-check refutation on <= 7 vertices is also an empty domain
    # of the search's neighborhood cuts, found before any cell is forced
    refuted = 0
    for g in list(small_connected_graphs) + list(census_graphs):
        nc = necessary_conditions(g)
        if nc.passed:
            continue
        refuted += 1
        st = SearchState(g)
        assert not st.initialize(), g.edges()
        assert st.forced == 0
        assert st.contradiction.endswith("has an empty initial domain")
        assert nc.diameter_le_3 or not nc.cover_ok
    assert refuted == 677  # 132 labeled graphs on 2-5 vertices, 545 classes on 6-7


def test_propagation_reproduces_contradiction_chain():
    # assigning the cap-times-end cell to d cannot survive associativity
    st = init_domains(fig("fig4", caps=1, u=1, v=1, w=1))
    assert st.value_of("d", "u1") == "d"  # the forced ideal-style products
    assert st.value_of("d", "v1") == "d"
    assert not propagate(st, ("u1", "c1"), "d")
    assert st.contradiction


def test_propagate_same_value_is_noop():
    st = init_domains(fig("fig4", caps=1, u=1, v=1, w=1))
    v = st.value_of("d", "u1")
    before = len(st.trail)
    assert propagate(st, ("d", "u1"), v)
    assert len(st.trail) == before


def test_cap_over_clique_dies_quickly(kn2_graph):
    g = add_cap(kn2_graph, "a", "b", name="c")
    st = init_domains(g)
    # the end-vertex ideal pattern forces c*x2 = x2; the cap cannot survive it
    assert st.value_of("c", "x2") == "x2"
    assert st.value_of("c", "x1") == "x1"
    out = realize(g)
    assert out.tag == Outcome.UNREALIZABLE
    assert out.stats.nodes < 100  # a handful of decisions settle it


def test_propagate_unknown_names():
    st = init_domains(K2)
    with pytest.raises(InputError):
        propagate(st, ("a", "zzz"), "a")


# --- realize -----------------------------------------------------------------------


def test_realize_small_family_graph():
    out = realize(fig("fig3", m=1, n=1, u=0, v=1))
    assert out.tag == Outcome.REALIZED
    assert validate(out.witness).ok
    assert zero_divisor_graph(out.witness).same_graph(fig("fig3", m=1, n=1, u=0, v=1))


def test_realize_unrealizable_modifications():
    base = fig("fig3", m=1, n=1, u=0, v=1)
    out = realize(add_end(base, "b"))
    assert out.tag == Outcome.UNREALIZABLE
    assert out.reason.startswith("exhausted")
    out = realize(fig("fig4", caps=1, u=1, v=1, w=1))
    assert out.tag == Outcome.UNREALIZABLE


def test_realize_capped_clique(kn2_graph):
    out = realize(add_cap(kn2_graph, "x1", "x2"))
    assert out.tag == Outcome.REALIZED


def test_realize_precondition_errors():
    with pytest.raises(InputError):
        realize(LabeledGraph(["a"], []))
    with pytest.raises(InputError):
        realize(LabeledGraph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")]))
    with pytest.raises(InputError):
        realize(K2, SearchConfig(budget=0))


def test_realize_prescreen_short_circuit():
    c5 = LabeledGraph(list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")])
    out = realize(c5)
    assert out.tag == Outcome.UNREALIZABLE
    assert out.reason == "necessary-conditions:core"
    assert out.stats.nodes == 0


def test_budget_exceeded(kn2_graph):
    out = realize(kn2_graph, SearchConfig(budget=1, symmetry=False))
    assert out.tag == Outcome.BUDGET_EXCEEDED


def test_determinism(kn2_graph):
    g = add_cap(kn2_graph, "x1", "x2")
    first = realize(g)
    second = realize(g)
    assert first.stats.nodes == second.stats.nodes
    assert first.witness == second.witness


def test_explain_chain():
    out = realize(fig("fig3", m=1, n=1, u=0, v=1), SearchConfig(explain=True))
    assert out.chain
    assert any("=" in line for line in out.chain)


# --- enumerate ------------------------------------------------------------------------


def test_enumerate_matches_oracle_on_edge_and_triangle():
    for g in (K2, K3):
        res = enumerate_tables(g)
        assert res.exhaustive
        assert {t.rows for t in res.tables} == brute_force_realizations(g)
    assert len(enumerate_tables(K2).tables) == 6


def test_enumerate_respects_limit():
    res = enumerate_tables(K3, SearchConfig(max_solutions=2))
    assert len(res.tables) == 2
    assert not res.exhaustive


def test_enumerate_unrealizable_graph_is_empty_and_exhaustive():
    base = fig("fig5", m=1, n=1, v=0)
    res = enumerate_tables(add_edge(base, "x1", "x2"))
    assert res.tables == () and res.exhaustive


def test_enumeration_unique_up_to_relabeling(kn2_graph, table6):
    res = enumerate_tables(kn2_graph)
    assert res.exhaustive
    assert any(same_products(t, table6) for t in res.tables)
    # the labeled solution set is closed under the graph's a<->b twin swap
    swap = {"a": "b", "b": "a", "x1": "x1", "x2": "x2", "y1": "y1", "y2": "y2"}
    from zdg.acceptance import relabel_table

    twisted = {relabel_table(t, swap).rows for t in res.tables}
    assert twisted == {t.rows for t in res.tables}


def test_symmetry_flag_agrees_on_tags(kn2_graph):
    g = add_cap(kn2_graph, "a", "x1")
    for symmetry in (True, False):
        assert realize(g, SearchConfig(symmetry=symmetry)).tag == Outcome.UNREALIZABLE
    g2 = add_cap(kn2_graph, "x1", "x2")
    for symmetry in (True, False):
        assert realize(g2, SearchConfig(symmetry=symmetry)).tag == Outcome.REALIZED


def test_lemma21_flag_agrees_on_answers():
    cases = [
        (fig("fig3", m=1, n=1, u=0, v=1), Outcome.REALIZED),
        (add_edge(fig("fig5", m=1, n=1, v=0), "x1", "x2"), Outcome.UNREALIZABLE),
    ]
    for g, expected in cases:
        on = realize(g, SearchConfig(lemma21_pruning=True))
        off = realize(g, SearchConfig(lemma21_pruning=False))
        assert on.tag == off.tag == expected


def test_enumerate_lists_twin_swapped_tables():
    # a and b are twins in the 4-cycle a-c-b-d-a; root twin pruning would
    # keep only half of the 14 tables of this graph
    g = C4_WITH_END
    on = enumerate_tables(g, SearchConfig(lemma21_pruning=True))
    off = enumerate_tables(g, SearchConfig(lemma21_pruning=False))
    assert on.exhaustive and off.exhaustive
    assert len(on.tables) == 14
    assert {t.rows for t in on.tables} == {t.rows for t in off.tables}
    # symmetry is a realize setting; enumeration ignores it
    pruned = enumerate_tables(g, SearchConfig(symmetry=True))
    assert [t.rows for t in pruned.tables] == [t.rows for t in on.tables]


def test_pruning_switches_never_change_answers(small_connected_graphs):
    small = small_connected_graphs
    assert len(small) == 771  # connected labeled graphs on 2..5 vertices
    for g in small:
        tags = {
            realize(g, SearchConfig(symmetry=s, lemma21_pruning=p)).tag
            for s in (True, False)
            for p in (True, False)
        }
        assert len(tags) == 1, (g.vertices, list(g.edges()), tags)
    tiny = [g for g in small if g.n <= 4]
    assert len(tiny) == 43
    for g in tiny:
        on = enumerate_tables(g, SearchConfig(lemma21_pruning=True))
        off = enumerate_tables(g, SearchConfig(lemma21_pruning=False))
        assert on.exhaustive and off.exhaustive
        assert {t.rows for t in on.tables} == {t.rows for t in off.tables}


def test_enumerate_lemma21_same_solution_set():
    on = enumerate_tables(K3, SearchConfig(lemma21_pruning=True))
    off = enumerate_tables(K3, SearchConfig(lemma21_pruning=False))
    assert {t.rows for t in on.tables} == {t.rows for t in off.tables}


def test_witness_replay_never_leaves_domains():
    # propagation soundness: pushing the witness values through a fresh state
    # must never contradict, and must land on the witness itself
    g = add_cap(generate_graph(FamilySpec("kn2", n=4)), "x1", "x2")
    out = realize(g)
    witness = out.witness
    st = init_domains(g)
    assert st.contradiction is None
    for i, x in enumerate(witness.names):
        for j in range(i, len(witness.names)):
            y = witness.names[j]
            if x == "0" or y == "0":
                continue
            value = witness.mul(x, y)
            assert value in st.domain_of(x, y), (x, y, value)
            assert propagate(st, (x, y), value), st.contradiction
    for x in witness.names:
        for y in witness.names:
            assert st.value_of(x, y) == witness.mul(x, y)


# --- config files ----------------------------------------------------------------------


def test_parse_config_file():
    text = "budget = 500\nsymmetry = off\n# comment\nlemma21_pruning=on\nmax_solutions=7\n"
    assert parse_config_file(text) == {
        "budget": 500,
        "symmetry": False,
        "lemma21_pruning": True,
        "max_solutions": 7,
    }
    with pytest.raises(InputError):
        parse_config_file("nonsense\n")
    with pytest.raises(InputError):
        parse_config_file("budget=abc\n")
    with pytest.raises(InputError):
        parse_config_file("mystery=1\n")
    with pytest.raises(InputError):
        parse_config_file("symmetry=sideways\n")
