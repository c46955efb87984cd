import hashlib
import itertools
import random
import sys

import pytest

from zdg import search
from zdg.acceptance import brute_force_realizations
from zdg.algebra import CayleyTable, emit_table_csv, same_products, validate
from zdg.errors import InputError
from zdg.families import FamilySpec, add_cap, add_edge, add_end, generate_graph
from zdg.graph import (
    LabeledGraph,
    _covering,
    diameter,
    isomorphisms,
    necessary_conditions,
    relabel_table,
    zero_divisor_graph,
)
from zdg.search import (
    BUDGET,
    Outcome,
    SearchState,
    enumerate_tables,
    init_domains,
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


def test_init_short_circuits_on_failed_prescreen():
    c5 = LabeledGraph(list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")])
    assert init_domains(c5) is None


def test_init_domains_gates_like_realize(small_connected_graphs, census_graphs):
    # one gate: init_domains builds no state exactly where realize answers
    # from the pre-screen, and both reject bad input with the same message
    for g in list(small_connected_graphs) + list(census_graphs):
        prescreened = (realize(g).reason or "").startswith("necessary-conditions")
        assert (init_domains(g) is None) == prescreened, g.edges()
    one = LabeledGraph(["a"], [])
    two_parts = LabeledGraph(list("abcd"), [("a", "b"), ("c", "d")])
    for g in (one, two_parts):
        with pytest.raises(InputError) as expected:
            realize(g)
        with pytest.raises(InputError) as got:
            init_domains(g)
        assert str(got.value) == str(expected.value)
    # the settings belong to the verbs that read them; init_domains takes none
    with pytest.raises(InputError, match="budget must be positive"):
        realize(K2, budget=0)
    with pytest.raises(InputError, match="budget must be positive"):
        enumerate_tables(K2, budget=0)
    with pytest.raises(InputError, match="max_solutions must be >= 1"):
        enumerate_tables(K2, max_solutions=0)


def test_gate_checks_connectivity_before_the_settings():
    two_parts = LabeledGraph(list("abcd"), [("a", "b"), ("c", "d")])
    with pytest.raises(InputError, match="realization needs a connected graph"):
        realize(two_parts, budget=0)
    with pytest.raises(InputError, match="realization needs a connected graph"):
        enumerate_tables(two_parts, budget=0, max_solutions=0)


def test_gate_runs_the_prescreen_once(kn2_graph, monkeypatch):
    # the pre-screen also answers the gate's connectivity check; the gate
    # reads it by this module name, which bench/spans.py wraps
    calls = []

    def counting(g):
        calls.append(g)
        return necessary_conditions(g)

    monkeypatch.setattr(search, "necessary_conditions", counting)
    c5 = LabeledGraph(list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")])
    for g in (K2, C4_WITH_END, kn2_graph, c5):
        for verb in (realize, enumerate_tables, init_domains):
            calls.clear()
            verb(g)
            assert calls == [g], (verb.__name__, g.edges())


def test_each_entry_point_takes_only_the_settings_it_reads(kn2_graph):
    # keyword-only settings, and no setting a verb would ignore
    for call in (lambda: realize(K2, max_solutions=1), lambda: realize(K2, 5),
                 lambda: enumerate_tables(K2, explain=True), lambda: enumerate_tables(K2, 5),
                 lambda: init_domains(K2, budget=5), lambda: SearchState(K2, 5)):
        with pytest.raises(TypeError):
            call()
    assert not hasattr(init_domains(kn2_graph), "config")


def test_init_domains_leaves_nothing_queued(sweep_graphs):
    # the drain after the initial sweep empties the queue that the sweep's
    # assignments fill
    for code, g in sweep_graphs.items():
        st = init_domains(g)
        assert st.contradiction is None and not st._queue, code


# --- propagate ------------------------------------------------------------------


def test_prescreen_failure_implies_empty_initial_domain(small_connected_graphs, census_graphs):
    # on <= 7 vertices the pre-screen fails exactly where a neighborhood cut
    # leaves an empty initial domain; behind the gate no state has one
    refuted = 0
    for g in list(small_connected_graphs) + list(census_graphs):
        nc = necessary_conditions(g)
        assert bool(SearchState(g).buckets[0]) == (not nc.passed), g.edges()
        if not nc.passed:
            refuted += 1
            assert diameter(g) <= 3 or not nc.cover_ok
    assert refuted == 677  # 132 labeled graphs on 2-5 vertices, 545 classes on 6-7


def test_propagation_reproduces_contradiction_chain():
    # assigning the cap-times-end cell to d cannot survive associativity
    st = init_domains(fig("fig4", caps=1, u=1, v=0, w=1))
    assert st.contradiction is None
    assert st.value_of("d", "u1") == "d"  # the forced ideal-style products
    assert st.value_of("d", "c1") == "d"
    assert not propagate(st, ("c1", "w1"), "d")
    assert st.contradiction


def test_propagate_same_value_is_noop():
    st = init_domains(fig("fig4", caps=1, u=1, v=0, w=1))
    assert st.contradiction is None
    v = st.value_of("d", "u1")
    before = len(st.trail)
    assert propagate(st, ("d", "u1"), v)
    assert len(st.trail) == before
    # a known cell set to another value is a contradiction
    st = init_domains(fig("fig3", m=1, n=1, u=0, v=1))
    assert st.value_of("a", "v1") == "a"
    assert not propagate(st, ("a", "v1"), "d")
    assert st.contradiction == "cell (a,v1) is a but must also be d"


def test_propagate_on_a_refuted_state_fails_at_once():
    # initial propagation already contradicted here, so no later assignment
    # may report success, and the first contradiction is kept
    names = [f"v{i}" for i in range(1, 7)]
    edges = [("v1", "v2"), ("v1", "v3"), ("v1", "v5"), ("v1", "v6"),
             ("v2", "v4"), ("v2", "v5"), ("v2", "v6"), ("v3", "v4")]
    st = init_domains(LabeledGraph(names, edges))
    assert st.contradiction == "associativity fails on (v4,v5,v6)"
    trail = list(st.trail)
    assert not propagate(st, ("v6", "v6"), "0")
    assert st.contradiction == "associativity fails on (v4,v5,v6)"
    assert st.trail == trail


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
    with pytest.raises(InputError, match="unknown element 'q'"):
        propagate(st, ("a", "b"), "q")


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
        realize(K2, budget=0)


def test_realize_prescreen_short_circuit():
    c5 = LabeledGraph(list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")])
    out = realize(c5)
    assert out.tag == Outcome.UNREALIZABLE
    assert out.reason == "necessary-conditions:core"
    assert out.stats.nodes == 0


def test_budget_exceeded(kn2_graph):
    out = realize(kn2_graph, budget=1)
    assert out.tag == Outcome.BUDGET_EXCEEDED


def test_determinism(kn2_graph):
    g = add_cap(kn2_graph, "x1", "x2")
    first = realize(g)
    second = realize(g)
    assert first.stats.nodes == second.stats.nodes
    assert first.witness == second.witness


def test_realize_answers_pinned(census_graphs):
    # README's "Determinism": tag, reason and witness of every connected
    # graph on 6 and 7 vertices, pinned by one digest
    assert len(census_graphs) == 965
    lines = []
    for g in census_graphs:
        out = realize(g)
        witness = emit_table_csv(out.witness) if out.witness else ""
        lines.append(f"{out.tag.value} {out.reason} {witness}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "2c7ce33cefb4a5475e452367c8049ea3c4c695dfc6363c1caea0677801343ea1"
    )


REFUTATIONS = ((1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1))


def _counters(stats):
    return stats.nodes, stats.forced, stats.max_depth


def refutation(m, n):
    return add_edge(fig("fig5", m=m, n=n, v=0), "x1", "x2")


def test_search_counters_pinned():
    # README's "Determinism": (nodes, forced, max_depth) of the six refutations
    # fig5(m,n,0)+edge(x1,x2) and of three fig3(k,k,k,k) graphs. The root
    # probe refutes each of the six at PROBE_AFTER nodes per open root cell,
    # and the answer replays under the recorded budget and trips one below it.
    refutations = {
        (1, 1): (88, 101, 7),
        (1, 2): (128, 135, 12),
        (2, 1): (128, 175, 11),
        (1, 3): (176, 189, 15),
        (2, 2): (176, 197, 14),
        (3, 1): (176, 203, 14),
    }
    assert tuple(refutations) == REFUTATIONS
    for (m, n), counters in refutations.items():
        g = refutation(m, n)
        out = realize(g)
        assert out.tag == Outcome.UNREALIZABLE and out.reason == "exhausted"
        assert (out.stats.nodes, out.stats.forced, out.stats.max_depth) == counters, (m, n)
        assert 0 < out.stats.probes <= out.stats.nodes
        replay = realize(g, budget=out.stats.nodes)
        assert (replay.reason, _counters(replay.stats)) == (out.reason, counters)
        assert realize(g, budget=out.stats.nodes - 1).tag == Outcome.BUDGET_EXCEEDED
    ladder = {1: (97, 167, 11), 2: (7924, 14649, 32), 12: (1049, 4473, 860)}
    for k, counters in ladder.items():
        out = realize(fig("fig3", m=k, n=k, u=k, v=k))
        assert out.tag == Outcome.REALIZED
        assert (out.stats.nodes, out.stats.forced, out.stats.max_depth) == counters, k


def test_early_exits_pinned(bench_graphs):
    # README's "Determinism" at the search's early exits: realize with explain
    # tripped at every budget short of exhausting four refutations, and
    # enumerate stopped by a solution limit or a small budget, pinned by one
    # digest
    lines = []
    for m, n in ((1, 1), (1, 2), (2, 1), (2, 2)):
        g = add_edge(fig("fig5", m=m, n=n, v=0), "x1", "x2")
        for budget in (*range(1, 40), BUDGET):
            out = realize(g, budget=budget, explain=True)
            s = out.stats
            lines.append(f"{m} {n} {budget} {out.tag.value} {out.reason} "
                         f"{s.nodes} {s.forced} {s.max_depth}")
            lines.extend(out.chain)
    assert len(bench_graphs[5]) == 21
    for settings in ({"max_solutions": 1}, {"max_solutions": 3}, {"budget": 5}):
        for g in bench_graphs[5]:
            res = enumerate_tables(g, **settings)
            s = res.stats
            lines.append(f"{res.exhaustive} {res.budget_exceeded} "
                         f"{s.nodes} {s.forced} {s.max_depth} {len(res.tables)}")
            lines.extend(emit_table_csv(t) for t in res.tables)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "05bf129ba24388299388ec9a43fdaa5508fe9910c8a02bed173be587d11aed65"
    )


def test_explain_chains_pinned(census_graphs):
    # README's "Determinism" for the order of work: a chain lists every forced
    # cell in trail order with the triple that forced it; pinned by one digest
    # on every connected graph with 6 and 7 vertices and on fig3(k,k,k,k), k <= 8
    lines = []
    for g in list(census_graphs) + [fig("fig3", m=k, n=k, u=k, v=k) for k in range(1, 9)]:
        out = realize(g, explain=True)
        lines.append(out.tag.value)
        lines.extend(out.chain)
    assert len(lines) == 8781
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "6dc0b770475909bd6583cadd10d5e7a31e36899509c243a568a59ac3a4c8d115"
    )


def test_probing_never_changes_answers(
    small_connected_graphs, census_graphs, bench_graphs, monkeypatch
):
    # the root probe counts only when it refutes: against a search whose probe
    # never refutes, every tag, reason, chain, witness and table set is the
    # same, and so are the counters of every realized graph and enumeration;
    # only the refutations that the probe closes spend fewer nodes
    refutations = [refutation(m, n) for m, n in REFUTATIONS]
    enumerated = [g for g in small_connected_graphs if g.n <= 4] + bench_graphs[5]
    assert len(census_graphs) == 965 and len(enumerated) == 64

    def answers():
        realized = [realize(g, explain=True) for g in census_graphs + refutations]
        return realized, [enumerate_tables(g) for g in enumerated]

    shipped, shipped_tables = answers()
    monkeypatch.setattr(SearchState, "_probe", lambda self, cap: True)
    unprobed, unprobed_tables = answers()
    for out, ref in zip(shipped, unprobed, strict=True):
        assert (out.tag, out.reason, out.witness, out.chain) == (
            ref.tag, ref.reason, ref.witness, ref.chain)
        if out.tag == Outcome.REALIZED:
            assert _counters(out.stats) == _counters(ref.stats)
    for res, ref in zip(shipped_tables, unprobed_tables, strict=True):
        assert res.exhaustive and ref.exhaustive
        assert [t.rows for t in res.tables] == [t.rows for t in ref.tables]
        assert _counters(res.stats) == _counters(ref.stats)
    assert sum(out.stats.nodes for out in shipped[-6:]) == 872
    assert sum(out.stats.nodes for out in unprobed[-6:]) == 83396


def test_probe_keeps_every_enumerated_table(small_connected_graphs, bench_graphs):
    # a probe prunes only values with no table below them: each enumerated
    # table's value of each cell stays in that cell's probed domain. Probing
    # alone refutes each of the six refutations, and stops at its cap.
    pruned = 0
    for g in [g for g in small_connected_graphs if g.n <= 4] + bench_graphs[5]:
        st = init_domains(g)
        if st is None or st.contradiction:
            continue
        cells = list(itertools.combinations_with_replacement(g.vertices, 2))
        before = sum(len(st.domain_of(x, y)) for x, y in cells)
        assert st._probe(BUDGET), g.edges()
        pruned += before - sum(len(st.domain_of(x, y)) for x, y in cells)
        for t in enumerate_tables(g).tables:
            for x, y in cells:
                assert t.mul(x, y) in st.domain_of(x, y), (g.edges(), x, y)
    assert pruned > 0
    for m, n in REFUTATIONS:
        assert not init_domains(refutation(m, n))._probe(BUDGET), (m, n)
    st = init_domains(refutation(1, 1))
    assert st._probe(10) and st.probes == 10 and st.contradiction is None


def _square_domain_keeping_zero(state, i):
    # SearchState._square_domain without the Lemma 2.1 cut: 0 stays everywhere
    return _covering(state.g.masks, state.adj[i] >> 1) << 1 | 1


def _reference_drain(state):
    # the unfiltered drain: every triple of each queued cell is processed
    q, n = state._queue, state.n
    while q:
        i, j = divmod(q.popleft(), n)
        for z in range(1, n):
            if not state._process_triple(i, j, z):
                q.clear()
                return False
        for value_elem, third in ((i, j), (j, i)):
            for pq in list(state.cells_by_value[value_elem]):
                if not state._process_triple(*divmod(pq, n), third):
                    q.clear()
                    return False
    return True


def _reference_sweep(state):
    for p, q, r in itertools.combinations_with_replacement(range(1, state.n), 3):
        if not state._process_triple(p, q, r):
            state._queue.clear()
            return False
    return True


def test_triple_filter_skips_only_noops(bench_graphs, sweep_graphs, monkeypatch):
    # the drain and the sweep skip only calls that would change nothing, so
    # the unfiltered loops give the same outputs and leave the same trail
    trails = []
    run = search._run

    def recording_run(*args):
        out = run(*args)
        trails.append(out[0] and list(out[0].trail))  # None if pre-screened
        return out

    def outputs():
        records = []
        for g in bench_graphs[5]:
            res = enumerate_tables(g)
            s = res.stats
            records.append((res.exhaustive, s.nodes, s.forced, s.max_depth,
                            [t.rows for t in res.tables], trails[-1]))
        for m, n in ((1, 1), (1, 2), (2, 1), (2, 2)):
            out = realize(add_edge(fig("fig5", m=m, n=n, v=0), "x1", "x2"), explain=True)
            s = out.stats
            records.append((out.tag, out.reason, s.nodes, s.forced, s.max_depth,
                            out.chain, trails[-1]))
        # on these graphs the initial sweep acts after the first drain, with
        # the Lemma 2.1 cut and without it
        for g in sweep_graphs.values():
            for cut in (True, False):
                with monkeypatch.context() as patch:
                    if not cut:
                        patch.setattr(SearchState, "_square_domain", _square_domain_keeping_zero)
                    res = enumerate_tables(g)
                s = res.stats
                records.append((s.nodes, s.forced, s.max_depth, [t.rows for t in res.tables],
                                trails[-1]))
        # the initial sweep changes nothing on the 5-vertex graphs; one
        # assignment to an open cell, left undrained, gives it work
        for g in bench_graphs[5]:
            st = init_domains(g)
            if st is None or st.contradiction:
                continue
            for cid, v in itertools.product(sorted(set().union(*st.buckets)), range(st.n)):
                if st.domains[cid] >> v & 1:
                    mark = len(st.trail)
                    st._assign(cid, v, ("external",))
                    st._queue.clear()
                    records.append((st._sweep(), st.contradiction, st.trail[mark:]))
                    st._queue.clear()
                    st._undo_to(mark)
        return records

    monkeypatch.setattr(search, "_run", recording_run)
    engine = outputs()
    monkeypatch.setattr(SearchState, "_drain", _reference_drain)
    monkeypatch.setattr(SearchState, "_sweep", _reference_sweep)
    assert outputs() == engine


def test_initial_sweep_acts_after_the_first_drain(sweep_graphs, monkeypatch):
    # v1*v8 = v1 is an initial singleton. The drain visits (v1,v8,v8) while
    # v1*v1 is still open, so v1 stays a candidate of v8*v8; (v2,v4,v1)
    # forces v1*v1 = 0 later, and the drain never visits a triple again when
    # only a candidate's product w*c changes. So only the sweep prunes v1
    # from v8*v8 and assigns it. The sweep also reaches the triples that read
    # only adjacency zeros, which are never queued.
    swept = []
    sweep = SearchState._sweep

    def recording_sweep(state):
        mark = len(state.trail)
        ok = sweep(state)
        swept.append(state.trail[mark:])
        return ok

    monkeypatch.setattr(SearchState, "_sweep", recording_sweep)
    st = init_domains(sweep_graphs["G{f~?G"])
    cid, v1 = st._cell_of("v8", "v8"), st.index["v1"]
    reason = ("triple", v1, st.index["v8"], st.index["v8"])
    assert swept == [[("P", cid, 1 << v1, reason), ("A", cid, reason)]]
    assert st.contradiction is None and st.value_of("v8", "v8") == "v8"


def test_realize_fig3_ladder_past_the_recursion_limit():
    # the search runs on an explicit stack: depth 1003 and 1498 need no
    # recursion limit above the interpreter's default
    assert sys.getrecursionlimit() < 1003
    for k, counters in ((13, (1206, 5170, 1003)), (16, (1743, 7561, 1498))):
        g = fig("fig3", m=k, n=k, u=k, v=k)
        out = realize(g)
        assert out.tag == Outcome.REALIZED, k
        assert validate(out.witness).ok
        assert zero_divisor_graph(out.witness).same_graph(g)
        assert (out.stats.nodes, out.stats.forced, out.stats.max_depth) == counters, k


def test_explain_chain():
    out = realize(fig("fig3", m=1, n=1, u=0, v=1), explain=True)
    assert out.chain
    assert any("=" in line for line in out.chain)
    # a cell set through propagate is named as set from outside
    st = init_domains(fig("fig3", m=1, n=1, u=0, v=1))
    assert propagate(st, ("a", "a"), "a")
    assert "a*a = a  (external)" in st.explain_chain()


# --- enumerate ------------------------------------------------------------------------


def test_enumerate_matches_oracle_on_every_graph_up_to_4_vertices(small_connected_graphs):
    graphs = [g for g in small_connected_graphs if g.n <= 4]
    assert len(graphs) == 43
    total = 0
    for g in graphs:
        res = enumerate_tables(g)
        assert res.exhaustive
        assert {t.rows for t in res.tables} == brute_force_realizations(g), g.edges()
        total += len(res.tables)
    assert total == 2103
    assert len(enumerate_tables(K2).tables) == 6


def test_realize_witness_is_first_enumerated_table(small_connected_graphs):
    # one search serves both verbs: realize stops at enumerate's first table
    for g in small_connected_graphs:
        first = enumerate_tables(g, max_solutions=1).tables
        witness = realize(g).witness
        assert first == (() if witness is None else (witness,)), g.edges()


def test_enumerate_respects_limit():
    res = enumerate_tables(K3, max_solutions=2)
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
    twisted = {relabel_table(t, swap).rows for t in res.tables}
    assert twisted == {t.rows for t in res.tables}


def test_enumerate_lists_twin_swapped_tables():
    # a and b are twins in the 4-cycle a-c-b-d-a; root twin pruning would
    # keep only half of the 14 tables of this graph
    res = enumerate_tables(C4_WITH_END)
    assert res.exhaustive
    assert len(res.tables) == 14


def _generating_automorphisms(g):
    """Automorphisms of g from isomorphisms(g, g), each kept only when the
    group generated by those kept before it lacks it."""
    group = {g.vertices}  # each element as the images of g.vertices
    kept = []
    for sigma in isomorphisms(g, g):
        if tuple(sigma[v] for v in g.vertices) in group:
            continue
        kept.append(sigma)
        frontier = list(group)
        while frontier:
            images = {tuple(s[v] for v in p) for p in frontier for s in kept}
            frontier = list(images - group)
            group |= images
    return kept


def _products(table):
    """A table as the set of its products x*y = v, by element name."""
    names = table.names
    return frozenset(
        (x, y, names[v]) for x, row in zip(names, table.rows) for y, v in zip(names, row)
    )


def test_enumeration_closed_under_aut_and_vertex_order(bench_graphs):
    # a table lost in a way that depends on the labels or on the order of
    # work breaks one of these: the tables of G are closed under Aut(G), and
    # enumerating G with its vertices reordered gives the same tables
    rng = random.Random(20)
    realizable = tables = generators = 0
    for g in bench_graphs[5]:
        found = enumerate_tables(g).tables
        if not found:
            continue
        realizable += 1
        tables += len(found)
        rows = {t.rows for t in found}
        for sigma in _generating_automorphisms(g):
            generators += 1
            assert {relabel_table(t, sigma).rows for t in found} == rows, (g.edges(), sigma)
        order = list(g.vertices)
        rng.shuffle(order)
        reordered = enumerate_tables(LabeledGraph(order, g.edges())).tables
        assert {_products(t) for t in reordered} == {_products(t) for t in found}, g.edges()
    assert (realizable, tables, generators) == (18, 6414, 36)


def test_lemma21_flag_agrees_on_answers(monkeypatch):
    # the Lemma 2.1 cut drops 0 from x*x when a vertex lies at distance 3 from
    # x; on these two graphs the verdict is the same without it
    fig3 = fig("fig3", m=1, n=1, u=0, v=1)
    cases = [
        (fig3, Outcome.REALIZED),
        (add_edge(fig("fig5", m=1, n=1, v=0), "x1", "x2"), Outcome.UNREALIZABLE),
    ]
    on = [realize(g).tag for g, _ in cases]
    assert "0" not in SearchState(fig3).domain_of("y1", "y1")
    monkeypatch.setattr(SearchState, "_square_domain", _square_domain_keeping_zero)
    assert "0" in SearchState(fig3).domain_of("y1", "y1")  # the replacement adds 0
    off = [realize(g).tag for g, _ in cases]
    assert on == off == [expected for _, expected in cases]


def test_pruning_switches_never_change_answers(
    small_connected_graphs, census_graphs, bench_graphs, monkeypatch
):
    # the Lemma 2.1 cut, the one pruning left, compared with a search that
    # keeps 0 in every square: the verdicts and the table sets are the same
    small = small_connected_graphs
    assert len(small) == 771  # connected labeled graphs on 2..5 vertices
    assert len(census_graphs) == 965
    tiny = [g for g in small if g.n <= 4]
    assert len(tiny) == 43
    assert len(bench_graphs[5]) == 21

    def answers():
        tags = [realize(g).tag for g in small]
        census = [realize(g) for g in census_graphs]
        sets = []
        for g in tiny + bench_graphs[5]:
            res = enumerate_tables(g)
            assert res.exhaustive
            sets.append({t.rows for t in res.tables})
        return tags, census, sets

    tags, census, sets = answers()
    monkeypatch.setattr(SearchState, "_square_domain", _square_domain_keeping_zero)
    tags_off, census_off, sets_off = answers()
    assert tags_off == tags
    assert [out.tag for out in census_off] == [out.tag for out in census]
    # a witness found without the cut is as sound as one found with it
    for g, out in zip(census_graphs, census_off):
        if out.witness is not None:
            assert validate(out.witness).ok
            assert zero_divisor_graph(out.witness).same_graph(g)
    assert sets_off == sets


def test_enumerate_lemma21_same_solution_set(monkeypatch):
    on = enumerate_tables(K3)
    monkeypatch.setattr(SearchState, "_square_domain", _square_domain_keeping_zero)
    off = enumerate_tables(K3)
    assert on.exhaustive and off.exhaustive
    assert {t.rows for t in on.tables} == {t.rows for t in off.tables}


def test_record_solution_rejects_a_bad_table():
    # the witness check behind every solution: a full table that is not
    # associative, or whose zero-divisor graph is not g, is an internal error
    path = LabeledGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    nonassociative = [[0, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 0]]  # a*a = b*b = b
    # the rest are semigroups, so only the zero pattern can reject them
    null = [[0] * 4 for _ in range(4)]  # its graph is the triangle
    extra_zero = [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]]  # a*c = 0 only
    names = ("0", "a", "b", "c")
    # a witness for the 4-cycle a-c-b-d-a checked against a-b-c-d-a: every
    # row has its number of zeros, but the edge a-b has a nonzero product
    square = LabeledGraph(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    crossed = LabeledGraph(list("abcd"), [("a", "c"), ("b", "c"), ("b", "d"), ("a", "d")])
    moved = realize(crossed).witness
    assert moved.rows[1][2] != 0
    cases = [(path, nonassociative), (path, null), (path, extra_zero), (square, moved.rows)]
    for g, rows in cases:
        assert validate(CayleyTable(("0",) + g.vertices, rows)).ok == (rows is not nonassociative)
        st = SearchState(g)
        st.M[:] = [x for row in rows for x in row]
        with pytest.raises(RuntimeError, match="bad witness"):
            st._record_solution()
        assert st.solutions == []
    # a*a = b*b = 0 and a*c = c*c = b: a zero square is no edge, so this is a witness
    squares_zero = [[0, 0, 0, 0], [0, 0, 0, 2], [0, 0, 0, 0], [0, 2, 0, 2]]
    st = SearchState(path)
    st.M[:] = [x for row in squares_zero for x in row]
    st._record_solution()
    assert st.solutions == [CayleyTable(names, squares_zero)]


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
