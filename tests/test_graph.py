import collections
import hashlib
import itertools
import math
import random

import pytest

from zdg import graph
from zdg.acceptance import sweep_specs
from zdg.algebra import CayleyTable
from zdg.errors import InputError
from zdg.families import FamilySpec, add_end, generate_graph, generate_table
from zdg.graph import (
    LabeledGraph,
    c_set,
    classify_special,
    core,
    delta_witnesses,
    diameter,
    distances_from,
    emit_dot,
    emit_graph_text,
    is_isomorphic,
    is_connected,
    isomorphisms,
    isolated_vertices,
    necessary_conditions,
    parse_graph_text,
    partition,
    t_set,
    zero_divisor_graph,
)
from zdg.search import SearchState


def _edge_on_cycle_brute(g, x, y):
    """Independent check: an edge lies on a cycle iff it is not a bridge,
    i.e. its endpoints stay connected after deleting it."""
    seen = {x}
    stack = [x]
    while stack:
        v = stack.pop()
        for w in g.neighbors(v):
            if {v, w} == {x, y}:
                continue
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return y in seen


def _path(k):
    names = [f"p{i}" for i in range(k)]
    return LabeledGraph(names, list(zip(names, names[1:])))


def _cycle(k):
    names = [f"c{i}" for i in range(k)]
    return LabeledGraph(names, list(zip(names, names[1:])) + [(names[-1], names[0])])


def _ladder(k):
    return generate_graph(FamilySpec("fig3", m=k, n=k, u=k, v=k))


TWO_TRIANGLES_BRIDGED = LabeledGraph(
    list("abcdef"),
    [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f"), ("c", "d")],
)
TRIANGLE_WITH_TAIL = LabeledGraph(
    ["a", "b", "c", "p1", "p2"],
    [("a", "b"), ("b", "c"), ("a", "c"), ("c", "p1"), ("p1", "p2")],
)


def _triangles_through(g, x, y):
    return [w for w in g.vertices if g.has_edge(w, x) and g.has_edge(w, y)]


def test_zero_divisor_graph_matches_generated(table3, fig3_graph):
    assert zero_divisor_graph(table3).same_graph(fig3_graph)


def test_zero_divisor_graph_trivial():
    g = zero_divisor_graph(CayleyTable(["0"], [[0]]))
    assert g.n == 0 and g.edges() == ()


def test_zero_divisor_graph_clique_plus_ends(table6, kn2_graph):
    g = zero_divisor_graph(table6)
    assert g.same_graph(kn2_graph)
    for pair in itertools.combinations(("a", "b", "x1", "x2"), 2):
        assert g.has_edge(*pair)
    assert g.degree("y1") == 1 and g.has_edge("y1", "x1")
    assert g.degree("y2") == 1 and g.has_edge("y2", "x2")


def test_self_annihilator_is_isolated_vertex():
    table = CayleyTable(["0", "a", "b"], [[0, 0, 0], [0, 0, 1], [0, 1, 1]])
    # a*a = 0 but a*b != 0: a is a vertex with no partner
    g = zero_divisor_graph(table)
    assert set(g.vertices) == {"a"}
    assert isolated_vertices(g) == {"a"}


def test_distances(fig3_graph):
    assert distances_from(fig3_graph, "y1")["v1"] == 3
    assert distances_from(fig3_graph, "y1")["y1"] == 0
    assert diameter(fig3_graph) == 3
    g5 = generate_graph(FamilySpec("fig5", m=2, n=2, v=2))
    assert distances_from(g5, "c1")["y1"] == 3
    with pytest.raises(InputError):
        distances_from(fig3_graph, "zzz")


def test_distance_infinite_when_disconnected():
    g = LabeledGraph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    assert math.isinf(distances_from(g, "a")["c"])
    assert math.isinf(diameter(g))


def test_core_of_star_is_empty():
    star = LabeledGraph(["c", "l1", "l2", "l3", "l4"], [("c", f"l{i}") for i in (1, 2, 3, 4)])
    dec = core(star)
    assert not dec.core_edges
    assert dec.pendant_vertices == frozenset(star.vertices)
    assert dec.edges_on_triangle_or_square and dec.pendants_are_ends_on_core


def test_core_small_triangle_family():
    g = generate_graph(FamilySpec("fig3", m=1, n=1, u=0, v=0))
    dec = core(g)
    assert dec.core_vertices == frozenset({"a", "b", "d", "y1", "x1"})
    for x, y in dec.core_edges:
        assert _edge_on_cycle_brute(g, x, y)
        assert _triangles_through(g, x, y)
    assert not dec.pendant_vertices


def test_core_with_square_and_pendant():
    g = generate_graph(FamilySpec("fig5", m=1, n=1, v=1))
    dec = core(g)
    assert dec.core_vertices == frozenset({"a", "b", "c1", "x1", "x2", "y1"})
    assert dec.pendant_vertices == frozenset({"v1"})
    assert dec.edges_on_triangle_or_square  # y1 sits on the square y1-x1-a-x2
    assert dec.pendants_are_ends_on_core
    for x, y in g.edges():
        assert ((x, y) in dec.core_edges) == _edge_on_cycle_brute(g, x, y)


def test_core_edges_match_cycle_reference(small_connected_graphs):
    # an edge is a core edge iff its endpoints stay connected without it
    graphs = list(small_connected_graphs) + [TWO_TRIANGLES_BRIDGED, TRIANGLE_WITH_TAIL, _ladder(3)]
    graphs += [_path(k) for k in range(2, 13)] + [_cycle(k) for k in range(3, 13)]
    for g in graphs:
        dec = core(g)
        for e in g.edges():
            assert (e in dec.core_edges) == _edge_on_cycle_brute(g, *e), (g.vertices, e)
    bridged = core(TWO_TRIANGLES_BRIDGED)
    assert ("c", "d") not in bridged.core_edges
    assert bridged.core_vertices == frozenset("abcdef")


def test_small_connected_graphs_fixture_size(small_connected_graphs):
    # OEIS A001187: connected labeled graphs on 2, 3, 4 and 5 vertices
    sizes = collections.Counter(g.n for g in small_connected_graphs)
    assert sizes == {2: 1, 3: 4, 4: 38, 5: 728}


def _analysis_lines(g):
    """Every graph analysis of ``g`` as text, with every set sorted."""
    out = [repr((g.vertices, g.edges())), f"connected {is_connected(g)} diameter {diameter(g)!r}"]
    out += [f"dist {v} {sorted(distances_from(g, v).items())!r}" for v in g.vertices]
    nc = necessary_conditions(g)
    out.append(repr((nc.connected, nc.core_ok, nc.cover_ok, nc.detail)))
    out.append(f"special {classify_special(g)}")
    if is_connected(g):
        dec = core(g)
        out.append(repr((
            sorted(dec.core_edges), sorted(dec.core_vertices), sorted(dec.pendant_vertices),
            dec.edges_on_triangle_or_square, dec.pendants_are_ends_on_core,
        )))
        out.append(repr([(w.a, w.b, w.s, w.z) for w in delta_witnesses(g)]))
        if g.n >= 2:
            st = SearchState(g)
            out.append(repr((st.has_d3, st.domains)))
    return out


def test_graph_analyses_pinned(small_connected_graphs, census_graphs):
    # distances, diameter, core, pre-checks, families, witnesses and the
    # search's initial domains on 1,766 graphs, pinned by one digest
    graphs = list(small_connected_graphs) + list(census_graphs)
    graphs += [_ladder(k) for k in range(1, 7)]
    graphs += [_path(k) for k in range(2, 13)] + [_cycle(k) for k in range(3, 13)]
    graphs += [
        LabeledGraph(list("abcd"), [("a", "b"), ("c", "d")]),
        LabeledGraph(list("abcde"), [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e")]),
        LabeledGraph(list("abcd"), [("a", "b"), ("b", "c")]),
    ]
    assert len(graphs) == 1766
    text = "\n".join(line for g in graphs for line in _analysis_lines(g))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b8845d014d9c584ef74e175bc9959508ef228db4b556fe4269ed06a56167a9ed"
    )


def _name_model(vertices, edges):
    """Neighbour name sets, built straight from an edge list."""
    model = {v: set() for v in vertices}
    for x, y in edges:
        model[x].add(y)
        model[y].add(x)
    return model


def test_accessors_match_name_set_model(small_connected_graphs):
    # every name-level view of a graph agrees with a dict of name sets
    cases = [(g.vertices, list(g.edges())) for g in small_connected_graphs]
    for g in (_ladder(3), generate_graph(FamilySpec("kn2", n=6))):
        cases.append((g.vertices, list(g.edges())))
    cases += [
        (tuple("abcd"), [("b", "a"), ("c", "d")]),
        (tuple("abcde"), [("a", "b"), ("c", "b"), ("a", "c"), ("e", "d")]),
        (tuple("abcd"), [("a", "b"), ("c", "b")]),  # d is isolated
    ]
    for vertices, edges in cases:
        g = LabeledGraph(vertices, edges)
        model = _name_model(vertices, edges)
        ends = {v for v in vertices if len(model[v]) == 1}
        assert g.edges() == tuple(sorted({tuple(sorted(e)) for e in edges}))
        assert g.end_vertices() == ends
        for x in vertices:
            assert g.neighbors(x) == model[x]
            assert g.degree(x) == len(model[x])
            assert all(g.has_edge(x, y) == (y in model[x]) for y in vertices)
            assert t_set(g, x) == model[x] & ends
        for x, y in edges:
            for a, b in ((x, y), (y, x)):
                assert c_set(g, a, b) == {z for z in vertices if model[z] == {a, b}}
        again = LabeledGraph(vertices[::-1], [(y, x) for x, y in edges[::-1]] * 2)
        assert again == g and hash(again) == hash(g)
        assert again.same_graph(g) and g.same_graph(again)
        assert LabeledGraph(vertices, edges[1:]) != g
    for vertices, edges in (
        (["a", "b c"], []),
        (["a", "0"], []),
        (["a", "b", "a"], []),
        (["a", "b"], [("a", "q")]),
        (["a", "b"], [("b", "b")]),
    ):
        with pytest.raises(InputError):
            LabeledGraph(vertices, edges)


def test_same_graph_in_and_out_of_vertex_order(small_connected_graphs):
    # same_graph compares masks when the vertex orders agree, and edge sets
    # otherwise: one moved edge is a different graph, a rotation the same
    moved = 0
    for g in small_connected_graphs:
        edges = list(g.edges())
        rotated = LabeledGraph(g.vertices[1:] + g.vertices[:1], edges)
        assert rotated.same_graph(g) and g.same_graph(rotated)
        missing = [(x, y) for i, x in enumerate(g.vertices) for y in g.vertices[i + 1:]
                   if not g.has_edge(x, y)]
        if missing:
            other = LabeledGraph(g.vertices, edges[1:] + missing[:1])
            assert not other.same_graph(g) and not g.same_graph(other)
            moved += 1
    assert moved == 771 - 4  # the complete graphs have no edge to move


def test_core_requires_connected():
    with pytest.raises(InputError):
        core(LabeledGraph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")]))


def test_cap_sets(fig3_graph, kn2_graph):
    assert c_set(fig3_graph, "a", "b") == {"y1", "y2"}
    assert c_set(fig3_graph, "a", "d") == {"x1", "x2"}
    assert c_set(kn2_graph, "x1", "x2") == set()
    with pytest.raises(InputError):
        c_set(fig3_graph, "y1", "v1")  # not adjacent


def test_end_sets(fig3_graph):
    assert t_set(fig3_graph, "a") == {"u1"}
    assert t_set(fig3_graph, "d") == {"v1", "v2"}
    assert t_set(fig3_graph, "b") == set()


def test_find_delta_witness(fig3_graph, kn2_graph):
    everything = delta_witnesses(fig3_graph)
    w = everything[0]
    assert (w.a, w.b, w.s, w.z) == ("a", "b", "y1", "v1")
    assert delta_witnesses(kn2_graph) == []
    g5 = generate_graph(FamilySpec("fig5", m=1, n=1, v=0))
    w5 = delta_witnesses(g5)[0]
    assert (w5.a, w5.b, w5.s, w5.z) == ("a", "b", "c1", "y1")
    assert any(x.a == "b" and x.b == "a" for x in everything)  # both orientations


def _delta_witness_reference(g):
    """Every (a, b, s, z) with a ~ b, N(s) = {a, b} and d(s, z) = 3, by names."""
    nbrs = {v: g.neighbors(v) for v in g.vertices}
    return sorted(
        (a, b, s, z)
        for a in g.vertices for b in nbrs[a]
        for s in g.vertices if nbrs[s] == {a, b}
        for z in g.vertices if distances_from(g, s)[z] == 3
    )


def test_delta_witnesses_match_their_definition(small_connected_graphs, census_graphs):
    # the witness list read straight off the definition, on every graph
    # with 2-7 vertices and on the graphs of the 247 sweep tables, these
    # also with their vertex order reversed, so that it is not name order
    sweep = [zero_divisor_graph(generate_table(spec)) for spec in sweep_specs()]
    sweep += [LabeledGraph(g.vertices[::-1], g.edges()) for g in sweep]
    total = 0
    for g in list(small_connected_graphs) + list(census_graphs) + sweep:
        want = _delta_witness_reference(g)
        got = [(w.a, w.b, w.s, w.z) for w in delta_witnesses(g)]
        assert got == want, g.edges()
        total += len(got)
    assert total == 360 + 1116 + 2 * 1656


def test_partition_fig3(fig3_graph):
    w = delta_witnesses(fig3_graph)[0]
    part = partition(fig3_graph, w)
    assert part.ab == {"a", "b"}
    assert part.c_ab == {"y1", "y2"}
    assert part.b_set == {"u1", "d", "x1", "x2"}
    assert part.l_set == {"v1", "v2"}
    assert part.t_a == {"u1"} and part.t_b == frozenset()
    # x1, x2 touch only one of a,b but lean on d inside B; d spans both
    assert part.b1 == {"x1", "x2"} and part.b2 == {"d"}
    assert not part.violations


def test_partition_fig5_and_fig4():
    g5 = generate_graph(FamilySpec("fig5", m=2, n=2, v=2))
    w = delta_witnesses(g5)[0]
    part = partition(g5, w)
    assert part.b_set == {"x1", "x2", "v1", "v2"}
    assert part.l_set == {"y1", "y2"}
    g4 = generate_graph(FamilySpec("fig4", caps=2, u=1, v=1, w=2))
    w4 = delta_witnesses(g4)[0]
    part4 = partition(g4, w4)
    assert part4.b_set == {"u1", "v1", "d"}
    assert part4.l_set == {"w1", "w2"}
    assert not part4.violations


def test_partition_rejects_bad_witness(fig3_graph):
    from zdg.graph import DeltaWitness

    with pytest.raises(InputError):
        partition(fig3_graph, DeltaWitness("a", "b", "x1", "v1"))  # x1 not in C(a,b)
    with pytest.raises(InputError):
        partition(fig3_graph, DeltaWitness("a", "b", "y1", "d"))  # d(y1,d) != 3


def test_necessary_conditions():
    base = generate_graph(FamilySpec("fig3", m=1, n=1, u=0, v=1))
    modified = add_end(base, "b")
    nc = necessary_conditions(modified)
    assert nc.passed  # passes the pre-screen although unrealizable
    two_edges = LabeledGraph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    assert necessary_conditions(two_edges).failed[0] == "connected"
    c5 = LabeledGraph(list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")])
    assert "core" in necessary_conditions(c5).failed


def _necessary_conditions_reference(g):
    """``necessary_conditions`` from the definitions, on name sets: one cut per pair."""
    nb = {v: g.neighbors(v) for v in g.vertices}
    connected = all(d < math.inf for d in distances_from(g, g.vertices[0]).values())
    if connected:
        core_edges = [(x, y) for x, y in g.edges() if _edge_on_cycle_brute(g, x, y)]
        on_cycles = all(
            nb[x] & nb[y] or any(nb[w] & (nb[y] - {x}) for w in nb[x] - {y})
            for x, y in core_edges
        )
        on_core = {v for e in core_edges for v in e}
        pendants_ok = not core_edges or all(
            len(nb[v]) == 1 and nb[v] <= on_core for v in g.vertices if v not in on_core
        )
        core_ok = on_cycles and pendants_ok
        detail = "" if core_ok else (
            "core is not a union of triangles and squares with end vertices attached")
    else:
        core_ok, detail = False, "graph is disconnected"
    cover_ok = True
    for x, y in itertools.combinations(sorted(g.vertices), 2):
        if y in nb[x]:
            continue
        need = nb[x] | nb[y]
        if not any(need <= nb[z] | {z} for z in g.vertices):
            cover_ok, detail = False, f"no vertex dominates N({x}) | N({y})"
            break
    return connected, core_ok, cover_ok, detail


def test_necessary_conditions_match_the_per_pair_scan():
    # on the sweep's semigroup graphs, which pass, and on seeded random
    # graphs, connected or not, whose vertex order differs from name order
    graphs = [generate_graph(spec) for spec in sweep_specs()]
    rng = random.Random(24)
    for _ in range(2000):
        n = rng.randint(6, 12)
        names = [f"v{i}" for i in range(n)]
        rng.shuffle(names)
        p = rng.uniform(0.15, 0.9)
        edges = [e for e in itertools.combinations(names, 2) if rng.random() < p]
        graphs.append(LabeledGraph(names, edges))
    outcomes = collections.Counter()
    for g in graphs:
        nc = necessary_conditions(g)
        assert (nc.connected, nc.core_ok, nc.cover_ok, nc.detail) == (
            _necessary_conditions_reference(g)), g.edges()
        outcomes[nc.connected, nc.core_ok, nc.cover_ok] += 1
    # five of the six combinations occur; a connected graph with a failed core
    # and a passing cover check did not show up in this sample
    assert len(outcomes) == 5 and min(outcomes.values()) >= 20, outcomes


def test_classify_special():
    star = LabeledGraph(["c", "l1", "l2", "l3"], [("c", "l1"), ("c", "l2"), ("c", "l3")])
    assert classify_special(star) == "star"
    two_star = LabeledGraph(
        ["p", "q", "s1", "s2"], [("p", "q"), ("p", "s1"), ("q", "s2")]
    )
    assert classify_special(two_star) == "two-star"
    k23 = LabeledGraph(
        ["a1", "a2", "b1", "b2", "b3"],
        [(a, b) for a in ("a1", "a2") for b in ("b1", "b2", "b3")],
    )
    assert classify_special(k23) == "complete-bipartite"
    k23_thorn = add_end(k23, "a1")
    assert classify_special(k23_thorn) == "complete-bipartite-with-thorn"
    triangle = LabeledGraph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert classify_special(triangle) == "triangle-0-thorns"
    assert classify_special(add_end(triangle, "a")) == "triangle-1-thorns"
    diamond = LabeledGraph(
        ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("a", "c")]
    )
    assert classify_special(diamond) == "fan"
    # a and c are both fan centers of the diamond; a thorn on either is at a center
    assert classify_special(add_end(diamond, "a")) == "fan-with-thorn"
    assert classify_special(add_end(diamond, "c")) == "fan-with-thorn"
    k4 = LabeledGraph(
        ["a", "b", "c", "d"],
        [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")],
    )
    assert classify_special(k4) == "none"


def test_classify_special_tests_connectivity_once(monkeypatch):
    seen = []

    def counting(g):
        seen.append(g.n)
        return is_connected(g)

    monkeypatch.setattr(graph, "is_connected", counting)
    c4 = LabeledGraph(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    assert classify_special(c4) == "complete-bipartite"
    assert seen == [4]
    seen.clear()
    diamond = LabeledGraph(
        ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("a", "c")]
    )
    assert classify_special(diamond) == "fan"
    assert seen == [4]
    # the path left by removing a fan center still has its connectivity
    # tested: without c, x-y-z is a triangle and w is isolated, which has
    # n - 1 edges and no degree above 2 but is no path
    cone = LabeledGraph(
        list("cxyzw"), [("c", v) for v in "xyzw"] + [("x", "y"), ("y", "z"), ("x", "z")]
    )
    assert classify_special(cone) == "none"


def test_classify_special_ignores_vertex_names(small_connected_graphs):
    # reversing the names relabels the graph; an isomorphic graph keeps its tag
    for g in small_connected_graphs:
        rename = dict(zip(g.vertices, reversed(g.vertices)))
        h = LabeledGraph(g.vertices, [(rename[x], rename[y]) for x, y in g.edges()])
        assert classify_special(h) == classify_special(g), g.edges()


def test_isomorphism():
    g = generate_graph(FamilySpec("fig3", m=1, n=1, u=0, v=1))
    names = list(g.vertices)
    rng = random.Random(7)
    shuffled_names = names[:]
    rng.shuffle(shuffled_names)
    relabel = dict(zip(names, shuffled_names))
    h = LabeledGraph(
        shuffled_names, [(relabel[x], relabel[y]) for x, y in g.edges()]
    )
    assert is_isomorphic(g, h)
    k4 = LabeledGraph(list("abcd"), list(itertools.combinations("abcd", 2)))
    c4 = LabeledGraph(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    assert not is_isomorphic(k4, c4)
    f3 = generate_graph(FamilySpec("fig3", m=1, n=1, u=1, v=1))
    f4 = generate_graph(FamilySpec("fig4", caps=1, u=1, v=1, w=1))
    assert sorted(f3.degree(v) for v in f3.vertices) != sorted(
        f4.degree(v) for v in f4.vertices
    )
    assert not is_isomorphic(f3, f4)
    # same order and size; only the degree signatures tell them apart
    p4 = LabeledGraph(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d")])
    k13 = LabeledGraph(list("abcd"), [("a", "b"), ("a", "c"), ("a", "d")])
    assert not is_isomorphic(p4, k13)


def test_isomorphism_size_limit():
    big = LabeledGraph([f"v{i}" for i in range(17)], [])
    with pytest.raises(InputError):
        is_isomorphic(big, big)
    with pytest.raises(InputError):
        list(isomorphisms(big, big))


def _automorphisms_by_permutation(g):
    verts = list(g.vertices)
    out = []
    for perm in itertools.permutations(verts):
        m = dict(zip(verts, perm))
        if all(
            g.has_edge(m[x], m[y]) == g.has_edge(x, y)
            for x, y in itertools.combinations(verts, 2)
        ):
            out.append(m)
    return out


def test_automorphisms_match_permutation_reference(small_connected_graphs):
    kn2 = generate_graph(FamilySpec("kn2", n=4))
    assert len(list(isomorphisms(kn2, kn2))) == 4
    for g in small_connected_graphs + [kn2]:
        want = _automorphisms_by_permutation(g)
        got = list(isomorphisms(g, g))
        assert len(got) == len(want), (g.vertices, list(g.edges()))
        assert {frozenset(m.items()) for m in got} == {frozenset(m.items()) for m in want}


def test_graph_text_round_trip(fig3_graph):
    text = emit_graph_text(fig3_graph)
    again = parse_graph_text(text)
    assert again.same_graph(fig3_graph)
    assert emit_graph_text(again) == text
    # a '#' inside a name survives; a leading '#' would start a comment line,
    # so no name may begin with it
    g = LabeledGraph(["a", "b#", "c#d"], [("a", "b#"), ("b#", "c#d")])
    assert parse_graph_text(emit_graph_text(g)).same_graph(g)
    for vertices, edges in ((["a", "#b", "c"], [("a", "#b"), ("#b", "c")]),
                            (["#b", "a"], [("#b", "a")])):
        with pytest.raises(InputError, match="start with '#'"):
            LabeledGraph(vertices, edges)
    with pytest.raises(InputError, match="start with '#'"):
        parse_graph_text("a #b\na #b\n")


def test_graph_text_comments_and_errors():
    g = parse_graph_text("# comment\n a b \n# more\na b\n")
    assert g.vertices == ("a", "b") and g.edges() == (("a", "b"),)
    with pytest.raises(InputError):
        parse_graph_text("")
    with pytest.raises(InputError):
        parse_graph_text("a b\na b c\n")
    with pytest.raises(InputError):
        parse_graph_text("a b\na q\n")
    with pytest.raises(InputError):
        parse_graph_text("a b\na a\n")
    with pytest.raises(InputError):
        parse_graph_text("a 0\n")


def test_dot_output():
    g = LabeledGraph(["a", "b", "c"], [("a", "b")])
    assert emit_dot(g) == "graph G {\n  c;\n  a -- b;\n}\n"
    # a name that is not a DOT identifier, or is a DOT keyword, is quoted
    g = LabeledGraph(["1a", "x-1", 'q"', "\\", "node", "_ok"],
                     [("1a", "x-1"), ('q"', "\\")])
    assert emit_dot(g) == ('graph G {\n  "node";\n  _ok;\n  "1a" -- "x-1";\n'
                           '  "\\\\" -- "q\\"";\n}\n')
