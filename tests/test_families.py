import hashlib
import itertools

import pytest

from zdg.acceptance import sweep_specs
from zdg.algebra import emit_table_csv, same_products, validate
from zdg.errors import InputError
from zdg.families import (
    RULES,
    FamilySpec,
    _construction,
    add_cap,
    add_edge,
    add_end,
    generate_graph,
    generate_table,
)
from zdg.graph import distances_from, zero_divisor_graph


def test_fig3_graph_shape():
    g = generate_graph(FamilySpec("fig3", m=2, n=2, u=1, v=2))
    assert g.n == 10
    assert g.degree("y1") == 2
    assert g.degree("v1") == 1
    assert distances_from(g, "y1")["v1"] == 3


def test_fig5_graph_shape():
    g = generate_graph(FamilySpec("fig5", m=1, n=1, v=0))
    assert set(g.vertices) == {"a", "b", "c1", "x1", "x2", "y1"}
    assert not g.has_edge("x1", "x2")
    assert g.neighbors("y1") == {"x1", "x2"}


def test_kn2_graph_shape(kn2_graph):
    for pair in itertools.combinations(("a", "b", "x1", "x2"), 2):
        assert kn2_graph.has_edge(*pair)
    assert kn2_graph.degree("y1") == 1
    g5 = generate_graph(FamilySpec("kn2", n=5))
    assert "p5" in g5.vertices and g5.degree("p5") == 4


def test_parameter_bounds():
    for bad in (
        dict(family="fig3", m=0, n=1),
        dict(family="fig3", m=1, n=0),
        dict(family="fig4", caps=0, w=1),
        dict(family="fig4", caps=1, w=0),
        dict(family="fig5", m=0, n=1),
        dict(family="kn2", n=3),
        dict(family="nope"),
        # a nonzero parameter the family does not use
        dict(family="fig3", m=1, n=1, w=1),
        dict(family="fig3", m=1, n=1, caps=1),
        dict(family="fig4", caps=1, w=1, m=1),
        dict(family="fig5", m=1, n=1, u=1),
        dict(family="fig5", m=1, n=1, caps=1),
        dict(family="kn2", n=4, m=3),
        dict(family="kn2", n=4, v=1),
    ):
        with pytest.raises(InputError):
            FamilySpec(**bad)
    with pytest.raises(InputError):
        FamilySpec("fig3", m=1, n=-1)


def test_add_end_add_cap_add_edge():
    g = generate_graph(FamilySpec("fig3", m=1, n=1, u=0, v=1))
    bigger = add_end(g, "b")
    assert bigger.n == g.n + 1
    assert g.n == 6  # original untouched
    w = next(iter(set(bigger.vertices) - set(g.vertices)))
    assert bigger.degree(w) == 1 and bigger.has_edge(w, "b")

    capped = add_cap(g, "b", "d")
    wc = next(iter(set(capped.vertices) - set(g.vertices)))
    assert capped.neighbors(wc) == {"b", "d"}

    with_edge = add_edge(g, "y1", "x1")
    assert with_edge.has_edge("y1", "x1") and not g.has_edge("y1", "x1")

    with pytest.raises(InputError):
        add_end(g, "zzz")
    with pytest.raises(InputError):
        add_cap(g, "b", "b")
    with pytest.raises(InputError):
        add_edge(g, "a", "b")  # already present
    with pytest.raises(InputError):
        add_end(g, "b", name="a")  # collides
    with pytest.raises(InputError):
        add_edge(g, "a", "a")  # a loop
    with pytest.raises(InputError):
        add_cap(g, "a", "b", name="a")  # collides


def test_fresh_names_avoid_collisions():
    g = generate_graph(FamilySpec("fig4", caps=1, u=0, v=0, w=1))
    assert "w1" in g.vertices
    bigger = add_end(g, "a")
    assert "w2" in bigger.vertices


def test_generated_tables_match_fixtures(table3, table4, table5, table6, table7):
    pairs = [
        (FamilySpec("fig3", m=2, n=2, u=1, v=2), table3),
        (FamilySpec("fig4", caps=2, u=2, v=0, w=2), table4),
        (FamilySpec("fig5", m=2, n=2, v=2), table5),
        (FamilySpec("kn2", n=4), table6),
        (FamilySpec("kn2", n=4, caps=2), table7),
    ]
    for spec, fixture in pairs:
        assert same_products(generate_table(spec), fixture)


def test_remembered_cells(table3, table5, table7):
    assert table3.mul("u1", "v1") == "x1"
    assert table3.mul("y1", "y2") == "d"
    assert table5.mul("c1", "c1") == "x1"
    assert table5.mul("y1", "y1") == "y1"
    assert table7.mul("c1", "c2") == "c1"
    assert table7.mul("y1", "y2") == "c1"


def test_fig4_table_refuses_double_ends():
    with pytest.raises(InputError):
        generate_table(FamilySpec("fig4", caps=1, u=1, v=1, w=1))


def test_fig4_mirror_table():
    table = generate_table(FamilySpec("fig4", caps=1, u=0, v=2, w=1))
    assert table.mul("a", "a") == "b"  # ends sit on b, so the roles flip
    assert table.mul("b", "b") == "0"
    assert table.mul("v1", "v2") == "c1"


def test_kn2_caps_table_only_n4():
    with pytest.raises(InputError):
        generate_table(FamilySpec("kn2", n=5, caps=1))


def test_sweep_grid_validates_and_matches():
    specs = []
    for m, n, u, v in itertools.product((1, 3), (1, 2), (0, 2), (0, 3)):
        specs.append(FamilySpec("fig3", m=m, n=n, u=u, v=v))
    for m, n, v in itertools.product((1, 2), (1, 3), (0, 1)):
        specs.append(FamilySpec("fig5", m=m, n=n, v=v))
    specs += [
        FamilySpec("fig4", caps=3, u=2, v=0, w=1),
        FamilySpec("fig4", caps=1, u=0, v=3, w=2),
        FamilySpec("fig4", caps=2, u=0, v=0, w=3),
        FamilySpec("kn2", n=4, caps=3),
        FamilySpec("kn2", n=6),
    ]
    for spec in specs:
        table = generate_table(spec)
        assert validate(table).ok
        assert zero_divisor_graph(table).same_graph(generate_graph(spec))
        assert table.names[1:] == generate_graph(spec).vertices


def test_sweep_tables_pinned():
    # every cell of all 247 criterion-2 tables, pinned by one digest
    specs = sweep_specs()
    assert len(specs) == 247
    text = "".join(emit_table_csv(generate_table(spec)) for spec in specs)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b42a3fa61ce5649f1d91dbcc1fc9004eea476e9c68ffce2085c54c12a41bc8ec"
    )


def test_rule_tables_complete():
    # one spec per construction with every class present: each rule table
    # holds exactly the sorted kind pairs its elements produce
    specs = [
        FamilySpec("fig3", m=2, n=2, u=2, v=2),
        FamilySpec("fig5", m=2, n=2, v=2),
        FamilySpec("fig4", caps=2, w=2),
        FamilySpec("fig4", caps=2, u=2, w=2),
        FamilySpec("fig4", caps=2, v=2, w=2),
        FamilySpec("kn2", n=5),
        FamilySpec("kn2", n=4, caps=2),
    ]
    used = []
    for spec in specs:
        rules, kind, _ = _construction(spec)
        kinds = sorted({kind(z) for z in generate_graph(spec).vertices})
        assert set(rules) == set(itertools.combinations_with_replacement(kinds, 2)), spec
        used.append(rules)
    assert all(any(rules is table for rules in used) for table in RULES.values())


def test_class_collapse_coherence():
    # members of one parametric class have identical rows once every value
    # is collapsed to its class representative
    cases = [
        (FamilySpec("fig3", m=3, n=3, u=2, v=3), ("x", "y", "u", "v")),
        (FamilySpec("fig5", m=3, n=2, v=2), ("c", "y", "v")),
        (FamilySpec("fig4", caps=2, u=3, v=0, w=2), ("c", "u", "w")),
        (FamilySpec("kn2", n=4, caps=3), ("c",)),
    ]
    for spec, class_prefixes in cases:
        table = generate_table(spec)

        def rep(name):
            head = name.rstrip("0123456789")
            return head if head in class_prefixes else name

        classes = {}
        for name in table.names[1:]:
            if rep(name) != name:
                classes.setdefault(rep(name), []).append(name)
        assert classes, spec
        for members in classes.values():
            first = members[0]
            for other in members[1:]:
                for z in table.names:
                    assert rep(table.mul(first, z)) == rep(table.mul(other, z)), (
                        spec,
                        first,
                        other,
                        z,
                    )


def test_generated_degree_facts():
    g = generate_graph(FamilySpec("fig4", caps=2, u=2, v=1, w=3))
    for v in ("u1", "u2", "v1", "w1", "w2", "w3"):
        assert g.degree(v) == 1
    for c in ("c1", "c2"):
        assert g.neighbors(c) == {"a", "b"}
