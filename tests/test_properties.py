"""Property-style checks over the generated corpus."""
import math

from hypothesis import given, settings, strategies as st

from zdg.algebra import (
    AssociativityFailure,
    CayleyTable,
    ValidationReport,
    closure_violation,
    ideal_violation,
    validate,
)
from zdg.families import FamilySpec, generate_graph, generate_table
from zdg.graph import (
    LabeledGraph,
    _covering,
    distances_from,
    is_connected,
    is_isomorphic,
    necessary_conditions,
    zero_divisor_graph,
)

SPECS = [
    FamilySpec("fig3", m=1, n=1, u=0, v=0),
    FamilySpec("fig3", m=2, n=1, u=1, v=2),
    FamilySpec("fig3", m=1, n=3, u=2, v=1),
    FamilySpec("fig4", caps=1, u=2, v=0, w=1),
    FamilySpec("fig4", caps=2, u=0, v=1, w=2),
    FamilySpec("fig5", m=1, n=2, v=0),
    FamilySpec("fig5", m=2, n=1, v=2),
    FamilySpec("kn2", n=4),
    FamilySpec("kn2", n=4, caps=2),
    FamilySpec("kn2", n=5),
]
TABLES = [generate_table(spec) for spec in SPECS]
GRAPHS = [generate_graph(spec) for spec in SPECS]

tables = st.sampled_from(TABLES)
graphs = st.sampled_from(GRAPHS)


def _reference_report(rows):
    """validate's report by the definitions, over all pairs and all triples."""
    n = len(rows)
    triple = next(
        ((i, j, k) for i in range(n) for j in range(n) for k in range(n)
         if rows[rows[i][j]][k] != rows[i][rows[j][k]]),
        None,
    )
    failure = None
    if triple:
        i, j, k = triple
        failure = AssociativityFailure(i, j, k, rows[rows[i][j]][k], rows[i][rows[j][k]])
    return ValidationReport(
        all(rows[i][j] == rows[j][i] for i in range(n) for j in range(n)),
        all(rows[0][j] == 0 == rows[j][0] for j in range(n)),
        triple is None,
        failure,
    )


def _semigroups_up_to_6():
    """Semigroups with zero of order <= 6, commutative or not."""
    out = [t.rows for t in TABLES if t.order <= 6]
    for n in range(1, 7):
        out.append(tuple((0,) * n for _ in range(n)))  # null semigroup
        # left and right zero bands with a zero adjoined: not commutative
        out.append(tuple(tuple(i if i and j else 0 for j in range(n)) for i in range(n)))
        out.append(tuple(tuple(j if i and j else 0 for j in range(n)) for i in range(n)))
    # the Brandt semigroup B2 on 0, e11, e12, e21, e22: e_ab * e_cd = e_ad if b == c, else 0
    out.append(((0, 0, 0, 0, 0), (0, 1, 2, 0, 0), (0, 0, 0, 1, 2), (0, 3, 4, 0, 0), (0, 0, 0, 3, 4)))
    return out


SEMIGROUPS = _semigroups_up_to_6()


@st.composite
def small_tables(draw):
    """Tables of order <= 6: a semigroup with its nonzero elements permuted,
    or random cells with or without a commutative absorbing zero, then a few
    cells changed, in one place or in both symmetric ones."""
    if draw(st.booleans()):
        base = draw(st.sampled_from(SEMIGROUPS))
        n = len(base)
        perm = [0] + draw(st.permutations(range(1, n)))
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                rows[perm[i]][perm[j]] = perm[base[i][j]]
    else:
        n = draw(st.integers(1, 6))
        cell = st.integers(0, n - 1)
        rows = [[draw(cell) for _ in range(n)] for _ in range(n)]
        if draw(st.booleans()):  # an absorbing zero
            for j in range(n):
                rows[0][j] = rows[j][0] = 0
        if draw(st.booleans()):  # commutative
            for i in range(n):
                for j in range(i):
                    rows[i][j] = rows[j][i]
    for _ in range(draw(st.integers(0, 2))):
        i, j, v = draw(st.tuples(*[st.integers(0, n - 1)] * 3))
        rows[i][j] = v
        if draw(st.booleans()):
            rows[j][i] = v
    return rows


@given(small_tables())
@settings(max_examples=400, deadline=None)
def test_validate_matches_the_all_triples_reference(rows):
    # every report field, first_failure included, on tables of every kind:
    # commutative or not, absorbing zero or not, associative or not
    assert validate(CayleyTable(["0", "a", "b", "c", "d", "e"][: len(rows)], rows)) == (
        _reference_report(rows)
    )


def test_validate_matches_the_reference_on_every_order_4_semigroup(order4_semigroups):
    for table in order4_semigroups:
        assert validate(CayleyTable(table.names, table.rows)) == _reference_report(table.rows)


@given(tables)
def test_corpus_tables_validate(table):
    assert validate(table).ok


@given(tables, st.data())
@settings(max_examples=60, deadline=None)
def test_mutated_tables_associativity_matches_a_direct_scan(table, data):
    # validate's verdict on a one-cell mutant agrees with a scan of all
    # triples, and a reported failure is a triple that really fails
    names = table.names[1:]
    x = data.draw(st.sampled_from(names))
    y = data.draw(st.sampled_from(names))
    value = data.draw(st.sampled_from(table.names))
    mutant = table.with_cell(x, y, value)
    rows, n = mutant.rows, mutant.order
    report = validate(mutant)
    assert report.associative == all(
        rows[rows[i][j]][k] == rows[i][rows[j][k]]
        for i in range(n) for j in range(n) for k in range(n)
    )
    if not report.associative:
        f = report.first_failure
        assert f.left == rows[rows[f.i][f.j]][f.k] != rows[f.i][rows[f.j][f.k]] == f.right


@given(tables, st.data())
def test_ideal_implies_subsemigroup(table, data):
    subset = data.draw(st.sets(st.sampled_from(table.names), min_size=1))
    if ideal_violation(table, subset) is None:
        assert closure_violation(table, subset) is None


@given(tables, st.data())
def test_ideal_members_absorb(table, data):
    subset = data.draw(st.sets(st.sampled_from(table.names), min_size=1))
    if ideal_violation(table, subset) is not None:
        return
    for x in subset:
        for y in table.names:
            assert table.mul(x, y) in subset


@given(graphs)
def test_semigroup_graphs_connected_small_diameter(g):
    if g.n < 2:
        return
    assert is_connected(g)
    for v in g.vertices:
        assert max(distances_from(g, v).values()) <= 3
    assert necessary_conditions(g).passed


@given(graphs)
def test_partitions_of_semigroup_graphs_are_clean(g):
    from zdg.graph import delta_witnesses, partition

    for w in delta_witnesses(g):
        part = partition(g, w)
        assert not part.violations
        pieces = (part.ab, part.c_ab, part.b_set, part.l_set)
        assert set().union(*pieces) == set(g.vertices)
        assert sum(len(p) for p in pieces) == g.n  # pairwise disjoint
        for piece in pieces:
            assert piece  # all four nonempty when a witness exists


@given(tables)
def test_graph_of_table_is_its_generated_graph(table):
    g = zero_divisor_graph(table)
    assert set(g.vertices) == set(table.names) - {"0"}


@given(graphs, st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_distance_is_a_metric(g, rng):
    verts = list(g.vertices)
    if len(verts) < 3:
        return
    x, y, z = rng.sample(verts, 3)
    dx = distances_from(g, x)
    dy = distances_from(g, y)
    assert dx[y] == dy[x]
    if not math.isinf(dx[z]) and not math.isinf(dy[z]):
        assert dx[z] <= dx[y] + dy[z]


@given(graphs, st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=None)
def test_isomorphic_to_own_relabeling(g, rng):
    if g.n > 16:
        return
    names = list(g.vertices)
    shuffled = names[:]
    rng.shuffle(shuffled)
    mapping = dict(zip(names, shuffled))
    h = LabeledGraph(shuffled, [(mapping[a], mapping[b]) for a, b in g.edges()])
    assert is_isomorphic(g, h)


@st.composite
def adjacency_and_two_sets(draw):
    """Neighbourhood bitmasks of a random graph on 1-12 vertices, and two vertex masks."""
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.integers(0, (1 << len(pairs)) - 1))
    adj = [0] * n
    for k, (i, j) in enumerate(pairs):
        if chosen >> k & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    everything = (1 << n) - 1
    return adj, draw(st.integers(0, everything)), draw(st.integers(0, everything))


@given(adjacency_and_two_sets())
@settings(max_examples=300)
def test_covering_distributes_over_union(case):
    # the identity the cover pre-check and the search's pair domains rest on
    adj, a, b = case
    assert _covering(adj, a | b) == _covering(adj, a) & _covering(adj, b)
