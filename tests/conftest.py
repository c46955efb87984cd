import itertools
from pathlib import Path

import pytest

from zdg.acceptance import load_golden_table
from zdg.algebra import CayleyTable, validate
from zdg.families import FamilySpec, generate_graph, generate_table
from zdg.graph import LabeledGraph, is_connected

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="session")
def table3():
    return load_golden_table("fig3_2_2_1_2")


@pytest.fixture(scope="session")
def table4():
    return load_golden_table("fig4_2_2_0_2")


@pytest.fixture(scope="session")
def table5():
    return load_golden_table("fig5_2_2_2")


@pytest.fixture(scope="session")
def table6():
    return load_golden_table("kn2_4")


@pytest.fixture(scope="session")
def table7():
    return load_golden_table("kn2_4_caps2")


@pytest.fixture(scope="session")
def fig3_graph():
    return generate_graph(FamilySpec("fig3", m=2, n=2, u=1, v=2))


@pytest.fixture(scope="session")
def kn2_graph():
    return generate_graph(FamilySpec("kn2", n=4))


@pytest.fixture(scope="session")
def small_table_corpus(table3, table4, table5, table6, table7):
    corpus = [table3, table4, table5, table6, table7]
    for spec in (
        FamilySpec("fig3", m=1, n=1, u=2, v=1),
        FamilySpec("fig5", m=2, n=1, v=0),
        FamilySpec("fig4", caps=1, u=0, v=2, w=1),
        FamilySpec("kn2", n=5),
    ):
        corpus.append(generate_table(spec))
    return corpus


@pytest.fixture(scope="session")
def order4_semigroups():
    """Every commutative semigroup with zero on 0 a b c: 194 tables.

    The cells (i <= j) are filled in product order. The tables carry
    non-zero-divisors and isolated vertices, which no family produces.
    """
    cells = [(i, j) for i in range(1, 4) for j in range(i, 4)]
    tables = []
    for values in itertools.product(range(4), repeat=len(cells)):
        rows = [[0] * 4 for _ in range(4)]
        for (i, j), v in zip(cells, values):
            rows[i][j] = rows[j][i] = v
        table = CayleyTable(["0", "a", "b", "c"], rows)
        if validate(table).ok:
            tables.append(table)
    assert len(tables) == 194
    return tables


@pytest.fixture(scope="session")
def small_connected_graphs():
    """Every connected labeled graph on the vertices a.. with 2 to 5 vertices."""
    graphs = []
    for n in range(2, 6):
        names = "abcde"[:n]
        pairs = list(itertools.combinations(names, 2))
        for k in range(n - 1, len(pairs) + 1):
            for edges in itertools.combinations(pairs, k):
                g = LabeledGraph(list(names), list(edges))
                if is_connected(g):
                    graphs.append(g)
    return graphs


def _workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        import workloads
    return workloads


def _on_v(n, edges):
    """The graph on the vertices v1..vn with the 0-based ``edges``."""
    names = [f"v{i + 1}" for i in range(n)]
    return LabeledGraph(names, [(names[i], names[j]) for i, j in edges])


@pytest.fixture(scope="session")
def bench_graphs():
    """The connected graphs pinned in bench/data/graphs.txt, as {n: [graph]}.

    One graph per isomorphism class (21, 112 and 853 on 5, 6 and 7
    vertices), on the vertices v1..vn.
    """
    by_n = _workloads().load_graphs()
    return {n: [_on_v(n, edges) for _, edges, _ in pinned] for n, pinned in by_n.items()}


@pytest.fixture(scope="session")
def sweep_graphs():
    """The graphs on which the initial sweep still acts after the first drain.

    9 of the 11,117 connected graphs on 8 vertices, keyed by graph6 code.
    """
    codes = "G{f~?G G}JnGC G~zV_C GrzkOG Gr`nGC G{f}gC G}j_NG G}j_MG G}jcI?".split()
    decode = _workloads().decode_graph6
    return {code: _on_v(*decode(code)) for code in codes}


@pytest.fixture(scope="session")
def census_graphs(bench_graphs):
    """The 112 + 853 connected graphs on 6 and 7 vertices of bench_graphs."""
    return bench_graphs[6] + bench_graphs[7]
