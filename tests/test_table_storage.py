"""How tables are stored: shared rows, no index by name, the kept graph, copy and pickle."""
import copy
import gc
import pickle
import tracemalloc

import pytest

from zdg import acceptance
from zdg.acceptance import Corpus, criterion_1, criterion_2, criterion_10
from zdg.algebra import CayleyTable, validate
from zdg.errors import InputError
from zdg.graph import LabeledGraph, zero_divisor_graph
from zdg.search import enumerate_tables, realize

LEAVES = ["x1", "x2", "x3", "x4"]
K14 = LabeledGraph(["c", *LEAVES], [("c", x) for x in LEAVES])


def _round_trips(obj):
    yield copy.copy(obj)
    yield copy.deepcopy(obj)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(obj, protocol))


def test_enumerated_tables_retain_little_memory():
    enumerate_tables(K14)  # warm every cache the search fills once
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tables = enumerate_tables(K14).tables
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tables) == 2804
    # the search checks each solution on its rows and keeps no graph on it
    assert all(t._graph is None for t in tables)
    assert retained / len(tables) <= 300


def test_tables_of_one_search_share_their_rows():
    tables = enumerate_tables(K14).tables
    rows = [row for table in tables for row in table.rows]
    assert len({id(row) for row in rows}) == len(set(rows))


def test_index_rejects_unknown_and_unhashable_names(table6):
    assert [table6.index(nm) for nm in table6.names] == list(range(table6.order))
    for bad in ("zz", 0, None, ["0"], {"a": 1}):
        with pytest.raises(InputError):
            table6.index(bad)


def test_witness_survives_copy_and_pickle(fig3_graph):
    witness = realize(fig3_graph).witness
    assert validate(witness).ok  # the report and the graph the copies must not carry
    assert zero_divisor_graph(witness).same_graph(fig3_graph)
    for again in _round_trips(witness):
        assert again == witness and again is not witness
        assert again.names == witness.names and again.rows == witness.rows
        assert again._report is None  # rebuilt through the constructor
        assert again._graph is None
        assert validate(again).ok
        assert zero_divisor_graph(again).same_graph(fig3_graph)


def test_table_keeps_its_graph(table6, monkeypatch):
    t = CayleyTable(table6.names, table6.rows)
    g = zero_divisor_graph(t)
    assert t._graph is g and zero_divisor_graph(t) is g
    other = t.with_cell("a", "a", "0")
    assert other._graph is None
    # criteria 1 and 2 build the graphs of the 5 golden and 247 sweep tables,
    # and criterion 10 reads those graphs instead of building them again
    corpus = Corpus()
    assert criterion_1(corpus)[0] and criterion_2(corpus)[0]
    tables = [*corpus.golden.values(), *corpus.sweep_tables]
    assert len(tables) == 5 + 247
    kept = [t._graph for t in tables]
    for t, g in zip(tables, kept):
        assert g is not None and g.same_graph(zero_divisor_graph(CayleyTable(t.names, t.rows)))
    returned = {}

    def spy(table):
        g = zero_divisor_graph(table)
        returned[id(table)] = g
        return g

    monkeypatch.setattr(acceptance, "zero_divisor_graph", spy)
    assert criterion_10(corpus)[0]
    assert all(returned[id(t)] is g and t._graph is g for t, g in zip(tables, kept))


def test_graph_survives_copy_and_pickle(fig3_graph):
    for again in _round_trips(fig3_graph):
        assert again is not fig3_graph
        assert again.vertices == fig3_graph.vertices
        assert again.masks == fig3_graph.masks
        assert again.edges() == fig3_graph.edges()
