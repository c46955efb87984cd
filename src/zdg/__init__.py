"""Workbench for zero-divisor graphs of finite commutative semigroups with zero.

Builds zero-divisor graphs from Cayley tables, generates the known graph
families with matching tables, checks the structural facts that hold for
every semigroup graph, and decides realizability of small graphs by
certified exhaustive constraint search.
"""
from .algebra import (
    AssociativityFailure,
    CayleyTable,
    ValidationReport,
    annihilator,
    closure_violation,
    emit_table_csv,
    ideal_violation,
    idempotent_power,
    idempotents,
    parse_table_csv,
    same_products,
    validate,
)
from .errors import InputError
from .families import (
    FamilySpec,
    add_cap,
    add_edge,
    add_end,
    generate_graph,
    generate_table,
)
from .graph import (
    CoreDecomposition,
    DeltaWitness,
    LabeledGraph,
    StructurePartition,
    c_set,
    classify_special,
    core,
    delta_witnesses,
    diameter,
    distances_from,
    emit_dot,
    emit_graph_text,
    is_isomorphic,
    isomorphisms,
    necessary_conditions,
    parse_graph_text,
    partition,
    t_set,
    zero_divisor_graph,
)
from .search import (
    EnumerationResult,
    Outcome,
    RealizationOutcome,
    enumerate_tables,
    init_domains,
    propagate,
    realize,
)
from .theorems import TheoremReport, run_all

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
