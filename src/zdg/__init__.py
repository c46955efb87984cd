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
    closure_violation,
    emit_table_csv,
    ideal_violation,
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

__all__ = [
    "AssociativityFailure", "CayleyTable", "CoreDecomposition", "DeltaWitness",
    "EnumerationResult", "FamilySpec", "InputError", "LabeledGraph", "Outcome",
    "RealizationOutcome", "StructurePartition", "TheoremReport", "ValidationReport",
    "add_cap", "add_edge", "add_end", "c_set", "classify_special", "closure_violation",
    "core", "delta_witnesses", "diameter", "distances_from", "emit_dot",
    "emit_graph_text", "emit_table_csv", "enumerate_tables", "generate_graph",
    "generate_table", "ideal_violation", "init_domains", "is_isomorphic", "isomorphisms",
    "necessary_conditions", "parse_graph_text", "parse_table_csv", "partition",
    "propagate", "realize", "run_all", "same_products", "t_set", "validate",
    "zero_divisor_graph",
]
__version__ = "0.1.0"
