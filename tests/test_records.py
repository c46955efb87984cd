"""The record contract: every result and report record is a read-only NamedTuple.

Each record unpacks, pickles and compares equal to the plain tuple of its
fields, as README ("Library") documents for ``ClaimCheck``. ``FamilySpec``
is the one dataclass, because it must check its parameters on every
construction, ``dataclasses.replace`` included.
"""
import dataclasses
import pickle

import pytest

from zdg.acceptance import CriterionResult
from zdg.algebra import AssociativityFailure, CayleyTable, ValidationReport
from zdg.errors import InputError
from zdg.families import FamilySpec, Operand
from zdg.graph import (
    CoreDecomposition,
    DeltaWitness,
    NecessaryConditionsReport,
    StructurePartition,
)
from zdg.search import EnumerationResult, Outcome, RealizationOutcome, SearchStats
from zdg.theorems import ClaimCheck, TheoremReport

TABLE = CayleyTable(("0", "a"), [[0, 0], [0, 1]])
STATS = (1, 2, 3, 0.5, 4)
FAILURE = (1, 2, 3, 0, 1)
PARTS = tuple(frozenset({name}) for name in ("a", "c", "b", "l", "t", "u", "b1", "b2"))

# Each record with its former dataclass fields, in order, and sample values.
RECORDS = [
    (AssociativityFailure, "i j k left right", FAILURE),
    (ValidationReport, "commutative zero_ok associative first_failure",
     (True, True, False, AssociativityFailure(*FAILURE))),
    (CoreDecomposition,
     "core_edges core_vertices pendant_vertices edges_on_triangle_or_square "
     "pendants_are_ends_on_core",
     (frozenset({("a", "b")}), frozenset("ab"), frozenset("c"), True, False)),
    (DeltaWitness, "a b s z", ("a", "b", "s", "z")),
    (StructurePartition, "ab c_ab b_set l_set t_a t_b b1 b2 violations",
     PARTS + (("L is not independent: l-m",),)),
    (NecessaryConditionsReport, "connected core_ok cover_ok detail",
     (True, True, False, "cover: x, y")),
    (SearchStats, "nodes forced max_depth seconds probes", STATS),
    (RealizationOutcome, "tag witness stats reason chain",
     (Outcome.REALIZED, TABLE, SearchStats(*STATS), None, ("a*a = a (decision)",))),
    (EnumerationResult, "tables exhaustive stats budget_exceeded",
     ((TABLE,), True, SearchStats(*STATS), False)),
    (TheoremReport, "checks", ((ClaimCheck("thm_2_6", "", True, True),),)),
    (CriterionResult, "number name passed detail seconds",
     (9, "machine verification", False, "sweep[3]: CLAIM ...", 0.25)),
    (Operand, "kind", ("x",)),
]


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_read_only_tuples(cls, fields, values):
    record = cls(*values)
    fields = tuple(fields.split())
    assert isinstance(record, tuple)
    assert record._fields == fields
    assert [getattr(record, f) for f in fields] == list(values)
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
    for attr in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, values[0])
    assert pickle.loads(pickle.dumps(record)) == record
    assert record == tuple(record) == values


def test_family_spec_checks_every_construction():
    # a NamedTuple's _replace would skip this check; the dataclass runs it
    with pytest.raises(InputError, match="fig3 requires m >= 1"):
        dataclasses.replace(FamilySpec("fig3", m=1, n=1), m=0)
