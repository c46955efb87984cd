"""Executable verifiers for the structural facts about realizing semigroups.

Each checker derives its own preconditions from the table (end-vertex sets,
internal vertices, squares) rather than trusting the caller, reports
inapplicable claims as vacuous, and treats a failing applicable claim as a
hard finding: on a valid table it would mean a bug (or a counterexample to
the underlying mathematics, which the corpus sweep exists to rule out).

``run_all`` builds the table's zero-divisor graph once and derives all seven
claims of a witness (Thm 2.4's five, Thm 2.6, Prop 2.8) from one partition,
once per edge (a, b): they are the same for every witness (a, b, s, z) on it.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .algebra import (
    CayleyTable,
    ZERO_NAME,
    closure_violation,
    ideal_violation,
    validate,
)
from .errors import InputError
from .graph import (
    DeltaWitness,
    LabeledGraph,
    _bits,
    _layers,
    _witness_edges,
    is_internal_vertex,
    partition,
    t_set,
    zero_divisor_graph,
)

CLAIMS = ("lemma_2_1 prop_2_2.1 prop_2_2.2 thm_2_4.ideal_0ab thm_2_4.ideal_complement "
          "thm_2_4.l_closed thm_2_4.case1_ideal thm_2_4.case2_subsemigroup thm_2_6 prop_2_8").split()


@dataclass(frozen=True)
class ClaimCheck:
    claim: str
    subject: str
    applicable: bool
    holds: bool | None
    detail: str = ""

    def line(self) -> str:
        if not self.applicable:
            status, verdict = "vacuous", "-"
        else:
            status, verdict = "applicable", "holds" if self.holds else "fails"
        subject = f"[{self.subject}]" if self.subject else ""
        tail = f" {self.detail}" if self.detail else ""
        return f"CLAIM {self.claim}{subject} {status} {verdict}{tail}"


@dataclass(frozen=True)
class TheoremReport:
    checks: tuple[ClaimCheck, ...]

    def failures(self) -> tuple[ClaimCheck, ...]:
        return tuple(c for c in self.checks if c.applicable and c.holds is False)

    def to_text(self) -> str:
        lines = sorted(c.line() for c in self.checks)
        return "\n".join(lines) + "\n" if lines else ""


def coverage(counts: Counter[str]) -> str:
    """The line ``applicable: <claim> <count>, ...`` over every claim, zeros included."""
    return "applicable: " + ", ".join(f"{claim} {counts[claim]}" for claim in CLAIMS)


def _holds_unless(claim: str, subject: str, bad: tuple[str, str, str] | None) -> ClaimCheck:
    """An applicable claim that holds unless ``bad`` is an ``x*y=z`` triple."""
    detail = "" if bad is None else "{}*{}={}".format(*bad)
    return ClaimCheck(claim, subject, True, bad is None, detail)


def _vacuous(claim: str, subject: str, why: str) -> ClaimCheck:
    return ClaimCheck(claim, subject, False, None, why)


def _lemma_2_1(table: CayleyTable, g: LabeledGraph) -> list[ClaimCheck]:
    """Lemma 2.1: a vertex with some vertex at distance 3 has nonzero square."""
    checks = []
    for x in sorted(g.vertices):
        layers = _layers(g.masks, g.check_vertex(x))
        if len(layers) > 3:
            far = min(g.vertices[v] for v in _bits(layers[3]))
            sq = table.mul(x, x)
            detail = f"d({x},{far})=3 and {x}*{x}={sq}"
            checks.append(ClaimCheck("lemma_2_1", f"x={x}", True, sq != ZERO_NAME, detail))
    return checks or [_vacuous("lemma_2_1", "", "no pair at distance 3")]


def _prop_2_2(table: CayleyTable, g: LabeledGraph, b: str) -> list[ClaimCheck]:
    """Prop 2.2: (1) b*b != 0 makes T_b + {0} closed; (2) T_b != {} on a non-end b
    makes {0,b} an ideal.
    """
    tb = t_set(g, b)
    subject = f"b={b}"
    sq = table.mul(b, b)
    if sq != ZERO_NAME and tb:
        bad = closure_violation(table, tb | {ZERO_NAME})
        part1 = _holds_unless("prop_2_2.1", subject, bad)
    else:
        part1 = _vacuous("prop_2_2.1", subject, f"{b}^2=0" if sq == ZERO_NAME else "T_b empty")
    if tb and g.degree(b) > 1:
        part2 = _holds_unless("prop_2_2.2", subject, ideal_violation(table, {ZERO_NAME, b}))
    else:
        part2 = _vacuous("prop_2_2.2", subject, f"{b} is an end vertex" if tb else "T_b empty")
    return [part1, part2]


def _witness_claims(table: CayleyTable, g: LabeledGraph, w: DeltaWitness) -> list[ClaimCheck]:
    """Thm 2.4's five claims, then Thm 2.6, then Prop 2.8, in that order."""
    part = partition(g, w)  # validates the witness
    subject = f"witness=({w.a},{w.b},{w.s},{w.z})"
    outside_caps = set(table.names) - set(part.c_ab)
    a_internal = is_internal_vertex(g, w.a)
    b_internal = is_internal_vertex(g, w.b)
    b_square = table.mul(w.b, w.b) != ZERO_NAME
    # Thm 2.4 case 2 and Thm 2.6 share one hypothesis
    roles = a_internal and not b_internal and b_square
    roles_why = "needs a internal, b not internal, b^2 != 0"
    l_names = sorted(part.l_set)
    l_bad = next(
        ((u, v, table.mul(u, v)) for u in l_names for v in l_names
         if table.mul(u, v) not in part.l_set),
        None,
    )
    complement = outside_caps - set(part.t_a) - set(part.t_b)
    checks = [
        _holds_unless("thm_2_4.ideal_0ab", subject, ideal_violation(table, {ZERO_NAME, w.a, w.b})),
        _holds_unless("thm_2_4.ideal_complement", subject, ideal_violation(table, complement)),
        _holds_unless("thm_2_4.l_closed", subject, l_bad),
    ]
    if a_internal and b_internal:
        bad = ideal_violation(table, outside_caps)
        checks.append(_holds_unless("thm_2_4.case1_ideal", subject, bad))
    else:
        checks.append(_vacuous("thm_2_4.case1_ideal", subject, "a, b not both internal"))
    if roles:
        bad = closure_violation(table, outside_caps)
        checks.append(_holds_unless("thm_2_4.case2_subsemigroup", subject, bad))
        bad = ideal_violation(table, {ZERO_NAME, w.a}) or ideal_violation(table, {ZERO_NAME, w.b})
        checks.append(_holds_unless("thm_2_6", subject, bad))
    else:
        checks.append(_vacuous("thm_2_4.case2_subsemigroup", subject, roles_why))
        checks.append(_vacuous("thm_2_6", subject, roles_why))
    if a_internal and (b_internal or (b_square and len(part.t_b) == 1)):
        found = next(
            (c for c in sorted(part.c_ab) if closure_violation(table, outside_caps | {c}) is None),
            None,
        )
        detail = f"c={found}" if found else "no cap works"
        checks.append(ClaimCheck("prop_2_8", subject, True, found is not None, detail))
    else:
        why = "needs both internal, or a internal with b^2 != 0 and |T_b| = 1"
        checks.append(_vacuous("prop_2_8", subject, why))
    return checks


def _claims(table: CayleyTable) -> list[ClaimCheck]:
    """Every claim of ``run_all``, without its check that the table is a semigroup."""
    g = zero_divisor_graph(table)
    checks = _lemma_2_1(table, g)
    for b in sorted(g.vertices):
        checks += _prop_2_2(table, g, b)
    edges = list(_witness_edges(g))
    for a, b, caps, far in edges:
        claims = _witness_claims(table, g, DeltaWitness(a, b, caps[0], far[0]))
        for subject in (f"witness=({a},{b},{s},{z})" for s in caps for z in far):
            checks += [ClaimCheck(c.claim, subject, c.applicable, c.holds, c.detail)
                       for c in claims]
    if not edges:
        checks += [_vacuous(c, "", "no witness") for c in ("thm_2_4", "thm_2_6", "prop_2_8")]
    return checks


def run_all(table: CayleyTable) -> TheoremReport:
    """Run every checker over every vertex and every witness of the table's graph.

    Any applicable claim that fails is a hard failure; the corpus-wide sweep
    in the test suite asserts there are none.
    """
    if not validate(table).ok:
        raise InputError("run_all needs a validated table")
    return TheoremReport(tuple(_claims(table)))
