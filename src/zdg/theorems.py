"""Executable verifiers for the structural facts about realizing semigroups.

Each checker derives its own preconditions from the table (end-vertex sets,
internal vertices, squares) rather than trusting the caller, reports
inapplicable claims as vacuous, and treats a failing applicable claim as a
hard finding: on a valid table it would mean a bug (or a counterexample to
the underlying mathematics, which the corpus sweep exists to rule out).
"""
from __future__ import annotations

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
    delta_witnesses,
    distances_from,
    is_internal_vertex,
    partition,
    t_set,
    zero_divisor_graph,
)


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

    def merged(self, other: "TheoremReport") -> "TheoremReport":
        return TheoremReport(self.checks + other.checks)

    def to_text(self) -> str:
        lines = sorted(c.line() for c in self.checks)
        return "\n".join(lines) + "\n" if lines else ""


def _subject(w: DeltaWitness) -> str:
    return f"witness=({w.a},{w.b},{w.s},{w.z})"


def _sq(table: CayleyTable, x: str) -> str:
    return table.mul(x, x)


def check_lemma_2_1(table: CayleyTable) -> TheoremReport:
    """Vertices with some vertex at distance 3 must have nonzero square."""
    g = zero_divisor_graph(table)
    checks = []
    for x in sorted(g.vertices):
        dist = distances_from(g, x)
        far = sorted(v for v in g.vertices if dist[v] == 3)
        if not far:
            continue
        sq = _sq(table, x)
        checks.append(
            ClaimCheck(
                "lemma_2_1",
                f"x={x}",
                True,
                sq != ZERO_NAME,
                f"d({x},{far[0]})=3 and {x}*{x}={sq}",
            )
        )
    if not checks:
        checks.append(ClaimCheck("lemma_2_1", "", False, None, "no pair at distance 3"))
    return TheoremReport(tuple(checks))


def check_prop_2_2(table: CayleyTable, b: str) -> TheoremReport:
    """(1) b*b != 0 makes T_b + {0} closed; (2) T_b != 0 on a non-end b makes {0,b} an ideal."""
    g = zero_divisor_graph(table)
    if b not in g.vertices:
        raise InputError(f"{b!r} is not a vertex of the zero-divisor graph")
    tb = t_set(g, b)
    subject = f"b={b}"
    sq = _sq(table, b)
    checks = []
    if sq != ZERO_NAME and tb:
        bad = closure_violation(table, tb | {ZERO_NAME})
        checks.append(
            ClaimCheck(
                "prop_2_2.1",
                subject,
                True,
                bad is None,
                "" if bad is None else "{}*{}={}".format(*bad),
            )
        )
    else:
        why = f"{b}^2=0" if sq == ZERO_NAME else "T_b empty"
        checks.append(ClaimCheck("prop_2_2.1", subject, False, None, why))
    if tb and g.degree(b) > 1:
        bad = ideal_violation(table, {ZERO_NAME, b})
        checks.append(
            ClaimCheck(
                "prop_2_2.2",
                subject,
                True,
                bad is None,
                "" if bad is None else "{}*{}={}".format(*bad),
            )
        )
    else:
        why = "T_b empty" if not tb else f"{b} is an end vertex"
        checks.append(ClaimCheck("prop_2_2.2", subject, False, None, why))
    return TheoremReport(tuple(checks))


def check_thm_2_4(table: CayleyTable, w: DeltaWitness) -> TheoremReport:
    """The ideal/sub-semigroup structure forced by a distance-3 cap witness."""
    g = zero_divisor_graph(table)
    part = partition(g, w)  # validates the witness
    subject = _subject(w)
    everything = set(table.names)
    caps = set(part.c_ab)
    checks = []

    bad = ideal_violation(table, {ZERO_NAME, w.a, w.b})
    checks.append(
        ClaimCheck(
            "thm_2_4.ideal_0ab",
            subject,
            True,
            bad is None,
            "" if bad is None else "{}*{}={}".format(*bad),
        )
    )
    complement = everything - caps - set(part.t_a) - set(part.t_b)
    bad = ideal_violation(table, complement)
    checks.append(
        ClaimCheck(
            "thm_2_4.ideal_complement",
            subject,
            True,
            bad is None,
            "" if bad is None else "{}*{}={}".format(*bad),
        )
    )
    l_ok = True
    l_detail = ""
    for u in sorted(part.l_set):
        for v in sorted(part.l_set):
            p = table.mul(u, v)
            if p not in part.l_set:
                l_ok = False
                l_detail = f"{u}*{v}={p}"
                break
        if not l_ok:
            break
    checks.append(ClaimCheck("thm_2_4.l_closed", subject, True, l_ok, l_detail))

    a_internal = is_internal_vertex(g, w.a)
    b_internal = is_internal_vertex(g, w.b)
    if a_internal and b_internal:
        bad = ideal_violation(table, everything - caps)
        checks.append(
            ClaimCheck(
                "thm_2_4.case1_ideal",
                subject,
                True,
                bad is None,
                "" if bad is None else "{}*{}={}".format(*bad),
            )
        )
    else:
        checks.append(
            ClaimCheck(
                "thm_2_4.case1_ideal", subject, False, None, "a, b not both internal"
            )
        )
    if a_internal and not b_internal and _sq(table, w.b) != ZERO_NAME:
        bad = closure_violation(table, everything - caps)
        checks.append(
            ClaimCheck(
                "thm_2_4.case2_subsemigroup",
                subject,
                True,
                bad is None,
                "" if bad is None else "{}*{}={}".format(*bad),
            )
        )
    else:
        checks.append(
            ClaimCheck(
                "thm_2_4.case2_subsemigroup",
                subject,
                False,
                None,
                "needs a internal, b not internal, b^2 != 0",
            )
        )
    return TheoremReport(tuple(checks))


def check_thm_2_6(table: CayleyTable, w: DeltaWitness) -> TheoremReport:
    """With a internal, b not internal and b*b != 0, both {0,a} and {0,b} are ideals."""
    g = zero_divisor_graph(table)
    partition(g, w)
    subject = _subject(w)
    applicable = (
        is_internal_vertex(g, w.a)
        and not is_internal_vertex(g, w.b)
        and _sq(table, w.b) != ZERO_NAME
    )
    if not applicable:
        return TheoremReport(
            (
                ClaimCheck(
                    "thm_2_6",
                    subject,
                    False,
                    None,
                    "needs a internal, b not internal, b^2 != 0",
                ),
            )
        )
    bad_a = ideal_violation(table, {ZERO_NAME, w.a})
    bad_b = ideal_violation(table, {ZERO_NAME, w.b})
    bad = bad_a or bad_b
    return TheoremReport(
        (
            ClaimCheck(
                "thm_2_6",
                subject,
                True,
                bad is None,
                "" if bad is None else "{}*{}={}".format(*bad),
            ),
        )
    )


def check_prop_2_8(table: CayleyTable, w: DeltaWitness) -> TheoremReport:
    """Some cap c makes (everything outside C(a,b)) + {c} a sub-semigroup."""
    g = zero_divisor_graph(table)
    part = partition(g, w)
    subject = _subject(w)
    a_internal = is_internal_vertex(g, w.a)
    b_internal = is_internal_vertex(g, w.b)
    cond1 = a_internal and b_internal
    cond2 = a_internal and _sq(table, w.b) != ZERO_NAME and len(part.t_b) == 1
    if not (cond1 or cond2):
        return TheoremReport(
            (
                ClaimCheck(
                    "prop_2_8",
                    subject,
                    False,
                    None,
                    "needs both internal, or a internal with b^2 != 0 and |T_b| = 1",
                ),
            )
        )
    base = set(table.names) - set(part.c_ab)
    found = None
    for c in sorted(part.c_ab):
        if closure_violation(table, base | {c}) is None:
            found = c
            break
    return TheoremReport(
        (
            ClaimCheck(
                "prop_2_8",
                subject,
                True,
                found is not None,
                f"c={found}" if found else "no cap works",
            ),
        )
    )


def run_all(table: CayleyTable) -> TheoremReport:
    """Run every checker over every vertex and every witness of the table's graph.

    Any applicable claim that fails is a hard failure; the corpus-wide sweep
    in the test suite asserts there are none.
    """
    if not validate(table).ok:
        raise InputError("run_all needs a validated table")
    g = zero_divisor_graph(table)
    checks: list[ClaimCheck] = list(check_lemma_2_1(table).checks)
    for b in sorted(g.vertices):
        checks.extend(check_prop_2_2(table, b).checks)
    witnesses = delta_witnesses(g)
    for w in witnesses:
        checks.extend(check_thm_2_4(table, w).checks)
        checks.extend(check_thm_2_6(table, w).checks)
        checks.extend(check_prop_2_8(table, w).checks)
    if not witnesses:
        for claim in ("thm_2_4", "thm_2_6", "prop_2_8"):
            checks.append(ClaimCheck(claim, "", False, None, "no witness"))
    return TheoremReport(tuple(checks))
