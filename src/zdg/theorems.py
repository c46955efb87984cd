"""Executable checks of the paper's structure theorems on a validated table.

``_claims`` reads the table's zero-divisor graph, which ``zero_divisor_graph``
builds once per table and keeps on it, and decides every claim on vertex
positions, neighbourhood bitmasks and the table's rows: a subset is a mask of
element indices, an ideal test reads each member row's product mask and a
closure test walks the members' set bits. Names are read only to format a
claim's subject and detail. An inapplicable claim is reported vacuous; an
applicable one that fails on a valid table would mean a bug, or a
counterexample to the mathematics, which the corpus sweep exists to rule out.
"""
from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .algebra import CayleyTable, _escape, validate
from .errors import InputError
from .graph import LabeledGraph, _bits, _layers, _witness_edges, zero_divisor_graph

CLAIMS = ("lemma_2_1 prop_2_2.1 prop_2_2.2 thm_2_4.ideal_0ab thm_2_4.ideal_complement "
          "thm_2_4.l_closed thm_2_4.case1_ideal thm_2_4.case2_subsemigroup thm_2_6 prop_2_8").split()


class ClaimCheck(NamedTuple):
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


class TheoremReport(NamedTuple):
    checks: tuple[ClaimCheck, ...]

    def failures(self) -> tuple[ClaimCheck, ...]:
        return tuple(c for c in self.checks if c.applicable and c.holds is False)

    def to_text(self) -> str:
        lines = sorted(c.line() for c in self.checks)
        return "\n".join(lines) + "\n" if lines else ""


def coverage(counts: Counter[str]) -> str:
    """The line ``applicable: <claim> <count>, ...`` over every claim, zeros included."""
    return "applicable: " + ", ".join(f"{claim} {counts[claim]}" for claim in CLAIMS)


def _claim(claim: str, subject: str, names, outcome) -> ClaimCheck:
    """A claim whose ``outcome`` is an ``x*y=z`` index triple that refutes it,
    None if it holds, or a string: the reason it is vacuous."""
    if isinstance(outcome, str):
        return ClaimCheck(claim, subject, False, None, outcome)
    detail = "" if outcome is None else "{}*{}={}".format(*(names[i] for i in outcome))
    return ClaimCheck(claim, subject, True, outcome is None, detail)


def _layout(table: CayleyTable, g: LabeledGraph) -> tuple:
    """``(names, rows, prods, g, ends, idx)``: what the claims read of a table and its graph.

    ``prods[i]`` is the mask of the products in row i, ``ends`` the mask of
    g's end vertices, and ``idx[v]`` the element index of g's vertex v.
    """
    names, rows = table.names, table.rows
    where = {name: i for i, name in enumerate(names)}
    ends = sum(1 << v for v, m in enumerate(g.masks) if m.bit_count() == 1)
    prods = [sum({1 << p for p in row}) for row in rows]
    return names, rows, prods, g, ends, [where[v] for v in g.vertices]


def _lift(idx: list[int], mask: int) -> int:
    """The mask of the element indices of the vertices in ``mask``."""
    return sum(1 << idx[v] for v in _bits(mask))


def _witness_claims(layout: tuple, a: int, b: int, caps: list[int], far: list[int]) -> list[ClaimCheck]:
    """Thm 2.4's five claims, then Thm 2.6, then Prop 2.8, on the witnesses of the edge (a, b).

    a, b are vertex positions in ``layout``, ``_layout``'s view of the table,
    and ``caps`` and ``far`` the edge's C(a,b) and L as ``_witness_edges``
    lists them. A vertex is internal if it has degree > 1 and no end neighbour.
    """
    names, rows, prods, g, ends, idx = layout
    masks, vn = g.masks, g.vertices
    everything = (1 << len(names)) - 1
    subject = f"witness=({vn[a]},{vn[b]},{vn[caps[0]]},{vn[far[0]]})"
    t_a, t_b = masks[a] & ends, masks[b] & ends
    a_internal = masks[a].bit_count() > 1 and not t_a
    b_internal = masks[b].bit_count() > 1 and not t_b
    b_square = rows[idx[b]][idx[b]] != 0
    # Thm 2.4 case 2 and Thm 2.6 share one hypothesis
    roles = a_internal and not b_internal and b_square
    roles_why = "needs a internal, b not internal, b^2 != 0"
    outside_caps = everything & ~sum(1 << idx[c] for c in caps)
    l_set = sum(1 << idx[z] for z in far)
    a0, b0 = 1 | 1 << idx[a], 1 | 1 << idx[b]
    complement = outside_caps & ~_lift(idx, t_a | t_b)
    checks = [
        _claim("thm_2_4.ideal_0ab", subject, names, _escape(rows, prods, a0 | b0, everything)),
        _claim("thm_2_4.ideal_complement", subject, names,
               _escape(rows, prods, complement, everything)),
        _claim("thm_2_4.l_closed", subject, names, _escape(rows, prods, l_set, l_set)),
        _claim("thm_2_4.case1_ideal", subject, names,
               _escape(rows, prods, outside_caps, everything) if a_internal and b_internal
               else "a, b not both internal"),
        _claim("thm_2_4.case2_subsemigroup", subject, names,
               _escape(rows, prods, outside_caps, outside_caps) if roles else roles_why),
        _claim("thm_2_6", subject, names,
               (_escape(rows, prods, a0, everything) or _escape(rows, prods, b0, everything))
               if roles else roles_why),
    ]
    if a_internal and (b_internal or (b_square and t_b.bit_count() == 1)):
        found = next((c for c in caps if _escape(rows, prods, outside_caps | 1 << idx[c],
                                                  outside_caps | 1 << idx[c]) is None), None)
        detail = "no cap works" if found is None else f"c={vn[found]}"
        checks.append(ClaimCheck("prop_2_8", subject, True, found is not None, detail))
    else:
        why = "needs both internal, or a internal with b^2 != 0 and |T_b| = 1"
        checks.append(_claim("prop_2_8", subject, names, why))
    return checks


def _claims(table: CayleyTable) -> list[ClaimCheck]:
    """Every claim of ``run_all``, without its check that the table is a semigroup.

    Lemma 2.1: a vertex with some vertex at distance 3 has nonzero square.
    Prop 2.2: (1) b*b != 0 makes T_b + {0} closed, where T_b is the set of end
    vertices adjacent to b; (2) T_b != {} on a non-end b makes {0,b} an ideal.
    The seven claims of a witness (a, b, s, z) are the same for every witness
    on the edge (a, b), so they are decided once per edge.
    """
    g = zero_divisor_graph(table)
    layout = names, rows, prods, g, ends, idx = _layout(table, g)
    masks, vn = g.masks, g.vertices
    everything = (1 << len(names)) - 1
    vertices = sorted(range(g.n), key=vn.__getitem__)
    checks = []
    for x in vertices:
        layers = _layers(masks, x)
        if len(layers) > 3:
            far = min(vn[v] for v in _bits(layers[3]))
            sq = rows[idx[x]][idx[x]]
            detail = f"d({vn[x]},{far})=3 and {vn[x]}*{vn[x]}={names[sq]}"
            checks.append(ClaimCheck("lemma_2_1", f"x={vn[x]}", True, sq != 0, detail))
    if not checks:
        checks.append(_claim("lemma_2_1", "", names, "no pair at distance 3"))
    for b in vertices:
        t_b, square = masks[b] & ends, rows[idx[b]][idx[b]]
        subject = f"b={vn[b]}"
        checks.append(_claim("prop_2_2.1", subject, names,
                             _escape(rows, prods, 1 | _lift(idx, t_b), 1 | _lift(idx, t_b))
                             if square and t_b
                             else "T_b empty" if square else f"{vn[b]}^2=0"))
        checks.append(_claim("prop_2_2.2", subject, names,
                             _escape(rows, prods, 1 | 1 << idx[b], everything)
                             if t_b and masks[b].bit_count() > 1
                             else f"{vn[b]} is an end vertex" if t_b else "T_b empty"))
    edges = _witness_edges(g)
    for a, b, caps, far in edges:
        claims = _witness_claims(layout, a, b, caps, far)
        checks += claims
        for subject in [f"witness=({vn[a]},{vn[b]},{vn[s]},{vn[z]})" for s in caps for z in far][1:]:
            checks += [ClaimCheck(claim, subject, applicable, holds, detail)
                       for claim, _, applicable, holds, detail in claims]
    if not edges:
        checks += [_claim(c, "", names, "no witness") for c in ("thm_2_4", "thm_2_6", "prop_2_8")]
    return checks


def run_all(table: CayleyTable) -> TheoremReport:
    """Check every claim on every vertex and every witness of the table's graph.

    Any applicable claim that fails is a hard failure; the corpus-wide sweep
    in the test suite asserts there are none.
    """
    if not validate(table).ok:
        raise InputError("run_all needs a validated table")
    return TheoremReport(tuple(_claims(table)))
