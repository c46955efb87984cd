"""Parametric graph families and their matching multiplication tables.

Four families are supported:

* ``fig3``: triangle a-b-d with caps C(a,b)={y1..ym} and C(a,d)={x1..xn},
  plus end vertices u1.. on a and v1.. on d.
* ``fig4``: triangle a-b-d with caps C(a,b)={c1..}, end vertices u1.. on a,
  v1.. on b and w1.. on d.
* ``fig5``: edge a-b with caps C(a,b)={c1..cm}, two vertices x1,x2 adjacent
  to both a and b, vertices y1..yn adjacent to exactly x1 and x2, and end
  vertices v1.. on b.
* ``kn2``: the complete graph on {a,b,x1,x2,p5..pn} with end vertices
  y1 on x1 and y2 on x2, plus optional caps c1.. over {x1,x2}.

``generate_table`` builds every table from data. Elements of one parametric
class share a row pattern, so a construction is a *kind* map, which sends
each element to its class or role, plus a rule table keyed by the sorted pair
of operand kinds. A rule's result is a fixed name (``0`` included), ``MAX`` or
``MIN`` (the larger or smaller index of two members of one class), or
``Operand(k)`` (the operand of kind k). Six rule tables cover the families:
fig3, fig5, fig4 without end vertices, fig4 with end vertices, kn2, and kn2
with caps. In fig4 with end vertices the kinds are roles: X is the vertex
carrying the ends, Y the other of a and b, e the end class; X and Y in a
result stand for a and b, so ends on a and ends on b share one table. The
table is re-validated after generation, so a rule that broke associativity
for some parameter choice would be caught immediately rather than silently
shipped.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

from .algebra import CayleyTable, ZERO_NAME, validate
from .errors import InputError
from .graph import LabeledGraph, zero_divisor_graph

_PARAMETERS = {
    "fig3": ("m", "n", "u", "v"),
    "fig4": ("caps", "u", "v", "w"),
    "fig5": ("m", "n", "v"),
    "kn2": ("n", "caps"),
}
FAMILIES = tuple(_PARAMETERS)


@dataclass(frozen=True)
class FamilySpec:
    """A family id plus its integer parameters (unused ones must stay 0).

    A dataclass, unlike the result records: ``__post_init__`` checks every
    construction, ``dataclasses.replace`` included, which a NamedTuple's
    ``_make`` and ``_replace`` would skip.
    """

    family: str
    m: int = 0
    n: int = 0
    u: int = 0
    v: int = 0
    w: int = 0
    caps: int = 0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise InputError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        for field in PARAMETER_NAMES:
            value = getattr(self, field)
            if not isinstance(value, int) or value < 0:
                raise InputError(f"{self.family}: parameter {field} must be a non-negative integer")
            if value and field not in _PARAMETERS[self.family]:
                raise InputError(f"{self.family} does not use parameter {field}")
        if self.family == "fig3" and (self.m < 1 or self.n < 1):
            raise InputError("fig3 requires m >= 1 and n >= 1")
        if self.family == "fig4" and (self.caps < 1 or self.w < 1):
            raise InputError("fig4 requires caps >= 1 and w >= 1")
        if self.family == "fig5" and (self.m < 1 or self.n < 1):
            raise InputError("fig5 requires m >= 1 and n >= 1")
        if self.family == "kn2" and self.n < 4:
            raise InputError("kn2 requires n >= 4")


PARAMETER_NAMES = tuple(f.name for f in fields(FamilySpec)[1:])


def _names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(1, count + 1)]


# --- graphs -----------------------------------------------------------------


def generate_graph(spec: FamilySpec) -> LabeledGraph:
    if spec.family == "fig3":
        xs, ys = _names("x", spec.n), _names("y", spec.m)
        us, vs = _names("u", spec.u), _names("v", spec.v)
        vertices = ["a", "b", "d"] + xs + ys + us + vs
        edges = [("a", "b"), ("a", "d"), ("b", "d")]
        edges += [("a", x) for x in xs] + [("d", x) for x in xs]
        edges += [("a", y) for y in ys] + [("b", y) for y in ys]
        edges += [("a", u) for u in us] + [("d", v) for v in vs]
        return LabeledGraph(vertices, edges)
    if spec.family == "fig4":
        cs = _names("c", spec.caps)
        us, vs, ws = _names("u", spec.u), _names("v", spec.v), _names("w", spec.w)
        vertices = ["a", "b", "d"] + cs + us + vs + ws
        edges = [("a", "b"), ("a", "d"), ("b", "d")]
        edges += [("a", c) for c in cs] + [("b", c) for c in cs]
        edges += [("a", u) for u in us] + [("b", v) for v in vs] + [("d", w) for w in ws]
        return LabeledGraph(vertices, edges)
    if spec.family == "fig5":
        cs, ys, vs = _names("c", spec.m), _names("y", spec.n), _names("v", spec.v)
        vertices = ["a", "b"] + cs + ["x1", "x2"] + ys + vs
        edges = [("a", "b")]
        edges += [("a", c) for c in cs] + [("b", c) for c in cs]
        edges += [("a", "x1"), ("a", "x2"), ("b", "x1"), ("b", "x2")]
        edges += [(x, y) for x in ("x1", "x2") for y in ys]
        edges += [("b", v) for v in vs]
        return LabeledGraph(vertices, edges)
    # kn2
    clique = ["a", "b", "x1", "x2"] + _names("p", spec.n)[4:]
    cs = _names("c", spec.caps)
    vertices = clique + ["y1", "y2"] + cs
    edges = [(p, q) for i, p in enumerate(clique) for q in clique[i + 1 :]]
    edges += [("x1", "y1"), ("x2", "y2")]
    edges += [(c, "x1") for c in cs] + [(c, "x2") for c in cs]
    return LabeledGraph(vertices, edges)


# --- graph surgery ------------------------------------------------------------


def fresh_vertex_name(g: LabeledGraph) -> str:
    k = 1
    existing = set(g.vertices)
    while f"w{k}" in existing:
        k += 1
    return f"w{k}"


def add_end(g: LabeledGraph, p: str, name: str | None = None) -> LabeledGraph:
    """New graph with a fresh end vertex attached to p; g is unchanged."""
    g.check_vertex(p)
    w = name or fresh_vertex_name(g)
    return LabeledGraph(list(g.vertices) + [w], list(g.edges()) + [(p, w)])


def add_cap(g: LabeledGraph, p: str, q: str, name: str | None = None) -> LabeledGraph:
    """New graph with a fresh vertex adjacent to exactly p and q."""
    g.check_vertex(p)
    g.check_vertex(q)
    if p == q:
        raise InputError("a cap needs two distinct vertices")
    w = name or fresh_vertex_name(g)
    return LabeledGraph(list(g.vertices) + [w], list(g.edges()) + [(p, w), (q, w)])


def add_edge(g: LabeledGraph, p: str, q: str) -> LabeledGraph:
    """New graph with the edge p-q added."""
    if g.has_edge(p, q):
        raise InputError(f"edge ({p},{q}) already present")
    return LabeledGraph(g.vertices, list(g.edges()) + [(p, q)])


# --- tables -------------------------------------------------------------------

_0 = ZERO_NAME


class Operand(NamedTuple):
    """Rule result: whichever operand has this kind."""

    kind: str


# Rule results that pick the operand with the larger or smaller index
# when both operands belong to one class.
MAX, MIN = max, min

# One rule table per construction, keyed by the sorted pair of operand kinds.
RULES: dict[str, dict[tuple[str, str], object]] = {
    "fig3": {
        ("a", "a"): "a", ("a", "b"): _0, ("a", "d"): _0, ("a", "u"): _0,
        ("a", "v"): "a", ("a", "x"): _0, ("a", "y"): _0,
        ("b", "b"): _0, ("b", "d"): _0, ("b", "u"): "b", ("b", "v"): "b",
        ("b", "x"): "b", ("b", "y"): _0,
        ("d", "d"): "d", ("d", "u"): "d", ("d", "v"): _0, ("d", "x"): _0,
        ("d", "y"): "d",
        ("u", "u"): MAX, ("u", "v"): "x1", ("u", "x"): Operand("x"),
        ("u", "y"): Operand("y"),
        ("v", "v"): "v1", ("v", "x"): Operand("x"), ("v", "y"): "b",
        ("x", "x"): MAX, ("x", "y"): "b", ("y", "y"): "d",
    },
    "fig5": {
        ("a", "a"): "a", ("a", "b"): _0, ("a", "c"): _0, ("a", "v"): "a",
        ("a", "x"): _0, ("a", "y"): "a",
        ("b", "b"): _0, ("b", "c"): _0, ("b", "v"): _0, ("b", "x"): _0,
        ("b", "y"): "b",
        ("c", "c"): "x1", ("c", "v"): "x1", ("c", "x"): "x1", ("c", "y"): "b",
        ("v", "v"): "v1", ("v", "x"): "x1", ("v", "y"): "a",
        ("x", "x"): MIN, ("x", "y"): _0, ("y", "y"): "y1",
    },
    # fig3 with the C(a,d) and U classes deleted
    "fig4": {
        ("a", "a"): "a", ("a", "b"): _0, ("a", "c"): _0, ("a", "d"): _0,
        ("a", "w"): "a",
        ("b", "b"): _0, ("b", "c"): _0, ("b", "d"): _0, ("b", "w"): "b",
        ("c", "c"): "d", ("c", "d"): "d", ("c", "w"): "b",
        ("d", "d"): "d", ("d", "w"): _0, ("w", "w"): "w1",
    },
    # X is the triangle vertex carrying the end class e, Y the other of a, b
    "fig4-ends": {
        ("X", "X"): _0, ("X", "Y"): _0, ("X", "c"): _0, ("X", "d"): _0,
        ("X", "e"): _0, ("X", "w"): "X",
        ("Y", "Y"): "X", ("Y", "c"): _0, ("Y", "d"): _0, ("Y", "e"): "X",
        ("Y", "w"): "Y",
        ("c", "c"): "d", ("c", "d"): "d", ("c", "e"): "d", ("c", "w"): "X",
        ("d", "d"): "d", ("d", "e"): "d", ("d", "w"): _0,
        ("e", "e"): "c1", ("e", "w"): "Y", ("w", "w"): "w1",
    },
    # p is any clique vertex other than a, x1 and x2
    "kn2": {
        ("a", "a"): "a", ("a", "p"): _0, ("a", "x1"): _0, ("a", "x2"): _0,
        ("a", "y1"): "a", ("a", "y2"): "a",
        ("p", "p"): _0, ("p", "x1"): _0, ("p", "x2"): _0, ("p", "y1"): "x2",
        ("p", "y2"): "x1",
        ("x1", "x1"): _0, ("x1", "x2"): _0, ("x1", "y1"): _0, ("x1", "y2"): "x1",
        ("x2", "x2"): _0, ("x2", "y1"): "x2", ("x2", "y2"): _0,
        ("y1", "y1"): "y1", ("y1", "y2"): "a", ("y2", "y2"): "y2",
    },
    # n = 4, so the clique is a, b, x1, x2; c is the cap class over {x1, x2}
    "kn2-caps": {
        ("a", "a"): "a", ("a", "b"): _0, ("a", "c"): "a", ("a", "x1"): _0,
        ("a", "x2"): _0, ("a", "y1"): "a", ("a", "y2"): "a",
        ("b", "b"): "b", ("b", "c"): "b", ("b", "x1"): _0, ("b", "x2"): _0,
        ("b", "y1"): "b", ("b", "y2"): "b",
        ("c", "c"): "c1", ("c", "x1"): _0, ("c", "x2"): _0, ("c", "y1"): "c1",
        ("c", "y2"): "c1",
        ("x1", "x1"): "x1", ("x1", "x2"): _0, ("x1", "y1"): _0, ("x1", "y2"): "x1",
        ("x2", "x2"): "x2", ("x2", "y1"): "x2", ("x2", "y2"): _0,
        ("y1", "y1"): "y1", ("y1", "y2"): "c1", ("y2", "y2"): "y2",
    },
}


def _head(name: str) -> str:
    """The class of an element: "x12" -> "x"; fixed names keep their name."""
    return name.rstrip("0123456789")


def _index(name: str) -> int:
    return int(name[len(_head(name)) :])


def _construction(
    spec: FamilySpec,
) -> tuple[dict[tuple[str, str], object], Callable[[str], str], dict[str, str]]:
    """The rule table, the kind map, and the names the table's roles stand for."""
    if spec.family == "fig4" and (spec.u > 0 or spec.v > 0):
        if spec.u > 0 and spec.v > 0:
            raise InputError(
                "fig4 with end vertices on both a and b is not a semigroup graph; "
                "no table exists (need u = 0 or v = 0)"
            )
        x, y, ends = ("a", "b", "u") if spec.u > 0 else ("b", "a", "v")
        kind_of = {x: "X", y: "Y", ends: "e"}
        return RULES["fig4-ends"], lambda z: kind_of.get(_head(z), _head(z)), {"X": x, "Y": y}
    if spec.family == "kn2":
        if spec.caps > 0 and spec.n != 4:
            raise InputError("kn2 tables with caps are constructed for n = 4 only")
        own = {"a", "x1", "x2", "y1", "y2"} | ({"b"} if spec.caps > 0 else set())
        rules = RULES["kn2-caps" if spec.caps > 0 else "kn2"]
        return rules, lambda z: z if z in own else "c" if _head(z) == "c" else "p", {}
    return RULES[spec.family], _head, {}


def _build_table(spec: FamilySpec, names: tuple[str, ...]) -> CayleyTable:
    rules, kind, roles = _construction(spec)
    kinds = [kind(z) for z in names]
    index = {name: i for i, name in enumerate((ZERO_NAME,) + names)}
    rows = [[0] * (len(names) + 1)]
    for x, kx in zip(names, kinds):
        row = [0]
        for y, ky in zip(names, kinds):
            rule = rules.get((kx, ky) if kx <= ky else (ky, kx))
            if rule is None:
                raise AssertionError(f"{spec.family} rule missing for {x},{y}")
            if isinstance(rule, Operand):
                product = x if kx == rule.kind else y
            elif rule is MAX or rule is MIN:
                product = rule(x, y, key=_index)
            else:
                product = roles.get(rule, rule)
            row.append(index[product])
        rows.append(row)
    return CayleyTable((ZERO_NAME,) + names, rows)


def generate_table(spec: FamilySpec) -> CayleyTable:
    """A commutative, associative, zero-absorbing table realizing the family.

    The result is checked on the way out: it must validate and its
    zero-divisor graph must equal ``generate_graph(spec)`` with the same
    labels. For the parameter choices whose tables are known from the
    literature the output reproduces them cell for cell.
    """
    g = generate_graph(spec)
    table = _build_table(spec, g.vertices)
    report = validate(table)
    if not report.ok:
        raise RuntimeError(
            f"generated table for {spec} failed validation: "
            f"{report.first_failure.describe(table) if report.first_failure else report}"
        )
    if not zero_divisor_graph(table).same_graph(g):
        raise RuntimeError(f"generated table for {spec} does not match its graph")
    return table
