"""Zero-divisor graphs and the graph-theoretic notions built on them.

Everything here is a pure function over immutable :class:`LabeledGraph`
values: distances, the cycle core, cap sets C(a,b), end-vertex sets T_a,
the split {a,b} | C(a,b) | B | L induced by a witness, the three
realizability pre-checks, family recognizers, a small exact isomorphism
and automorphism routine, and the relabeling of a table along a vertex
mapping.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .algebra import CayleyTable, ZERO_NAME, _check_name
from .errors import InputError

ISO_VERTEX_LIMIT = 16


class LabeledGraph:
    """Simple undirected graph with named vertices (never named "0").

    ``masks`` is the graph's one adjacency store, a read-only tuple of
    neighbourhood bitmasks in ``vertices`` order: bit j of ``masks[i]`` is
    set iff ``vertices[i]`` and ``vertices[j]`` are adjacent. Every
    name-level view (neighbours, degrees, edges) is read off it. Copying
    and pickling rebuild the graph from its vertices and edges through the
    constructor.
    """

    __slots__ = ("vertices", "masks", "_index")

    def __init__(
        self, vertices: Sequence[str], edges: Iterable[tuple[str, str]] = ()
    ):
        vertices = tuple(vertices)
        index: dict[str, int] = {}
        for name in vertices:
            _check_name(name)
            if name == ZERO_NAME:
                raise InputError('"0" cannot name a vertex')
            if name in index:
                raise InputError(f"duplicate vertex {name!r}")
            index[name] = len(index)
        masks = [0] * len(vertices)
        for x, y in edges:
            if x not in index or y not in index:
                raise InputError(f"edge ({x},{y}) uses an unknown vertex")
            if x == y:
                raise InputError(f"loop at {x!r}: the graph is simple")
            i, j = index[x], index[y]
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "masks", tuple(masks))
        object.__setattr__(self, "_index", index)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LabeledGraph is immutable")

    def __reduce__(self) -> tuple:
        return LabeledGraph, (self.vertices, self.edges())

    @property
    def n(self) -> int:
        return len(self.vertices)

    def check_vertex(self, x: str) -> int:
        """The position of ``x`` in ``vertices``; InputError if unknown."""
        i = self._index.get(x)
        if i is None:
            raise InputError(f"unknown vertex {x!r}")
        return i

    def neighbors(self, x: str) -> frozenset[str]:
        return frozenset(self.vertices[j] for j in _bits(self.masks[self.check_vertex(x)]))

    def degree(self, x: str) -> int:
        return self.masks[self.check_vertex(x)].bit_count()

    def has_edge(self, x: str, y: str) -> bool:
        return bool(self.masks[self.check_vertex(x)] >> self.check_vertex(y) & 1)

    def edges(self) -> tuple[tuple[str, str], ...]:
        """All edges as name-sorted pairs, lexicographically ordered."""
        names = self.vertices
        out = []
        for i, m in enumerate(self.masks):
            for j in _bits(m):
                if j > i:
                    x, y = names[i], names[j]
                    out.append((x, y) if x < y else (y, x))
        return tuple(sorted(out))

    def end_vertices(self) -> set[str]:
        return {v for v, m in zip(self.vertices, self.masks) if m.bit_count() == 1}

    def same_graph(self, other: "LabeledGraph") -> bool:
        """Same vertex set and edge set, whatever the vertex order."""
        if self.vertices == other.vertices:
            return self.masks == other.masks
        return set(self.vertices) == set(other.vertices) and self.edges() == other.edges()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LabeledGraph) and self.same_graph(other)

    def __hash__(self) -> int:
        return hash((frozenset(self.vertices), self.edges()))

    def __repr__(self) -> str:
        n_edges = sum(m.bit_count() for m in self.masks) // 2
        return f"LabeledGraph({len(self.vertices)} vertices, {n_edges} edges)"


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit.bit_length() - 1)
        mask ^= bit
    return out


# --- construction from a table -------------------------------------------


def zero_divisor_graph(table: CayleyTable) -> LabeledGraph:
    """The graph on the nonzero zero-divisors of the table.

    A nonzero element is a vertex iff it annihilates some nonzero element
    (possibly itself); distinct vertices are joined iff their product is 0.
    A self-annihilating element with no distinct partner shows up as an
    isolated vertex; see :func:`isolated_vertices`.
    """
    names, rows = table.names, table.rows
    verts = [i for i in range(1, table.order) if 0 in rows[i][1:]]
    edges = [
        (names[i], names[j])
        for k, i in enumerate(verts)
        for j in verts[k + 1 :]
        if rows[i][j] == 0
    ]
    return LabeledGraph([names[i] for i in verts], edges)


def isolated_vertices(g: LabeledGraph) -> set[str]:
    """Degree-0 vertices. Semigroup graphs of interest here never have any."""
    return {v for v, m in zip(g.vertices, g.masks) if not m}


# --- distances -------------------------------------------------------------
#
# Every traversal runs on neighbourhood bitmasks laid out like ``g.masks``:
# bit j of adj[i] is set iff the i-th and j-th vertices are adjacent. So do
# the core and the pre-screen. The hot loops walk the set bits of a mask in
# place (``bit = m & -m``, then ``m ^= bit``) rather than build a list.


def _layers(adj: Sequence[int], source: int) -> list[int]:
    """Breadth-first layers from ``source``: layer d is the mask at distance d.

    The layers are disjoint, so their sum is the mask of the reachable vertices.
    """
    seen = frontier = 1 << source
    layers = []
    while frontier:
        layers.append(frontier)
        reach = 0
        m = frontier
        while m:
            bit = m & -m
            reach |= adj[bit.bit_length() - 1]
            m ^= bit
        frontier = reach & ~seen
        seen |= frontier
    return layers


def _covering(adj: Sequence[int], need: int) -> int:
    """Mask of the vertices v with every vertex of ``need`` in N[v].

    This is the neighbourhood cut shared by the cover pre-check and the
    search's initial domains: a nonzero product that every vertex of
    ``need`` annihilates is one of these vertices. Adjacency is symmetric,
    so it is the intersection of the closed neighbourhoods N[u], u in need,
    and it distributes over a union: ``_covering(adj, a | b) ==
    _covering(adj, a) & _covering(adj, b)``.
    """
    mask = (1 << len(adj)) - 1
    while need:
        bit = need & -need
        mask &= adj[bit.bit_length() - 1] | bit
        need ^= bit
    return mask


def distances_from(g: LabeledGraph, source: str) -> dict[str, float]:
    """BFS distances from ``source``; unreachable vertices get math.inf."""
    dist: dict[str, float] = dict.fromkeys(g.vertices, math.inf)
    for d, layer in enumerate(_layers(g.masks, g.check_vertex(source))):
        for v in _bits(layer):
            dist[g.vertices[v]] = d
    return dist


def diameter(g: LabeledGraph) -> float:
    """Largest pairwise distance; 0 for graphs with at most one vertex."""
    adj = g.masks
    best = 0
    for v in range(g.n):
        layers = _layers(adj, v)
        if sum(layers) != (1 << g.n) - 1:
            return math.inf
        best = max(best, len(layers) - 1)
    return best


def is_connected(g: LabeledGraph) -> bool:
    return g.n <= 1 or sum(_layers(g.masks, 0)) == (1 << g.n) - 1


# --- core (union of the cycles) --------------------------------------------


@dataclass(frozen=True)
class CoreDecomposition:
    core_edges: frozenset[tuple[str, str]]
    core_vertices: frozenset[str]
    pendant_vertices: frozenset[str]
    edges_on_triangle_or_square: bool
    pendants_are_ends_on_core: bool


def _on_triangle_or_square(adj: Sequence[int], x: int, y: int) -> bool:
    """Whether the edge x-y lies on a 3-cycle or on a 4-cycle x-y-z-w-x.

    That is, some w in N(x) - {y} lies in N(y) - {x} or has a neighbour there.
    """
    far = adj[y] & ~(1 << x)
    m = adj[x] & ~(1 << y)
    while m:
        bit = m & -m
        if (adj[bit.bit_length() - 1] | bit) & far:
            return True
        m ^= bit
    return False


def _core_of(adj: Sequence[int]) -> tuple[list[tuple[int, int]], bool, bool]:
    """The core of a connected graph on bitmasks: ``core()``'s edges and flags.

    Returns the core edges as index pairs i < j, whether each of them lies
    on a 3- or 4-cycle, and whether every vertex off the core is an end
    vertex whose one neighbour is on it (vacuous when there is no core).
    An edge on no short cycle is a core edge iff its ends stay connected
    without it; an edge at an end vertex never does.
    """
    pairs = []
    on_cycles = True
    core_mask = 0
    for i, nb in enumerate(adj):
        m = nb >> i + 1 << i + 1
        while m:
            bit = m & -m
            m ^= bit
            j = bit.bit_length() - 1
            if nb == bit or adj[j] == 1 << i:
                continue
            # a common neighbour closes a triangle, without walking N(i)
            if not nb & adj[j] and not _on_triangle_or_square(adj, i, j):
                cut = list(adj)
                cut[i] ^= bit
                cut[j] ^= 1 << i
                if not sum(_layers(cut, i)) & bit:
                    continue
                on_cycles = False
            pairs.append((i, j))
            core_mask |= 1 << i | bit
    pendants_ok = not pairs or all(
        adj[v].bit_count() == 1 and adj[v] & core_mask
        for v in range(len(adj))
        if not core_mask >> v & 1
    )
    return pairs, on_cycles, pendants_ok


def core(g: LabeledGraph) -> CoreDecomposition:
    """Split the graph into its cycle core (the non-bridge edges) and pendants.

    Also reports whether every core edge lies on a 3- or 4-cycle and whether
    every pendant vertex is an end vertex hanging off the core - the shape
    every zero-divisor graph with a cycle must have.
    """
    if not is_connected(g):
        raise InputError("core() requires a connected graph")
    pairs, on_cycles, pendants_ok = _core_of(g.masks)
    names = g.vertices
    core_edges = frozenset(tuple(sorted((names[i], names[j]))) for i, j in pairs)
    core_vertices = frozenset(v for e in core_edges for v in e)
    pendants = frozenset(v for v in names if v not in core_vertices)
    return CoreDecomposition(core_edges, core_vertices, pendants, on_cycles, pendants_ok)


# --- caps, end sets, the condition-(triangle) witness ----------------------


def c_set(g: LabeledGraph, a: str, b: str) -> set[str]:
    """C(a,b): vertices whose neighborhood is exactly {a, b}."""
    if not g.has_edge(a, b):
        raise InputError(f"c_set requires adjacent vertices, got {a!r},{b!r}")
    want = 1 << g.check_vertex(a) | 1 << g.check_vertex(b)
    return {z for z, m in zip(g.vertices, g.masks) if m == want}


def t_set(g: LabeledGraph, a: str) -> set[str]:
    """T_a: the end vertices adjacent to a."""
    masks = g.masks
    return {g.vertices[z] for z in _bits(masks[g.check_vertex(a)]) if masks[z].bit_count() == 1}


def is_internal_vertex(g: LabeledGraph, v: str) -> bool:
    """Not an end vertex, and with no end vertex among its neighbors."""
    masks = g.masks
    nb = masks[g.check_vertex(v)]
    return nb.bit_count() > 1 and all(masks[w].bit_count() > 1 for w in _bits(nb))


@dataclass(frozen=True)
class DeltaWitness:
    """Adjacent a,b plus s in C(a,b) and z at distance exactly 3 from s."""

    a: str
    b: str
    s: str
    z: str


def _witness_edges(g: LabeledGraph) -> Iterator[tuple[str, str, list[str], list[str]]]:
    """``(a, b, caps, far)`` per ordered edge with a witness, in (a, b) order.

    Both orientations are tried, as a and b play different roles in a witness.
    ``caps`` is C(a,b) and ``far`` the vertices at distance 3 from its caps,
    both sorted. Each cap s has N(s) = {a, b}, so its distance-3 layer is
    N(X) - X - {a, b} with X = N(a) | N(b) - {a, b}, whichever cap s is and
    whichever way the edge is oriented: one breadth-first search per edge
    serves both orientations, which share the ``caps`` and ``far`` lists.
    """
    names, masks = g.vertices, g.masks
    caps_of: dict[int, list[str]] = {}
    for v, m in sorted(zip(names, masks)):
        caps_of.setdefault(m, []).append(v)
    far_of: dict[int, list[str]] = {}
    for a in sorted(names):
        for b in sorted(g.neighbors(a)):
            edge = 1 << g.check_vertex(a) | 1 << g.check_vertex(b)
            caps = caps_of.get(edge)
            if caps and edge not in far_of:
                layer3 = sum(_layers(masks, g.check_vertex(caps[0]))[3:4])  # 0 if none
                far_of[edge] = sorted(names[z] for z in _bits(layer3))
            if caps and far_of[edge]:
                yield a, b, caps, far_of[edge]


def delta_witnesses(g: LabeledGraph) -> list[DeltaWitness]:
    """Every witness, in lexicographic (a, b, s, z) order."""
    return [DeltaWitness(a, b, s, z)
            for a, b, caps, far in _witness_edges(g) for s in caps for z in far]


@dataclass(frozen=True)
class StructurePartition:
    """The split {a,b} | C(a,b) | B | L of the vertex set around a witness."""

    ab: frozenset[str]
    c_ab: frozenset[str]
    b_set: frozenset[str]
    l_set: frozenset[str]
    t_a: frozenset[str]
    t_b: frozenset[str]
    b1: frozenset[str]
    b2: frozenset[str]
    violations: tuple[str, ...]


def partition(g: LabeledGraph, w: DeltaWitness) -> StructurePartition:
    """Partition the vertices by distance from the witness cap s.

    B holds the distance-2 vertices outside C(a,b), L the distance-3
    vertices. The two structural observations every semigroup graph obeys
    (L is independent; a B-vertex with an L-neighbor is adjacent to both a
    and b) are checked, and violations reported: a violation means the graph
    is not a semigroup graph at all.
    """
    a, b, s, z = (g.check_vertex(v) for v in (w.a, w.b, w.s, w.z))
    masks = g.masks
    if not masks[a] >> b & 1:
        raise InputError(f"invalid witness: {w.a!r} and {w.b!r} are not adjacent")
    caps = c_set(g, w.a, w.b)
    if w.s not in caps:
        raise InputError(f"invalid witness: {w.s!r} is not in C({w.a},{w.b})")
    layers = _layers(masks, s) + [0] * 3
    if not layers[3] >> z & 1:
        raise InputError(f"invalid witness: d({w.s},{w.z}) != 3")

    def names(mask: int) -> frozenset[str]:
        return frozenset(g.vertices[v] for v in _bits(mask))

    def mask_of(vs: Iterable[str]) -> int:
        return sum(1 << g.check_vertex(v) for v in vs)

    def by_name(mask: int) -> list[int]:
        return sorted(_bits(mask), key=g.vertices.__getitem__)

    ab_mask = 1 << a | 1 << b
    cap_mask = mask_of(caps)
    b_mask = layers[2] & ~cap_mask
    l_mask = layers[3]
    ab, b_set, l_set = names(ab_mask), names(b_mask), names(l_mask)
    violations: list[str] = []
    for v in _bits((1 << g.n) - 1 & ~(ab_mask | cap_mask | b_mask | l_mask)):
        violations.append(f"vertex {g.vertices[v]} is neither in {{a,b}}, C(a,b), B nor L")
    t_a = frozenset(t_set(g, w.a))
    t_b = frozenset(t_set(g, w.b))
    rest = b_mask & ~mask_of(t_a | t_b)
    b2_mask = sum(1 << v for v in _bits(rest) if masks[v] & ab_mask == ab_mask)
    b1_mask = rest & ~b2_mask
    name = g.vertices
    for x, y in combinations(by_name(l_mask), 2):
        if masks[x] >> y & 1:
            violations.append(f"L is not independent: {name[x]}-{name[y]}")
    for k in by_name(b_mask):
        nb = masks[k]
        if nb & l_mask and nb & ab_mask != ab_mask:
            violations.append(
                f"B-vertex {name[k]} has an L-neighbor but is not adjacent to both {w.a} and {w.b}"
            )
    for v in by_name(b1_mask):
        if not masks[v] & b_mask:
            violations.append(f"B1-vertex {name[v]} has no neighbor inside B")
    return StructurePartition(
        ab, frozenset(caps), b_set, l_set, t_a, t_b, names(b1_mask), names(b2_mask),
        tuple(violations),
    )


# --- necessary conditions ---------------------------------------------------


@dataclass(frozen=True)
class NecessaryConditionsReport:
    """The three pre-checks every realizable graph must pass.

    Passing all three does not imply realizability; failing any one certifies
    non-realizability.
    """

    connected: bool
    core_ok: bool
    cover_ok: bool
    detail: str = ""

    @property
    def failed(self) -> tuple[str, ...]:
        out = []
        if not self.connected:
            out.append("connected")
        if not self.core_ok:
            out.append("core")
        if not self.cover_ok:
            out.append("cover")
        return tuple(out)

    @property
    def passed(self) -> bool:
        return not self.failed


def necessary_conditions(g: LabeledGraph) -> NecessaryConditionsReport:
    """Run the three pre-checks; ``detail`` names a failed cover, else core, check.

    The cover check asks, for each non-adjacent pair x, y, for a vertex z
    with N(x) | N(y) <= N[z]: the product x*y is nonzero and every neighbor
    of x or y annihilates it. It is the search's empty pair-domain cut. As
    ``_covering`` distributes over a union, the pair's candidates are the
    AND of the covers of x and y. The pairs are scanned in name order, so
    ``detail`` names the first failing pair, and a vertex's cover is
    computed the first time a pair needs it: a graph that fails early (the
    typical reject) pays for few covers rather than all n.

    A realizable graph has diameter at most 3, but that needs no check of
    its own: on a connected graph the cover check already fails wherever
    the diameter exceeds 3. Such a graph has a shortest path x-a-m-b-y. A
    vertex z with N(x) | N(b) <= N[z] must be y or a neighbor of y, and must
    also be a or a neighbor of a. Either way d(x,y) <= 3, a contradiction.
    """
    connected = is_connected(g)
    detail = ""
    if connected:
        _, on_cycles, pendants_ok = _core_of(g.masks)
        core_ok = on_cycles and pendants_ok
        if not core_ok:
            detail = "core is not a union of triangles and squares with end vertices attached"
    else:
        core_ok = False
        detail = "graph is disconnected"
    cover_ok = True
    adj = g.masks
    covers = [0] * g.n  # 0 until computed: a vertex's cover holds the vertex
    for i, j in combinations(sorted(range(g.n), key=g.vertices.__getitem__), 2):
        if adj[i] >> j & 1:
            continue
        ci = covers[i] = covers[i] or _covering(adj, adj[i])
        cj = covers[j] = covers[j] or _covering(adj, adj[j])
        if not ci & cj:
            cover_ok = False
            detail = f"no vertex dominates N({g.vertices[i]}) | N({g.vertices[j]})"
            break
    return NecessaryConditionsReport(connected, core_ok, cover_ok, detail)


# --- family recognizers ------------------------------------------------------


def _is_tree(g: LabeledGraph) -> bool:
    return is_connected(g) and len(g.edges()) == g.n - 1


def _is_path(g: LabeledGraph) -> bool:
    if g.n == 1:
        return True
    return _is_tree(g) and all(g.degree(v) <= 2 for v in g.vertices)


def _is_complete_bipartite(g: LabeledGraph) -> bool:
    """Whether g is complete bipartite, read off the parity of the BFS layers."""
    if g.n < 2 or not is_connected(g):
        return False
    adj = g.masks
    layers = _layers(adj, 0)
    even, odd = sum(layers[0::2]), sum(layers[1::2])
    return all(adj[v] == odd for v in _bits(even)) and all(adj[v] == even for v in _bits(odd))


def _fan_centers(g: LabeledGraph) -> list[str]:
    """Every vertex adjacent to all others whose removal leaves a path."""
    return [c for c in g.vertices if g.degree(c) == g.n - 1 and _is_path(_without_vertex(g, c))]


def _without_vertex(g: LabeledGraph, v: str) -> LabeledGraph:
    rest = [x for x in g.vertices if x != v]
    return LabeledGraph(rest, [(x, y) for x, y in g.edges() if v not in (x, y)])


def classify_special(g: LabeledGraph) -> str:
    """Recognize the families with known realizability classifications.

    Checks, in order: star, two-star, complete bipartite, complete bipartite
    with a thorn, triangle with up to three thorns, fan, fan with a thorn at
    one of its centers. Returns the first matching tag, or "none".
    """
    if g.n == 0 or not is_connected(g):
        return "none"
    if _is_tree(g):
        hubs = [v for v in g.vertices if g.degree(v) > 1]
        if len(hubs) <= 1 and g.n >= 2:
            return "star"
        if len(hubs) == 2 and g.has_edge(*hubs):
            return "two-star"
    if _is_complete_bipartite(g):
        return "complete-bipartite"
    if any(_is_complete_bipartite(_without_vertex(g, w)) for w in g.end_vertices()):
        return "complete-bipartite-with-thorn"
    hubs = sorted(v for v in g.vertices if g.degree(v) >= 2)
    if 3 <= g.n <= 6 and len(hubs) == 3:
        a, b, c = hubs
        if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c):
            thorns = [v for v in g.vertices if v not in hubs]
            if all(g.degree(v) == 1 for v in thorns) and all(
                len([t for t in thorns if g.has_edge(t, h)]) <= 1 for h in hubs
            ):
                return f"triangle-{len(thorns)}-thorns"
    if _fan_centers(g):
        return "fan"
    for w in g.end_vertices():
        if any(g.has_edge(w, c) for c in _fan_centers(_without_vertex(g, w))):
            return "fan-with-thorn"
    return "none"


# --- isomorphism --------------------------------------------------------------


def isomorphisms(g1: LabeledGraph, g2: LabeledGraph) -> Iterator[dict[str, str]]:
    """Every isomorphism from g1 onto g2, by backtracking with degree pruning.

    Meant for the small graphs this package deals in; refuses anything with
    more than 16 vertices. ``isomorphisms(g, g)`` lists the automorphisms.
    """
    if g1.n > ISO_VERTEX_LIMIT or g2.n > ISO_VERTEX_LIMIT:
        raise InputError(f"isomorphism search is limited to {ISO_VERTEX_LIMIT} vertices")
    if g1.n != g2.n or len(g1.edges()) != len(g2.edges()):
        return

    def signature(g: LabeledGraph, v: str) -> tuple:
        return (g.degree(v), tuple(sorted(g.degree(w) for w in g.neighbors(v))))

    sig1 = {v: signature(g1, v) for v in g1.vertices}
    sig2 = {v: signature(g2, v) for v in g2.vertices}
    if sorted(sig1.values()) != sorted(sig2.values()):
        return
    order = sorted(g1.vertices, key=lambda v: (-g1.degree(v), v))
    candidates = {
        v: [w for w in g2.vertices if sig2[w] == sig1[v]] for v in order
    }
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def extend(i: int) -> Iterator[dict[str, str]]:
        if i == len(order):
            yield dict(mapping)
            return
        v = order[i]
        for w in candidates[v]:
            if w in used:
                continue
            if all(g1.has_edge(v, u) == g2.has_edge(w, mapping[u]) for u in mapping):
                mapping[v] = w
                used.add(w)
                yield from extend(i + 1)
                del mapping[v]
                used.remove(w)

    yield from extend(0)


def is_isomorphic(g1: LabeledGraph, g2: LabeledGraph) -> bool:
    """Exact isomorphism test (16 vertices at most)."""
    return next(isomorphisms(g1, g2), None) is not None


def relabel_table(table: CayleyTable, mapping: dict[str, str]) -> CayleyTable:
    """Carry ``table`` along the renaming ``mapping`` of its nonzero elements.

    Names missing from ``mapping`` keep their name. When the new names are
    the old ones permuted, the result keeps the source's name order;
    otherwise element i of the result is the image of element i of the source.
    """
    unknown = set(mapping) - set(table.names[1:])
    if unknown:
        raise InputError(f"relabeling names no nonzero element: {sorted(unknown)}")
    new = [mapping.get(x, x) for x in table.names]
    if len(set(new)) != len(new):
        raise InputError("relabeling is not injective")
    if set(new) != set(table.names):
        return CayleyTable(new, table.rows)
    src = [new.index(x) for x in table.names]  # preimage of each name
    image = [table.index(x) for x in new]
    return CayleyTable(
        table.names, [[image[table.rows[i][j]] for j in src] for i in src]
    )


# --- file formats ---------------------------------------------------------
#
# Graph files are plain text: '#' comment lines are ignored, the first
# significant line lists the vertex names, every following line one edge.


def parse_graph_text(text: str) -> LabeledGraph:
    lines = [s for line in text.splitlines() if (s := line.strip()) and s[0] != "#"]
    if not lines:
        raise InputError("empty graph file")
    vertices = lines[0].split()
    edges = []
    for i, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"edge line {i + 1}: expected two names, got {line!r}")
        edges.append((parts[0], parts[1]))
    return LabeledGraph(vertices, edges)


def emit_graph_text(g: LabeledGraph) -> str:
    if not g.vertices:  # the parser rejects an empty graph file
        raise InputError("a graph with no vertices has no graph file")
    lines = [" ".join(g.vertices)]
    lines.extend(f"{x} {y}" for x, y in g.edges())
    return "\n".join(lines) + "\n"


_DOT_KEYWORDS = {"graph", "digraph", "subgraph", "node", "edge", "strict"}


def _dot_id(name: str) -> str:
    """The name as a DOT ID: bare if an ASCII identifier and no keyword, else quoted."""
    if name.isascii() and name.isidentifier() and name.lower() not in _DOT_KEYWORDS:
        return name
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot(g: LabeledGraph) -> str:
    """DOT rendering of the graph; output only, never parsed back."""
    lines = ["graph G {"]
    for v in g.vertices:
        if g.degree(v) == 0:
            lines.append(f"  {_dot_id(v)};")
    for x, y in g.edges():
        lines.append(f"  {_dot_id(x)} -- {_dot_id(y)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
