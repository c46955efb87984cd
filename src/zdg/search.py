"""Realization engine.

Given a connected graph G, decide whether a commutative semigroup with zero
exists on V(G) + {0} whose zero-divisor graph is exactly G (labels fixed),
by depth-first constraint search over the unknown table cells.

The constraint model: a cell exists for every unordered pair of distinct
non-adjacent vertices and for every square x*x (adjacent pairs are 0 by
definition and never searched). Initial domains come from two sound cuts:

* the product x*y must be annihilated by every neighbor of x or y, so its
  value v must satisfy N(x) | N(y) <= N(v) | {v};
* x*x may be 0 only if no vertex lies at distance 3 from x (Lemma 2.1).

Propagation closes the partial table under associativity: for every element
triple, whenever one bracketing of the product becomes fully evaluable, the
other bracketings are forced to agree, pruning domains and assigning forced
cells, with every deduction recorded on an undo trail. Exhausting the tree
without a solution is therefore a certificate of non-realizability,
replayable deterministically under the recorded budget. Every public
way to a search state passes one gate, ``_gate``, which checks the input and
runs the pre-screen; no state is built for a graph it refutes.

A search that stalls probes its root once: after ``PROBE_AFTER`` nodes per
cell left open by initial propagation, with no solution recorded, a fresh
copy of the root state tries each candidate of each open cell (assign,
drain, undo), prunes each one whose drain fails, and repeats to a fixpoint
(failed-literal probing). It stops after as many probe assignments as the
search has spent nodes. The probe counts only when it refutes the root:
the search then ends as an exhausted tree would, with its counters at the
trigger, so the refutation replays under the recorded budget. Otherwise it
is thrown away, and no witness, table or counter moves.

The drain and the initial sweep visit triples in a fixed order and call
``_process_triple`` on each one unless that call provably changes nothing:
its three outer products read the same (none evaluable, or all equal), or
one reads k, every known inner product's outer product reads k, and every
unknown inner cell (a,b) has only candidates w with w*c already k, c being
the third element. Such a call would assign, prune and fail nothing, so
skipping it leaves the table, the trail and every later call as they were,
and with them every answer, counter, witness and chain.

The search runs on an explicit stack of frames, one per decision, so its
depth is bounded by the number of cells and not by the interpreter's
recursion limit. Each step branches on the unassigned cell with the fewest
candidates (lowest cell first), kept in one bucket per domain size; the
triple pruning reads, per column c, bitmasks of the rows w whose product
w*c is known to equal each value, or is still unknown.

The engine deliberately searches only semigroups on V(G) + {0}; whether some
larger semigroup could realize G is a different question and out of scope.
"""
from __future__ import annotations

import time
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

from .algebra import CayleyTable, ZERO_NAME, validate
from .errors import InputError
from .graph import (
    LabeledGraph,
    _bits,
    _covering,
    _layers,
    necessary_conditions,
    zero_divisor_graph,
)

UNKNOWN = -1


BUDGET = 10_000_000  # decision nodes
# the root probe runs once a search has spent this many nodes per cell left
# open by initial propagation
PROBE_AFTER = 8


class Outcome(Enum):
    REALIZED = "realized"
    UNREALIZABLE = "unrealizable"
    BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    forced: int
    max_depth: int
    seconds: float
    probes: int = 0  # probe assignments tried, refuting or not


@dataclass(frozen=True)
class RealizationOutcome:
    tag: Outcome
    witness: CayleyTable | None
    stats: SearchStats
    reason: str | None = None
    chain: tuple[str, ...] = ()


@dataclass(frozen=True)
class EnumerationResult:
    tables: tuple[CayleyTable, ...]
    exhaustive: bool
    stats: SearchStats
    budget_exceeded: bool = False


class SearchState:
    """Partial table, bitmask domains and undo trail; built only behind ``_gate``."""

    def __init__(self, g: LabeledGraph):
        self.g = g
        self.names = (ZERO_NAME,) + tuple(g.vertices)
        self.n = n = len(self.names)
        self.index = {nm: i for i, nm in enumerate(self.names)}
        # element i is vertex i - 1 of g: the zero element takes bit 0
        self.adj = adj = [0] + [nb << 1 for nb in g.masks]
        self.has_d3 = [False] + [len(_layers(g.masks, v)) > 3 for v in range(g.n)]
        # covers[i]: the elements z with N(i) <= N[z], shifted as adj; a pair's
        # cut is the AND of its two covers (see _gate)
        self.covers = [0] + [_covering(g.masks, nb) << 1 for nb in g.masks]
        M = [UNKNOWN] * (n * n)
        for j in range(n):
            M[j] = 0
            M[j * n] = 0
        for i in range(1, n):
            for j in range(i + 1, n):
                if (adj[i] >> j) & 1:
                    M[i * n + j] = 0
                    M[j * n + i] = 0
        self.M = M
        self.domains: list[int | None] = [None] * (n * n)
        # the unassigned cells, one set per domain size
        self.buckets: list[set[int]] = [set() for _ in range(n + 1)]
        for i in range(1, n):
            for j in range(i, n):
                cid = i * n + j
                if M[cid] != UNKNOWN:
                    continue
                mask = self._square_domain(i) if i == j else self._pair_domain(i, j)
                self.domains[cid] = mask
                self.buckets[mask.bit_count()].add(cid)
        # val[c*n + x]: mask of the w with w*c == x; unk[c]: mask of the w
        # with w*c unknown. They mirror M for the triple pruning loop.
        self.val = val = [0] * (n * n)
        self.unk = unk = [0] * n
        for w in range(n):
            for c in range(n):
                x = M[w * n + c]
                if x == UNKNOWN:
                    unk[c] |= 1 << w
                else:
                    val[c * n + x] |= 1 << w
        self.trail: list[tuple] = []
        self.cells_by_value: list[list[int]] = [[] for _ in range(n)]
        self._queue: deque[int] = deque()
        self.contradiction: str | None = None
        self.nodes = 0
        self.forced = 0
        self.max_depth = 0
        self.probes = 0
        self.solutions: list[CayleyTable] = []
        # each distinct row of the recorded tables, mapped to its one copy
        self._rows: dict[tuple[int, ...], tuple[int, ...]] = {}

    # --- domain construction ------------------------------------------------

    def _pair_domain(self, i: int, j: int) -> int:
        return self.covers[i] & self.covers[j]

    def _square_domain(self, i: int) -> int:
        return self.covers[i] if self.has_d3[i] else self.covers[i] | 1

    # --- introspection --------------------------------------------------------

    def _key(self, i: int, j: int) -> int:
        return i * self.n + j if i <= j else j * self.n + i

    def _cell_of(self, x: str, y: str) -> int:
        if x not in self.index or y not in self.index:
            raise InputError(f"unknown element in cell ({x},{y})")
        return self._key(self.index[x], self.index[y])

    def value_of(self, x: str, y: str) -> str | None:
        v = self.M[self._cell_of(x, y)]
        return None if v == UNKNOWN else self.names[v]

    def domain_of(self, x: str, y: str) -> frozenset[str]:
        cid = self._cell_of(x, y)
        if self.M[cid] != UNKNOWN:
            return frozenset((self.names[self.M[cid]],))
        return frozenset(self.names[v] for v in _bits(self.domains[cid]))

    def explain_chain(self) -> tuple[str, ...]:
        """Human-readable log of the assignments on the current trail."""
        out = []
        names = self.names
        n = self.n
        for entry in self.trail:
            if entry[0] != "A":
                continue
            _, cid, reason = entry
            i, j = divmod(cid, n)
            v = self.M[cid]
            if reason[0] == "triple":
                why = "forced by associativity on ({},{},{})".format(
                    *(names[t] for t in reason[1:])
                )
            elif reason[0] == "init":
                why = "only candidate left by the neighborhood cuts"
            elif reason[0] == "decision":
                why = f"decision at depth {reason[1]}"
            else:
                why = reason[0]
            out.append(f"{names[i]}*{names[j]} = {names[v]}  ({why})")
        if self.contradiction:
            out.append(f"contradiction: {self.contradiction}")
        return tuple(out)

    # --- trail ------------------------------------------------------------------

    def _undo_to(self, mark: int) -> None:
        M = self.M
        n = self.n
        val, unk, domains, buckets = self.val, self.unk, self.domains, self.buckets
        trail = self.trail
        while len(trail) > mark:
            entry = trail.pop()
            cid = entry[1]
            if entry[0] == "A":
                v = M[cid]
                i, j = divmod(cid, n)
                M[cid] = UNKNOWN
                M[j * n + i] = UNKNOWN
                val[j * n + v] &= ~(1 << i)
                unk[j] |= 1 << i
                val[i * n + v] &= ~(1 << j)
                unk[i] |= 1 << j
                buckets[domains[cid].bit_count()].add(cid)
                self.cells_by_value[v].pop()
            else:  # ("P", cid, removed_mask, reason)
                mask = domains[cid]
                domains[cid] = mask | entry[2]
                if M[cid] == UNKNOWN:
                    buckets[mask.bit_count()].remove(cid)
                    buckets[domains[cid].bit_count()].add(cid)
        self.contradiction = None

    # --- propagation ---------------------------------------------------------------

    def _assign(self, cid: int, v: int, reason: tuple) -> bool:
        M = self.M
        cur = M[cid]
        if cur != UNKNOWN:
            if cur == v:
                return True
            i, j = divmod(cid, self.n)
            self.contradiction = (
                f"cell ({self.names[i]},{self.names[j]}) is {self.names[cur]} "
                f"but must also be {self.names[v]}"
            )
            return False
        if not (self.domains[cid] >> v) & 1:
            i, j = divmod(cid, self.n)
            self.contradiction = (
                f"{self.names[v]} is not a candidate for cell "
                f"({self.names[i]},{self.names[j]})"
            )
            return False
        n = self.n
        i, j = divmod(cid, n)
        M[cid] = v
        M[j * n + i] = v
        self.val[j * n + v] |= 1 << i
        self.unk[j] &= ~(1 << i)
        self.val[i * n + v] |= 1 << j
        self.unk[i] &= ~(1 << j)
        self.buckets[self.domains[cid].bit_count()].remove(cid)
        self.trail.append(("A", cid, reason))
        self.cells_by_value[v].append(cid)
        self._queue.append(cid)
        self.forced += 1
        return True

    def _prune(self, cid: int, keep: int, reason: tuple) -> bool:
        mask = self.domains[cid]
        removed = mask & ~keep
        if not removed:
            return True
        new = mask & keep
        self.domains[cid] = new
        if self.M[cid] == UNKNOWN:
            self.buckets[mask.bit_count()].remove(cid)
            self.buckets[new.bit_count()].add(cid)
        self.trail.append(("P", cid, removed, reason))
        if new == 0:
            i, j = divmod(cid, self.n)
            self.contradiction = (
                f"no candidate left for cell ({self.names[i]},{self.names[j]})"
            )
            return False
        if new & (new - 1) == 0 and self.M[cid] == UNKNOWN:
            return self._assign(cid, new.bit_length() - 1, reason)
        return True

    def _process_triple(self, p: int, q: int, r: int) -> bool:
        """Equate the three bracketings of p*q*r as far as they are evaluable."""
        n = self.n
        M = self.M
        t1 = M[p * n + q]
        t2 = M[p * n + r]
        t3 = M[q * n + r]
        o1 = M[t1 * n + r] if t1 >= 0 else UNKNOWN
        o2 = M[t2 * n + q] if t2 >= 0 else UNKNOWN
        o3 = M[t3 * n + p] if t3 >= 0 else UNKNOWN
        known = o1 if o1 >= 0 else o2 if o2 >= 0 else o3
        if known == UNKNOWN:
            return True
        if (o2 >= 0 and o2 != known) or (o3 >= 0 and o3 != known):
            self.contradiction = (
                f"associativity fails on ({self.names[p]},{self.names[q]},{self.names[r]})"
            )
            return False
        # an outer cell read as unknown may have been set by an earlier
        # assignment here (the cells can coincide); _assign accepts that
        reason = ("triple", p, q, r)
        if t1 >= 0 and o1 == UNKNOWN and not self._assign(self._key(t1, r), known, reason):
            return False
        if t2 >= 0 and o2 == UNKNOWN and not self._assign(self._key(t2, q), known, reason):
            return False
        if t3 >= 0 and o3 == UNKNOWN and not self._assign(self._key(t3, p), known, reason):
            return False
        if t1 >= 0 and t2 >= 0 and t3 >= 0:
            return True
        domains = self.domains
        val = self.val
        unk = self.unk
        for tv, a, b, c in ((t1, p, q, r), (t2, p, r, q), (t3, q, r, p)):
            if tv >= 0:
                continue
            cid = a * n + b if a <= b else b * n + a
            mask = domains[cid]
            # keep w if w*c is known already, or may still become known
            keep = mask & val[c * n + known]
            mm = mask & unk[c]
            while mm:
                bit = mm & -mm
                mm ^= bit
                w = bit.bit_length() - 1
                if (domains[w * n + c if w <= c else c * n + w] >> known) & 1:
                    keep |= bit
            if keep != mask and not self._prune(cid, keep, reason):
                return False
        return True

    def _drain(self) -> bool:
        q = self._queue
        n = self.n
        M, domains, val = self.M, self.domains, self.val
        process = self._process_triple
        while q:
            cid = q.popleft()
            i, j = divmod(cid, n)
            v = M[cid]
            i_n, j_n, v_n = i * n, j * n, v * n
            # the triples (i, j, z), filtered as in the module docstring; t1 = v
            for z in range(1, n):
                o1 = M[v_n + z]
                t2, t3 = M[i_n + z], M[j_n + z]
                if o1 < 0:
                    if (t2 < 0 or M[t2 * n + j] < 0) and (t3 < 0 or M[t3 * n + i] < 0):
                        continue
                elif ((M[t2 * n + j] == o1 if t2 >= 0 else
                       not domains[i_n + z if i <= z else z * n + i] & ~val[j_n + o1])
                      and (M[t3 * n + i] == o1 if t3 >= 0 else
                           not domains[j_n + z if j <= z else z * n + j] & ~val[i_n + o1])):
                    continue
                if not process(i, j, z):
                    q.clear()
                    return False
            # the triples (p, q, third) with p*q = i or j, so o1 = i*j = v
            for value_elem, third in ((i, j), (j, i)):
                t_n = third * n
                for pq in list(self.cells_by_value[value_elem]):
                    pp, qq = divmod(pq, n)
                    c2 = pp * n + third if pp <= third else t_n + pp
                    c3 = qq * n + third if qq <= third else t_n + qq
                    t2, t3 = M[c2], M[c3]
                    if ((M[t2 * n + qq] == v if t2 >= 0 else not domains[c2] & ~val[qq * n + v])
                            and (M[t3 * n + pp] == v if t3 >= 0
                                 else not domains[c3] & ~val[pp * n + v])):
                        continue
                    if not process(pp, qq, third):
                        q.clear()
                        return False
        return True

    def initialize(self) -> bool:
        """Run the initial fixpoint; False means the graph died in propagation."""
        # nothing is pruned before the drain, so these are the singleton
        # cells, and each assignment succeeds
        for cid in sorted(self.buckets[1]):
            self._assign(cid, self.domains[cid].bit_length() - 1, ("init",))
        return self._drain() and self._sweep() and self._drain()

    def _sweep(self) -> bool:
        """Process every triple p <= q <= r once, skipping the provable no-ops.

        The drain alone can miss a triple for two reasons. The zeros of
        adjacent pairs are never queued, so a triple that reads only them is
        never visited. And a visited triple is not visited again when only a
        candidate's product w*c changes, so a prune that the new w*c allows
        is left undone.
        """
        n = self.n
        M, domains, val = self.M, self.domains, self.val
        for p in range(1, n):
            for q in range(p, n):
                for r in range(q, n):
                    t1, t2, t3 = M[p * n + q], M[p * n + r], M[q * n + r]
                    o1 = M[t1 * n + r] if t1 >= 0 else UNKNOWN
                    o2 = M[t2 * n + q] if t2 >= 0 else UNKNOWN
                    o3 = M[t3 * n + p] if t3 >= 0 else UNKNOWN
                    if o1 == o2 == o3:
                        continue
                    k = o1 if o1 >= 0 else o2 if o2 >= 0 else o3
                    if ((o1 == k if t1 >= 0 else not domains[p * n + q] & ~val[r * n + k])
                            and (o2 == k if t2 >= 0 else not domains[p * n + r] & ~val[q * n + k])
                            and (o3 == k if t3 >= 0 else not domains[q * n + r] & ~val[p * n + k])):
                        continue
                    if not self._process_triple(p, q, r):
                        self._queue.clear()
                        return False
        return True

    # --- search --------------------------------------------------------------------

    def _select(self) -> int | None:
        """The unassigned cell with the fewest candidates, lowest cid first."""
        for bucket in self.buckets:
            if bucket:
                return min(bucket)
        return None

    def _probe(self, cap: int) -> bool:
        """Failed-literal probing of the open cells; False once it refutes the state.

        Each candidate of each open cell, in cid order, is assigned, drained
        and undone; a candidate whose drain fails is pruned, and the prune is
        drained. Rounds repeat until one prunes nothing. After ``cap`` probe
        assignments it stops and returns True, as it does at the fixpoint.
        """
        pruned = True
        while pruned:
            pruned = False
            for cid in sorted(set().union(*self.buckets)):
                for v in _bits(self.domains[cid]):
                    # a prune or its drain may have settled the cell or dropped v
                    if self.M[cid] != UNKNOWN or not (self.domains[cid] >> v) & 1:
                        continue
                    if self.probes == cap:
                        return True
                    self.probes += 1
                    mark = len(self.trail)
                    ok = self._assign(cid, v, ("probe",)) and self._drain()
                    self._undo_to(mark)
                    if ok:
                        continue
                    pruned = True
                    if not (self._prune(cid, ~(1 << v), ("probe",)) and self._drain()):
                        return False
        return True

    def _root_refuted(self) -> bool:
        """Whether probing a fresh copy of the root, capped at the nodes spent, refutes it."""
        probe = SearchState(self.g)
        probe.initialize()
        refuted = not probe._probe(self.nodes)
        self.probes = probe.probes
        return refuted

    def _record_solution(self) -> None:
        n = self.n
        rows = [tuple(self.M[i * n : (i + 1) * n]) for i in range(n)]
        table = CayleyTable(self.names, [self._rows.setdefault(row, row) for row in rows])
        report = validate(table)
        if not report.ok or not zero_divisor_graph(table).same_graph(self.g):
            raise RuntimeError("internal invariant violation: bad witness produced")
        self.solutions.append(table)

    def _search(self, limit: int | None, budget: int) -> str:
        """Depth-first search over the unassigned cells, on an explicit stack.

        A frame is (cell, its remaining values, depth, trail mark). Each value
        is tried from the frame's mark, so the trail is undone before the
        next one. Returns "done" once the tree is exhausted, "limit" once
        ``limit`` solutions are recorded, or "budget" once more than
        ``budget`` nodes are spent; the early returns leave the trail as it
        stands.

        Once ``PROBE_AFTER`` nodes per open root cell are spent with no
        solution recorded, ``_root_refuted`` probes the root once. If that
        refutes, the trail is undone to the root and the search returns
        "done", as an exhausted tree leaves it; otherwise it goes on as if
        the probe had never run.
        """
        frames: list[tuple[int, Iterator[int], int, int]] = []
        depth = 0
        root = len(self.trail)
        probe_at = PROBE_AFTER * sum(map(len, self.buckets))
        while True:
            cid = self._select()
            if cid is None:
                self._record_solution()
                if len(self.solutions) == limit:
                    return "limit"
            else:
                if depth > self.max_depth:
                    self.max_depth = depth
                frames.append((cid, iter(_bits(self.domains[cid])), depth, len(self.trail)))
            while frames:
                cid, values, depth, mark = frames[-1]
                self._undo_to(mark)
                v = next(values, None)
                if v is None:
                    frames.pop()
                    continue
                self.nodes += 1
                if self.nodes > budget:
                    return "budget"
                if self.nodes == probe_at and not self.solutions and self._root_refuted():
                    self._undo_to(root)
                    return "done"
                if self._assign(cid, v, ("decision", depth)) and self._drain():
                    depth += 1
                    break
            else:
                return "done"


# --- public operations ---------------------------------------------------------


def _gate(g: LabeledGraph, budget: int = BUDGET, limit: int | None = None) -> str | None:
    """Check the input and pre-screen it: the failed condition's name, or None.

    Behind this gate no initial domain is empty. Both the cover pre-check and
    the pair domains read a non-adjacent pair's cut as the AND of the two
    vertices' covers, ``_covering(adj, N(x)) & _covering(adj, N(y))``, which
    equals ``_covering`` of N(x) | N(y) because the cut distributes over a
    union; so the pre-check passes exactly when no pair domain is empty. A
    square's domain holds x, as every neighbor u of x has x in N[u].
    """
    if g.n < 2:
        raise InputError("realization needs a graph with at least 2 vertices")
    nc = necessary_conditions(g)
    if not nc.connected:
        raise InputError("realization needs a connected graph")
    if budget <= 0:
        raise InputError("budget must be positive")
    if limit is not None and limit < 1:
        raise InputError("max_solutions must be >= 1")
    return None if nc.passed else nc.failed[0]


def init_domains(g: LabeledGraph) -> SearchState | None:
    """The state after initial propagation, or None if ``realize``'s gate refutes g."""
    if _gate(g):
        return None
    state = SearchState(g)
    state.initialize()
    return state


def propagate(state: SearchState, cell: tuple[str, str], value: str) -> bool:
    """Assign cell := value and propagate; False reports a contradiction.

    Re-assigning a known cell to the same value is a no-op. On a refuted
    state it answers False at once and keeps ``contradiction`` as it is.
    """
    x, y = cell
    cid = state._cell_of(x, y)
    v = state.index.get(value)
    if v is None:
        raise InputError(f"unknown element {value!r}")
    if state.contradiction:
        return False
    return state._assign(cid, v, ("external",)) and state._drain()


def _run(
    g: LabeledGraph, budget: int, limit: int | None
) -> tuple[SearchState | None, str, SearchStats]:
    """Check the input, pre-screen it, and search for up to ``limit`` tables.

    The status is ``SearchState._search``'s, or "done" when initial
    propagation refutes the graph. A graph the pre-screen refutes gets no
    state, zero stats, and the failed condition's name as its status.
    """
    if failed := _gate(g, budget, limit):
        return None, failed, SearchStats(0, 0, 0, 0.0)
    t0 = time.perf_counter()
    state = SearchState(g)
    status = state._search(limit, budget) if state.initialize() else "done"
    seconds = time.perf_counter() - t0
    stats = SearchStats(state.nodes, state.forced, state.max_depth, seconds, state.probes)
    return state, status, stats


def realize(
    g: LabeledGraph, *, budget: int = BUDGET, explain: bool = False
) -> RealizationOutcome:
    """Find one realization, certify there is none, or trip the node budget.

    With ``explain``, the outcome carries the deduction chain.
    """
    state, status, stats = _run(g, budget, 1)
    if state is None:
        reason = f"necessary-conditions:{status}"
        return RealizationOutcome(Outcome.UNREALIZABLE, None, stats, reason=reason)
    # a budget trip leaves the open decisions and what they forced on the trail
    chain = state.explain_chain() if explain else ()
    if status == "limit":
        return RealizationOutcome(Outcome.REALIZED, state.solutions[0], stats, chain=chain)
    if status == "budget":
        return RealizationOutcome(Outcome.BUDGET_EXCEEDED, None, stats, "budget exhausted", chain)
    # only a refutation in initial propagation leaves a contradiction standing
    reason = "exhausted"
    if state.contradiction:
        reason = f"exhausted: contradiction during initial propagation ({state.contradiction})"
    return RealizationOutcome(Outcome.UNREALIZABLE, None, stats, reason=reason, chain=chain)


def enumerate_tables(
    g: LabeledGraph, *, budget: int = BUDGET, max_solutions: int | None = None
) -> EnumerationResult:
    """All realizations on fixed labels, up to ``max_solutions``.

    The order is deterministic, and ``realize`` returns the first table.
    """
    state, status, stats = _run(g, budget, max_solutions)
    return EnumerationResult(
        tuple(state.solutions) if state else (),
        status not in ("budget", "limit"),
        stats,
        budget_exceeded=(status == "budget"),
    )
