"""Realization engine.

Given a connected graph G, decide whether a commutative semigroup with zero
exists on V(G) + {0} whose zero-divisor graph is exactly G (labels fixed),
by depth-first constraint search over the unknown table cells.

The constraint model: a cell exists for every unordered pair of distinct
non-adjacent vertices and for every square x*x (adjacent pairs are 0 by
definition and never searched). Initial domains come from two sound cuts:

* the product x*y must be annihilated by every neighbor of x or y, so its
  value v must satisfy N(x) | N(y) <= N(v) | {v};
* x*x may be 0 only if no vertex lies at distance 3 from x (switchable via
  ``lemma21_pruning``; turning it off changes node counts, never answers).

Propagation closes the partial table under associativity: for every element
triple, whenever one bracketing of the product becomes fully evaluable, the
other bracketings are forced to agree, pruning domains and assigning forced
cells, with every deduction recorded on an undo trail. Exhausting the tree
without a solution is therefore a certificate of non-realizability,
replayable deterministically under the recorded configuration.

The engine deliberately searches only semigroups on V(G) + {0}; whether some
larger semigroup could realize G is a different question and out of scope.
"""
from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum

from .algebra import CayleyTable, ZERO_NAME, validate
from .errors import InputError
from .graph import (
    LabeledGraph,
    _bits,
    _covering,
    _layers,
    is_connected,
    necessary_conditions,
    zero_divisor_graph,
)

UNKNOWN = -1


@dataclass(frozen=True)
class SearchConfig:
    budget: int = 10_000_000          # decision nodes
    symmetry: bool = True             # realize only: root twin pruning
    max_solutions: int | None = None  # enumerate only
    lemma21_pruning: bool = True
    explain: bool = False             # realize only: keep the deduction chain


def parse_config_file(text: str) -> dict[str, object]:
    """Parse a key=value config file; '#' starts a comment."""
    out: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise InputError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = key.strip(), value.strip()
        if key in ("budget", "max_solutions"):
            try:
                out[key] = int(value)
            except ValueError:
                raise InputError(f"config line {lineno}: {key} needs an integer") from None
        elif key in ("symmetry", "lemma21_pruning"):
            if value.lower() in ("on", "true", "1", "yes"):
                out[key] = True
            elif value.lower() in ("off", "false", "0", "no"):
                out[key] = False
            else:
                raise InputError(f"config line {lineno}: {key} needs on/off")
        else:
            raise InputError(f"config line {lineno}: unknown key {key!r}")
    return out


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


class _BudgetExceeded(Exception):
    pass


class _LimitReached(Exception):
    pass


class SearchState:
    """Partial table, candidate domains (bitmasks) and the undo trail."""

    def __init__(self, g: LabeledGraph, config: SearchConfig | None = None):
        self.g = g
        self.config = config or SearchConfig()
        self.names = (ZERO_NAME,) + tuple(g.vertices)
        self.n = n = len(self.names)
        self.index = {nm: i for i, nm in enumerate(self.names)}
        # element i is vertex i - 1 of g: the zero element takes bit 0
        self.adj = adj = [0] + [nb << 1 for nb in g.masks]
        self.has_d3 = [False] + [len(_layers(g.masks, v)) > 3 for v in range(g.n)]
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
        cells = []
        for i in range(1, n):
            for j in range(i, n):
                cid = i * n + j
                if M[cid] != UNKNOWN:
                    continue
                self.domains[cid] = (
                    self._square_domain(i) if i == j else self._pair_domain(i, j)
                )
                cells.append(cid)
        self.cells = tuple(cells)
        self.trail: list[tuple] = []
        self.cells_by_value: list[list[int]] = [[] for _ in range(n)]
        self._queue: deque[int] = deque()
        self.contradiction: str | None = None
        self.failed_precheck: str | None = None
        self.nodes = 0
        self.forced = 0
        self.max_depth = 0
        self.solutions: list[CayleyTable] = []
        self._twins: list[tuple[int, int]] | None = None

    # --- domain construction ------------------------------------------------

    def _pair_domain(self, i: int, j: int) -> int:
        return _covering(self.g.masks, (self.adj[i] | self.adj[j]) >> 1) << 1

    def _square_domain(self, i: int) -> int:
        mask = _covering(self.g.masks, self.adj[i] >> 1) << 1
        if not self.has_d3[i] or not self.config.lemma21_pruning:
            mask |= 1
        return mask

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
            if v == UNKNOWN:
                continue
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

    def _mark(self) -> int:
        return len(self.trail)

    def _undo_to(self, mark: int) -> None:
        M = self.M
        n = self.n
        while len(self.trail) > mark:
            entry = self.trail.pop()
            kind = entry[0]
            cid = entry[1]
            if kind == "A":
                v = M[cid]
                i, j = divmod(cid, n)
                M[cid] = UNKNOWN
                M[j * n + i] = UNKNOWN
                self.cells_by_value[v].pop()
            else:  # ("P", cid, removed_mask, reason)
                self.domains[cid] |= entry[2]
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
        i, j = divmod(cid, self.n)
        M[cid] = v
        M[j * self.n + i] = v
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
        known = UNKNOWN
        if t1 >= 0:
            o = M[t1 * n + r]
            if o >= 0:
                known = o
        if t2 >= 0:
            o = M[t2 * n + q]
            if o >= 0:
                if known == UNKNOWN:
                    known = o
                elif known != o:
                    self.contradiction = (
                        f"associativity fails on ({self.names[p]},{self.names[q]},"
                        f"{self.names[r]})"
                    )
                    return False
        if t3 >= 0:
            o = M[t3 * n + p]
            if o >= 0:
                if known == UNKNOWN:
                    known = o
                elif known != o:
                    self.contradiction = (
                        f"associativity fails on ({self.names[p]},{self.names[q]},"
                        f"{self.names[r]})"
                    )
                    return False
        if known == UNKNOWN:
            return True
        reason = ("triple", p, q, r)
        if t1 >= 0 and M[t1 * n + r] == UNKNOWN:
            if not self._assign(self._key(t1, r), known, reason):
                return False
        if t2 >= 0 and M[t2 * n + q] == UNKNOWN:
            if not self._assign(self._key(t2, q), known, reason):
                return False
        if t3 >= 0 and M[t3 * n + p] == UNKNOWN:
            if not self._assign(self._key(t3, p), known, reason):
                return False
        for tv, a, b, c in ((t1, p, q, r), (t2, p, r, q), (t3, q, r, p)):
            if tv >= 0:
                continue
            cid = self._key(a, b)
            mask = self.domains[cid]
            keep = 0
            mm = mask
            while mm:
                bit = mm & -mm
                w = bit.bit_length() - 1
                mm ^= bit
                ov = M[w * n + c]
                if ov == known:
                    keep |= bit
                elif ov == UNKNOWN and (self.domains[self._key(w, c)] >> known) & 1:
                    keep |= bit
            if keep != mask and not self._prune(cid, keep, reason):
                return False
        return True

    def _drain(self) -> bool:
        q = self._queue
        n = self.n
        while q:
            cid = q.popleft()
            i, j = divmod(cid, n)
            for z in range(1, n):
                if not self._process_triple(i, j, z):
                    q.clear()
                    return False
            for value_elem, third in ((i, j), (j, i)):
                for pq in list(self.cells_by_value[value_elem]):
                    pp, qq = divmod(pq, n)
                    if not self._process_triple(pp, qq, third):
                        q.clear()
                        return False
        return True

    def initialize(self) -> bool:
        """Run the initial fixpoint; False means the graph died in propagation."""
        for cid in self.cells:
            if self.domains[cid] == 0:
                i, j = divmod(cid, self.n)
                self.contradiction = (
                    f"cell ({self.names[i]},{self.names[j]}) has an empty initial domain"
                )
                return False
        for cid in self.cells:
            mask = self.domains[cid]
            if mask & (mask - 1) == 0 and self.M[cid] == UNKNOWN:
                if not self._assign(cid, mask.bit_length() - 1, ("init",)):
                    return False
        if not self._drain():
            return False
        for p in range(1, self.n):
            for q in range(p, self.n):
                for r in range(q, self.n):
                    if not self._process_triple(p, q, r):
                        self._queue.clear()
                        return False
        return self._drain()

    # --- search --------------------------------------------------------------------

    def _select(self) -> int | None:
        best = None
        best_key = None
        M = self.M
        for cid in self.cells:
            if M[cid] != UNKNOWN:
                continue
            k = (self.domains[cid].bit_count(), cid)
            if best_key is None or k < best_key:
                best_key = k
                best = cid
        return best

    def _twin_transpositions(self) -> list[tuple[int, int]]:
        if self._twins is None:
            adj = self.adj
            self._twins = [
                (s, t)
                for s in range(1, self.n)
                for t in range(s + 1, self.n)
                if adj[s] & ~(1 << t) == adj[t] & ~(1 << s)
            ]
        return self._twins

    def _root_values(self, cid: int, values: list[int]) -> list[int]:
        """Drop values interchangeable (by a twin swap) with a smaller one.

        Sound only at the root, where every assignment so far is a forced
        consequence of the symmetric constraint system, and only for deciding
        existence: a dropped value's subtree holds the twin-swapped images of
        the kept one's tables, which are tables too but are never listed.
        """
        i, j = divmod(cid, self.n)
        cell = {i, j}
        sigmas = [
            (s, t)
            for s, t in self._twin_transpositions()
            if not ({s, t} & cell) or {s, t} == cell
        ]
        if not sigmas:
            return values
        keep = []
        for v in values:
            dominated = False
            for s, t in sigmas:
                mapped = t if v == s else s if v == t else v
                if mapped < v:
                    dominated = True
                    break
            if not dominated:
                keep.append(v)
        return keep

    def _record_solution(self) -> None:
        n = self.n
        rows = [tuple(self.M[i * n : (i + 1) * n]) for i in range(n)]
        table = CayleyTable(self.names, rows)
        report = validate(table)
        if not report.ok or not zero_divisor_graph(table).same_graph(self.g):
            raise RuntimeError("internal invariant violation: bad witness produced")
        self.solutions.append(table)
        limit = self.config.max_solutions
        if limit is not None and len(self.solutions) >= limit:
            raise _LimitReached

    def _dfs(self, depth: int) -> None:
        cid = self._select()
        if cid is None:
            self._record_solution()
            return
        if depth > self.max_depth:
            self.max_depth = depth
        values = _bits(self.domains[cid])
        if depth == 0 and self.config.symmetry:
            values = self._root_values(cid, values)
        budget = self.config.budget
        for v in values:
            self.nodes += 1
            if self.nodes > budget:
                raise _BudgetExceeded
            mark = self._mark()
            if self._assign(cid, v, ("decision", depth)) and self._drain():
                self._dfs(depth + 1)
            else:
                self._queue.clear()
            self._undo_to(mark)


# --- public operations ---------------------------------------------------------


def init_domains(g: LabeledGraph, config: SearchConfig | None = None) -> SearchState:
    """Build the search state and run initial propagation to fixpoint.

    If the graph fails the necessary-conditions pre-screen the state is
    returned with ``failed_precheck`` set and no search work done.
    """
    state = SearchState(g, config)
    nc = necessary_conditions(g)
    if not nc.passed:
        state.failed_precheck = nc.failed[0]
        return state
    state.initialize()
    return state


def propagate(state: SearchState, cell: tuple[str, str], value: str) -> bool:
    """Assign cell := value and propagate; False reports a contradiction.

    Re-assigning an already-known cell to the same value is a no-op.
    """
    x, y = cell
    cid = state._cell_of(x, y)
    v = state.index.get(value)
    if v is None:
        raise InputError(f"unknown element {value!r}")
    if state.M[cid] == v:
        return True
    ok = state._assign(cid, v, ("external",)) and state._drain()
    if not ok:
        state._queue.clear()
    return ok


def _check_pre(g: LabeledGraph, config: SearchConfig) -> None:
    if g.n < 2:
        raise InputError("realization needs a graph with at least 2 vertices")
    if not is_connected(g):
        raise InputError("realization needs a connected graph")
    if config.budget <= 0:
        raise InputError("budget must be positive")
    if config.max_solutions is not None and config.max_solutions < 1:
        raise InputError("max_solutions must be >= 1")


def _stats(state: SearchState, seconds: float) -> SearchStats:
    return SearchStats(state.nodes, state.forced, state.max_depth, seconds)


def _run(g: LabeledGraph, config: SearchConfig) -> tuple[SearchState, str, float]:
    t0 = time.perf_counter()
    state = SearchState(g, config)
    status = "done"
    if state.initialize():
        try:
            state._dfs(0)
        except _BudgetExceeded:
            status = "budget"
        except _LimitReached:
            status = "limit"
    else:
        status = "init-contradiction"
    return state, status, time.perf_counter() - t0


def realize(g: LabeledGraph, config: SearchConfig | None = None) -> RealizationOutcome:
    """Find one realization, certify there is none, or trip the node budget."""
    config = config or SearchConfig()
    _check_pre(g, config)
    nc = necessary_conditions(g)
    if not nc.passed:
        return RealizationOutcome(
            Outcome.UNREALIZABLE,
            None,
            SearchStats(0, 0, 0, 0.0),
            reason=f"necessary-conditions:{nc.failed[0]}",
        )
    state, status, seconds = _run(g, replace(config, max_solutions=1))
    chain = state.explain_chain() if config.explain else ()
    if state.solutions:
        return RealizationOutcome(
            Outcome.REALIZED, state.solutions[0], _stats(state, seconds), chain=chain
        )
    if status == "budget":
        return RealizationOutcome(
            Outcome.BUDGET_EXCEEDED, None, _stats(state, seconds), reason="budget exhausted"
        )
    reason = "exhausted"
    if status == "init-contradiction":
        reason = f"exhausted: contradiction during initial propagation ({state.contradiction})"
    return RealizationOutcome(
        Outcome.UNREALIZABLE, None, _stats(state, seconds), reason=reason, chain=chain
    )


def enumerate_tables(
    g: LabeledGraph, config: SearchConfig | None = None
) -> EnumerationResult:
    """All realizations on fixed labels, up to ``config.max_solutions``.

    The order is deterministic. ``config.symmetry`` is ignored: root twin
    pruning drops tables whose twin-swapped images are also tables.
    """
    config = config or SearchConfig()
    _check_pre(g, config)
    nc = necessary_conditions(g)
    if not nc.passed:
        return EnumerationResult((), True, SearchStats(0, 0, 0, 0.0))
    state, status, seconds = _run(g, replace(config, symmetry=False))
    return EnumerationResult(
        tuple(state.solutions),
        status in ("done", "init-contradiction"),
        _stats(state, seconds),
        budget_exceeded=(status == "budget"),
    )

