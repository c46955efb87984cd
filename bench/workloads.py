"""Workload inputs, their known answers, and one pass of each workload.

Every workload runs the default ``SearchConfig`` as a closed loop: one
caller in one process submits each input after the previous answer returns.
"""
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from time import process_time

from tablecheck import table_problem

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
GRAPHS_FILE = BENCH / "data" / "graphs.txt"

WORKLOADS = ("search", "reproduce")

# OEIS A001349: connected graphs on n unlabeled vertices.
CONNECTED_COUNTS = {5: 21, 6: 112, 7: 853}
# fig5(m, n, 0) + edge(x1, x2) is unrealizable and passes the pre-screen, so
# only exhausting the search tree refutes it.
REFUTATIONS = ((1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1))
# fig3(k, k, k, k) is realizable for every k: 7 to 59 vertices.
LADDER = range(1, 15)
# Criterion 5 fails by design (README, "Acceptance suite"); it stays red here.
PASSING_CRITERIA = frozenset(range(1, 11)) - {5}


@dataclass(frozen=True)
class Item:
    """One input of a workload and its known answer."""

    id: str
    op: str  # "realize", "enumerate" or "criterion"
    expected: object  # "R"/"U", a table count, "exhausted", "realized" or a bool
    vertices: tuple = ()
    edges: frozenset = frozenset()  # frozensets of two vertex names
    text: str = ""  # graph file text, for the workloads that parse
    graph: object = None  # LabeledGraph, for the refutations and the ladder


def import_zdg():
    """Import ``zdg`` and ``zdg.acceptance`` afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "zdg" or m.startswith("zdg.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import zdg
    import zdg.acceptance

    if not Path(zdg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"zdg came from {zdg.__file__}, not from {SRC}")
    return zdg


# --- graph6 -------------------------------------------------------------------


def _upper_pairs(n):
    """Vertex pairs in graph6 bit order."""
    return [(i, j) for j in range(1, n) for i in range(j)]


def encode_graph6(n, edges):
    edge_set = {tuple(sorted(e)) for e in edges}
    bits = [1 if p in edge_set else 0 for p in _upper_pairs(n)]
    bits += [0] * (-len(bits) % 6)
    chunks = (bits[k : k + 6] for k in range(0, len(bits), 6))
    return chr(n + 63) + "".join(chr(63 + int("".join(map(str, c)), 2)) for c in chunks)


def decode_graph6(code):
    n = ord(code[0]) - 63
    bits = [(ord(ch) - 63) >> k & 1 for ch in code[1:] for k in range(5, -1, -1)]
    return n, [p for p, bit in zip(_upper_pairs(n), bits) if bit]


def _connected(n, edges):
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen, stack = {0}, [0]
    while stack:
        for u in adj[stack.pop()] - seen:
            seen.add(u)
            stack.append(u)
    return len(seen) == n


def load_graphs(path=GRAPHS_FILE):
    """The checked-in connected graphs as {n: [(graph6, edges, pinned answer)]}.

    Each line is the graph6 code of one isomorphism class and its answer:
    the ``realize`` verdict (R or U) on 6 and 7 vertices, the labeled table
    count of ``enumerate_tables`` on 5. ``make_data.py`` writes the file.
    """
    by_n, seen = {}, set()
    for line in path.read_text(encoding="ascii").splitlines():
        if not line or line.startswith("#"):
            continue
        code, answer = line.split()
        n, edges = decode_graph6(code)
        if code in seen or not _connected(n, edges):
            raise ValueError(f"{path.name}: {code} is repeated or disconnected")
        seen.add(code)
        by_n.setdefault(n, []).append((code, edges, answer))
    counts = {n: len(graphs) for n, graphs in by_n.items()}
    if counts != CONNECTED_COUNTS:
        raise ValueError(f"{path.name}: counts {counts}, expected {CONNECTED_COUNTS}")
    return by_n


# --- inputs -------------------------------------------------------------------


def graph_items(by_n, sizes, op, rng):
    """One item per graph on ``sizes`` vertices, as graph file text.

    Without ``rng`` the file's names are kept; with it each graph's vertices
    are renamed by a random permutation.
    """
    items = []
    for n in sizes:
        for code, edges, answer in by_n[n]:
            names = [f"v{i}" for i in range(1, n + 1)]
            if rng:
                rng.shuffle(names)
            pairs = [(names[i], names[j]) for i, j in edges]
            expected = int(answer) if answer.isdigit() else answer
            text = graph_text(names, pairs)
            items.append(Item(code, op, expected, tuple(names), _edge_set(pairs), text=text))
    return items


def graph_text(names, pairs):
    """A graph file: the vertex line, then one edge per line."""
    return "\n".join([" ".join(names)] + [f"{x} {y}" for x, y in pairs]) + "\n"


def deep_items(zdg, rng):
    """The refutations, then the ladder, as LabeledGraph values.

    With ``rng`` the vertices are renamed, keeping their order.
    """
    spec = zdg.FamilySpec
    cases = [
        (f"fig5({m},{n},0)+edge(x1,x2)", "exhausted",
         zdg.add_edge(zdg.generate_graph(spec("fig5", m=m, n=n, v=0)), "x1", "x2"))
        for m, n in REFUTATIONS
    ]
    cases += [
        (f"fig3({k},{k},{k},{k})", "realized",
         zdg.generate_graph(spec("fig3", m=k, n=k, u=k, v=k)))
        for k in LADDER
    ]
    items = []
    for label, expected, g in cases:
        if rng:
            names = list(g.vertices)
            rename = dict(zip(names, rng.sample(names, len(names))))
            g = zdg.LabeledGraph(
                [rename[v] for v in names], [(rename[x], rename[y]) for x, y in g.edges()]
            )
        items.append(Item(label, "realize", expected, g.vertices, _edge_set(g.edges()), graph=g))
    return items


CRITERION_ITEMS = {
    i: Item(f"criterion {i}", "criterion", i in PASSING_CRITERIA) for i in range(1, 11)
}


def _edge_set(pairs):
    return frozenset(frozenset(p) for p in pairs)


def setup(workload, seed):
    """Import zdg and build the workload's inputs: the work ``setup_s`` times.

    Seed 0 keeps the inputs' names and order. Any other seed renames every
    graph's vertices and shuffles the input order. It keeps each graph's
    vertex order: the search cost depends on that order (reordering moved
    the sweep's node total between 14,352 and 18,644 over six seeds, and let
    fig3(13,13,13,13) finish), so reordering would make the spread across
    seeds measure the seed, not the code. Answers and counters are the same
    for every seed.
    """
    zdg = import_zdg()
    if workload == "reproduce":
        return zdg, list(CRITERION_ITEMS.values())
    rng = random.Random(seed) if seed else None
    by_n = load_graphs()
    items = (graph_items(by_n, (6, 7), "realize", rng)
             + graph_items(by_n, (5,), "enumerate", rng)
             + deep_items(zdg, rng))
    if rng:
        rng.shuffle(items)
    return zdg, items


# --- one pass -----------------------------------------------------------------


@dataclass
class Calls:
    """The entry points a pass calls; the traced run substitutes wrapped ones."""

    parse: object
    realize: object
    enumerate_tables: object
    run_acceptance: object
    mark: object = None  # called with each input's id before it is submitted

    @classmethod
    def plain(cls, zdg):
        return cls(zdg.parse_graph_text, zdg.realize, zdg.enumerate_tables,
                   zdg.acceptance.run_acceptance)


def stack_depth():
    """Frames on the caller's stack, the caller included."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def run_pass(workload, calls, items):
    """Submit every input once; returns (seconds, records, call-site depth).

    A record is (item, seconds, answer), where the answer is what the call
    returned or the exception it raised. Exceptions are kept, never skipped:
    they are failed operations. Times are the process's CPU time: the work is
    single-threaded and does no I/O, so CPU time is the wall time minus what
    the host took away (on a virtual machine, time stolen by other guests).
    """
    if workload == "reproduce":
        return _reproduce_pass(calls, items)
    parse, realize, enumerate_tables = calls.parse, calls.realize, calls.enumerate_tables

    def solve(item):
        if item.op == "enumerate":
            return enumerate_tables(parse(item.text))
        return realize(parse(item.text) if item.graph is None else item.graph)

    mark = calls.mark
    depth = stack_depth() + 1  # inside solve
    records = []
    start = process_time()
    for item in items:
        if mark is not None:
            mark(item.id)
        t0 = process_time()
        try:
            answer = solve(item)
        except Exception as exc:  # a crash is a failed operation, counted below
            # Dropping the traceback frees the crashed call's frames now, not
            # at the next garbage collection, so they do not inflate peak_rss_mb.
            answer = exc.with_traceback(None)
        records.append((item, process_time() - t0, answer))
    return process_time() - start, records, depth


def _reproduce_pass(calls, items):
    """One ``run_acceptance()``; each criterion is timed from its emitted line."""
    stamps = []
    depth = stack_depth() + 1
    start = process_time()
    try:
        results = calls.run_acceptance(emit=lambda line: stamps.append(process_time()))
    except Exception as exc:  # the whole suite crashed: every criterion failed
        return process_time() - start, [(item, 0.0, exc) for item in items], depth
    seconds = process_time() - start
    times = [b - a for a, b in zip([start] + stamps, stamps)]
    return seconds, [(CRITERION_ITEMS[r.number], t, r) for r, t in zip(results, times)], depth


# --- answers ------------------------------------------------------------------


def judge(item, answer, reference):
    """Classify one answer as ("ok" | "wrong" | "failed", message, fingerprint).

    ``reference`` is the fingerprint this item produced on the first pass, or
    None on the first pass itself, when every returned table is checked by
    the independent scan instead. Later passes must reproduce it exactly.
    """
    if isinstance(answer, Exception):
        return "failed", f"{item.id}: {type(answer).__name__}: {answer}"[:200], None
    if item.op == "criterion":
        if answer.detail.startswith("crashed"):
            return "failed", f"{item.id}: {answer.detail}"[:200], None
        if answer.passed != item.expected:
            return "wrong", f"{item.id}: passed={answer.passed}, pinned {item.expected}", None
        return "ok", "", None
    if item.op == "enumerate":
        if answer.budget_exceeded or not answer.exhaustive:
            return "failed", f"{item.id}: enumeration not exhaustive", None
        tables = answer.tables
        if len(tables) != item.expected:
            return "wrong", f"{item.id}: {len(tables)} tables, pinned {item.expected}", None
    else:
        tag = answer.tag.value
        if tag == "budget-exceeded":
            return "failed", f"{item.id}: budget exceeded", None
        want = {"R": "realized", "realized": "realized"}.get(item.expected, "unrealizable")
        if tag != want:
            return "wrong", f"{item.id}: {tag}, pinned {want}", None
        if item.expected == "exhausted" and not (answer.reason or "").startswith("exhausted"):
            return "wrong", f"{item.id}: refuted by {answer.reason}, not by exhaustion", None
        tables = (answer.witness,) if answer.witness is not None else ()
        if tag == "realized" and not tables:
            return "wrong", f"{item.id}: realized without a witness", None
    fingerprint = tuple(t.rows for t in tables)
    if reference is not None:
        if fingerprint != reference:
            return "wrong", f"{item.id}: tables differ from the first pass", None
        return "ok", "", fingerprint
    if len(set(fingerprint)) != len(fingerprint):
        return "wrong", f"{item.id}: a table is listed twice", None
    for t in tables:
        problem = table_problem(t, item.vertices, item.edges)
        if problem:
            return "wrong", f"{item.id}: {problem}", None
    return "ok", "", fingerprint


def counters(records):
    """The deterministic search counters of one pass, from the answers."""
    out = {"search.nodes": 0, "search.forced": 0, "search.max_depth": 0, "search.solutions": 0}
    for _, _, answer in records:
        if isinstance(answer, Exception) or not hasattr(answer, "stats"):
            continue
        out["search.nodes"] += answer.stats.nodes
        out["search.forced"] += answer.stats.forced
        out["search.max_depth"] = max(out["search.max_depth"], answer.stats.max_depth)
        tables = getattr(answer, "tables", None)
        out["search.solutions"] += len(tables) if tables is not None else answer.witness is not None
    return out
