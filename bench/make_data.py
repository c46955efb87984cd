"""Regenerate bench/data: the connected graphs with their answers, and the pins.

    python3 bench/make_data.py

Run from the root of a checkout. It generates every connected graph on 5, 6
and 7 vertices by adding a vertex to each connected graph one size smaller
(every connected graph has a vertex whose removal leaves it connected), and
keeps one canonical form per isomorphism class. It records zdg's answer for
each graph after checking the totals against the published ones, then runs
each workload once and pins its deterministic counters.
"""
import argparse
import json

from spans import Tracer, layer_metrics
from workloads import (
    CONNECTED_COUNTS, GRAPHS_FILE, WORKLOADS, Calls, counters, encode_graph6, graph_text,
    load_graphs, run_pass, setup,
)
from run import COUNTERS, PINS_FILE

# Published totals: 68/44 realized/unrealizable on 6 vertices, 305/548 on 7,
# and 6,414 labeled tables over the 21 graphs on 5.
REALIZED = {6: (68, 44), 7: (305, 548)}
TABLES_ON_5 = 6414


def _refine(n, adj, colors):
    """Split colour classes by neighbour colours until stable; ranks are canonical."""
    while True:
        sig = [(colors[v], tuple(sorted(colors[u] for u in range(n) if adj[v] >> u & 1)))
               for v in range(n)]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [rank[s] for s in sig]
        if len(rank) == len(set(colors)):
            return new
        colors = new


def canonical_code(n, adj):
    """Largest adjacency code over the individualization-refinement leaves.

    ``adj`` holds one neighbour bitmask per vertex. Of two twins in the cell
    being split only one is tried: swapping them is an automorphism that
    fixes every other vertex, so both branches give the same codes.
    """
    best = -1

    def search(colors):
        nonlocal best
        colors = _refine(n, adj, colors)
        if len(set(colors)) == n:
            order = sorted(range(n), key=colors.__getitem__)
            code = 0
            for j in range(1, n):
                for i in range(j):
                    code = code << 1 | (adj[order[i]] >> order[j] & 1)
            best = max(best, code)
            return
        target = min(c for c in colors if colors.count(c) > 1)
        tried = []
        for v in (v for v in range(n) if colors[v] == target):
            if any(adj[v] & ~(1 << u) == adj[u] & ~(1 << v) for u in tried):
                continue
            tried.append(v)
            search([2 * c + (c == target and u != v) for u, c in enumerate(colors)])

    search([0] * n)
    return best


def connected_graphs(max_n):
    """{n: [edge lists]} of every connected graph up to ``max_n`` vertices."""
    levels = {1: [[0]]}
    for n in range(2, max_n + 1):
        found = {}
        for adj in levels[n - 1]:
            for s in range(1, 1 << (n - 1)):
                new = [a | (s >> v & 1) << (n - 1) for v, a in enumerate(adj)] + [s]
                found.setdefault(canonical_code(n, new), new)
        levels[n] = [found[c] for c in sorted(found, reverse=True)]
    return {
        n: [[(i, j) for j in range(n) for i in range(j) if adj[j] >> i & 1] for adj in graphs]
        for n, graphs in levels.items()
    }


def write_graphs(zdg):
    graphs = connected_graphs(max(CONNECTED_COUNTS))
    lines = ["# graph6 and the pinned answer: realize verdict R/U on 6 and 7 vertices,",
             "# labeled table count of enumerate_tables on 5. Written by make_data.py."]
    for n in sorted(CONNECTED_COUNTS):
        if len(graphs[n]) != CONNECTED_COUNTS[n]:
            raise SystemExit(f"{len(graphs[n])} connected graphs on {n} vertices")
        tally = [0, 0]
        for edges in graphs[n]:
            code = encode_graph6(n, edges)
            names = [f"v{i}" for i in range(1, n + 1)]
            g = zdg.parse_graph_text(graph_text(names, [(names[i], names[j]) for i, j in edges]))
            if n == 5:
                answer = len(zdg.enumerate_tables(g).tables)
                tally[0] += answer
            else:
                answer = "R" if zdg.realize(g).tag.value == "realized" else "U"
                tally[answer == "U"] += 1
            lines.append(f"{code} {answer}")
        want = [TABLES_ON_5, 0] if n == 5 else list(REALIZED[n])
        if tally != want:
            raise SystemExit(f"answers on {n} vertices total {tally}, expected {want}")
    GRAPHS_FILE.write_text("\n".join(lines) + "\n", encoding="ascii")
    load_graphs()  # re-read: counts and connectivity


def pass_counters(workload, seed):
    zdg, items = setup(workload, seed)
    if workload != "reproduce":
        return counters(run_pass(workload, Calls.plain(zdg), items)[1])
    tracer = Tracer()
    try:
        run_pass(workload, tracer.install(zdg), items)
    finally:
        tracer.uninstall()
    layers = layer_metrics(tracer.spans)
    return {k: layers[k] for k in COUNTERS}


def write_pins():
    """Pin each workload's counters, after checking that the seed leaves them alone."""
    pins = {}
    for workload in WORKLOADS:
        seen = [pass_counters(workload, seed) for seed in range(3)]
        if any(c != seen[0] for c in seen):
            raise SystemExit(f"{workload}: counters depend on the seed: {seen}")
        pins[workload] = seen[0]
    PINS_FILE.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")


def main():
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    zdg, _ = setup("reproduce", 0)
    write_graphs(zdg)
    write_pins()


if __name__ == "__main__":
    main()
