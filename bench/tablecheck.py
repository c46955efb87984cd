"""Independent check of a returned multiplication table against its graph.

Shares no code with ``zdg.search`` or ``zdg.algebra``: it reads only the
table's ``names`` and ``rows`` and scans them directly, the way
``zdg.acceptance.brute_force_realizations`` does.
"""


def table_problem(table, vertices, edges):
    """Return why ``table`` does not realize the graph, or None if it does.

    ``vertices`` is the graph's vertex names and ``edges`` a set of
    frozensets of two names. The table must be a commutative semigroup on
    ``{"0"} + vertices`` with "0" absorbing, and its distinct nonzero
    elements must multiply to 0 exactly on the edges.
    """
    names, rows = tuple(table.names), table.rows
    n = len(names)
    if names[0] != "0" or sorted(names[1:]) != sorted(vertices):
        return "carrier is not {0} + V(G)"
    if len(rows) != n or any(len(row) != n for row in rows):
        return "table is not square"
    if any(not isinstance(v, int) or not 0 <= v < n for row in rows for v in row):
        return "a cell is not an element index"
    if any(rows[0][i] != 0 or rows[i][0] != 0 for i in range(n)):
        return "0 is not absorbing"
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                return f"not commutative at ({names[i]},{names[j]})"
            if i and (rows[i][j] == 0) != (frozenset((names[i], names[j])) in edges):
                return f"zero pattern differs from the graph at ({names[i]},{names[j]})"
    for a in range(n):
        ra = rows[a]
        for b in range(n):
            rab, rb = rows[ra[b]], rows[b]
            for c in range(n):
                if rab[c] != ra[rb[c]]:
                    return f"not associative at ({names[a]},{names[b]},{names[c]})"
    return None
