"""Cayley tables of finite commutative semigroups with zero.

Elements are indexed 0..n-1, with index 0 reserved for the zero element,
always named "0". The product is stored as a dense n x n matrix of element
indices. Tables are immutable; commutativity, zero absorption and
associativity are *checked* by :func:`validate` rather than enforced
structurally, so defective tables can be represented and reported on.
"""
from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError

ZERO_NAME = "0"


def _check_name(name: str) -> None:
    if not isinstance(name, str):
        raise InputError(f"bad element name {name!r}: names are strings")
    # a leading '#' would make a graph file read the name's line as a comment
    # ``split`` splits at exactly the characters for which ``isspace`` holds
    if name.split() != [name] or "," in name or name[0] == "#":
        raise InputError(
            f"bad element name {name!r}: names are nonempty tokens "
            "without whitespace or commas that do not start with '#'"
        )


@lru_cache(maxsize=16)
def _check_names(names: tuple[str, ...]) -> None:
    """Check every name of a table and that no name repeats.

    Cached per tuple, because the tables one search records share one names
    tuple; a call that raises is not cached, so it raises again.
    """
    seen = set()
    for name in names:
        _check_name(name)
        if name in seen:
            raise InputError(f"duplicate element name {name!r}")
        seen.add(name)


class AssociativityFailure(NamedTuple):
    """A triple (i, j, k) with (i*j)*k != i*(j*k), with both evaluated products."""

    i: int
    j: int
    k: int
    left: int
    right: int

    def describe(self, table: "CayleyTable") -> str:
        nm = table.names
        return (
            f"({nm[self.i]}*{nm[self.j]})*{nm[self.k]} = {nm[self.left]} but "
            f"{nm[self.i]}*({nm[self.j]}*{nm[self.k]}) = {nm[self.right]}"
        )


class ValidationReport(NamedTuple):
    commutative: bool
    zero_ok: bool
    associative: bool
    first_failure: AssociativityFailure | None

    @property
    def ok(self) -> bool:
        return self.commutative and self.zero_ok and self.associative


class CayleyTable:
    """Immutable multiplication table over named elements, zero first.

    A table stores its ``names`` and ``rows`` tuples and no index by name:
    ``index`` scans ``names``, which spares each table a dict. Being
    immutable, a table may share its row tuples with other tables; the
    tables one search records do. Copying and pickling rebuild the table
    through the constructor, so every input check runs again and no report
    or graph travels with the copy.

    ``_report`` holds the table's :class:`ValidationReport` once
    :func:`validate` has run on it, and ``_graph`` its zero-divisor graph
    once :func:`zdg.graph.zero_divisor_graph` has built it. Neither the
    table nor the graph can change after it is built, so neither can go
    stale; ``with_cell`` and every other derived table is a new object that
    starts without them.
    """

    __slots__ = ("names", "rows", "_report", "_graph")

    def __init__(self, names: Sequence[str], rows: Sequence[Sequence[int]]):
        names = tuple(names)
        if not names:
            raise InputError("a table needs at least the zero element")
        if names[0] != ZERO_NAME:
            raise InputError('element 0 must be the zero element, named "0"')
        for name in names:
            if not isinstance(name, str):
                _check_name(name)  # raises, before the cache hashes the tuple
        _check_names(names)
        n = len(names)
        if len(rows) != n:
            raise InputError(f"table is not square: {len(rows)} rows for {n} elements")
        packed = []
        for i, row in enumerate(rows):
            row = tuple(row)
            if len(row) != n:
                raise InputError(f"row {i} has {len(row)} entries, expected {n}")
            for value in row:
                if not isinstance(value, int) or not 0 <= value < n:
                    j = next(j for j, v in enumerate(row) if v is value)
                    raise InputError(f"cell ({i},{j}) holds {value!r}, not an element index")
            packed.append(row)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "rows", tuple(packed))
        object.__setattr__(self, "_report", None)
        object.__setattr__(self, "_graph", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CayleyTable is immutable")

    def __reduce__(self) -> tuple:
        return CayleyTable, (self.names, self.rows)

    # --- basic views -----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"unknown element {name!r}") from None

    def mul(self, x: str, y: str) -> str:
        return self.names[self.rows[self.index(x)][self.index(y)]]

    def with_cell(self, x: str, y: str, value: str) -> "CayleyTable":
        """New table with both (x,y) and (y,x) set to ``value``."""
        i, j, v = self.index(x), self.index(y), self.index(value)
        rows = [list(row) for row in self.rows]
        rows[i][j] = v
        rows[j][i] = v
        return CayleyTable(self.names, rows)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CayleyTable)
            and self.names == other.names
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.names, self.rows))

    def __repr__(self) -> str:
        return f"CayleyTable(order={self.order}, names={self.names!r})"


def same_products(t1: CayleyTable, t2: CayleyTable) -> bool:
    """Equality of tables by element *names*, ignoring element order."""
    if set(t1.names) != set(t2.names):
        return False
    # pos[i]: the position in t2 of t1's element i; cell (i, j) of t1 holds v
    # iff cell (pos[i], pos[j]) of t2 holds pos[v]
    where = {name: k for k, name in enumerate(t2.names)}
    pos = [where[name] for name in t1.names]
    return all(
        [r2[p] for p in pos] == [pos[v] for v in r1]
        for r1, r2 in zip(t1.rows, (t2.rows[p] for p in pos))
    )


# --- validation ----------------------------------------------------------

_VALID = ValidationReport(True, True, True, None)  # every valid table's report


def validate(table: CayleyTable) -> ValidationReport:
    """Exhaustively check commutativity, zero absorption and associativity.

    The table is scanned on the first call only; the report is kept on the
    table and returned by every later call. Valid tables share one report.
    """
    report = table._report
    if report is None:
        report = _scan(table)
        object.__setattr__(table, "_report", report)
    return report


def _scan(table: CayleyTable) -> ValidationReport:
    """The checks ``validate`` reports, run on the table's rows.

    A commutative table whose 0 absorbs is checked by ``_half_scan``, and a
    valid table ends there, with the shared report. Any other table, and one that the half scan
    finds not associative, gets the full scan: for each (i, j) in
    lexicographic order, it compares the products (i*j)*k over all k with
    i*(j*k), read through row j's getter, and looks for the least k only
    where they differ, so ``first_failure`` is the least failing triple. A
    one-element table is valid, and the half scan has no pair to compare.
    """
    rows = table.rows
    n = table.order
    commutative = all(rows[i][j] == rows[j][i] for i in range(n) for j in range(i + 1, n))
    zero_ok = all(rows[0][j] == 0 and rows[j][0] == 0 for j in range(n))
    if commutative and zero_ok and _half_scan(rows):
        return _VALID
    through = [itemgetter(*row) for row in rows]
    for i, ri in enumerate(rows):
        for j, ij in enumerate(ri):
            left, right = rows[ij], through[j](ri)
            if left != right:
                k = next(k for k in range(n) if left[k] != right[k])
                fail = AssociativityFailure(i, j, k, left[k], right[k])
                return ValidationReport(commutative, zero_ok, False, fail)
    return ValidationReport(commutative, zero_ok, True, None)


def _half_scan(rows: Sequence[Sequence[int]]) -> bool:
    """Associativity of a commutative table whose 0 absorbs, from the pairs 0 < i <= j.

    Write f(a, b, c) = (a*b)*c; commutativity makes f symmetric in a and b.
    For the pair (i, j) the scan compares row i*j, the products (i*j)*k over
    all k, with j*(i*k) = (i*k)*j, read through row i's getter: it tests
    f(i, j, k) = f(i, k, j) for every k. Take nonzero a, b, c, sorted as
    x <= y <= z. The pair (x, y) gives f(x, y, z) = f(x, z, y), and the pair
    (y, z) gives f(y, z, x) = f(y, x, z) = f(x, y, z); repeated elements
    work the same way. So f takes one value on all six orderings of a, b, c,
    and (a*b)*c = f(a, b, c) = f(b, c, a) = (b*c)*a = a*(b*c). A triple with
    a 0 holds because 0 absorbs, so the pairs with i = 0 are not needed.
    """
    n = len(rows)
    for i in range(1, n):
        ri = rows[i]
        through = itemgetter(*ri)
        for j in range(i, n):
            if rows[ri[j]] != through(rows[j]):
                return False
    return True


# --- algebraic predicates ------------------------------------------------


def _escape(rows: Sequence[Sequence[int]], prods: Sequence[int], members: int, others: int):
    """The least (i, j, i*j), by i then j, with i in ``members``, j in ``others``
    and i*j not in ``members``, or None; subsets are masks of element indices.

    ``prods[i]``, the mask of row i's products, lets a row whose products all
    lie in ``members`` pass unscanned. ``others`` is every element for an
    ideal test, ``members`` for a closure test.
    """
    for i, row in enumerate(rows):
        if members >> i & 1 and prods[i] & ~members:
            for j, p in enumerate(row):
                if others >> j & 1 and not members >> p & 1:
                    return i, j, p
    return None


def _violation(table: CayleyTable, subset: Iterable[str], ideal: bool):
    members = sum({1 << table.index(name) for name in subset})
    rows, names = table.rows, table.names
    others = (1 << len(names)) - 1 if ideal else members
    bad = _escape(rows, [sum({1 << p for p in row}) for row in rows], members, others)
    return bad and (names[bad[0]], names[bad[1]], names[bad[2]])


def closure_violation(table: CayleyTable, subset: Iterable[str]) -> tuple[str, str, str] | None:
    """First (x, y, x*y) with x, y in the subset but x*y outside, or None."""
    return _violation(table, subset, ideal=False)


def ideal_violation(table: CayleyTable, subset: Iterable[str]) -> tuple[str, str, str] | None:
    """First (s, t, s*t) with s in the subset, t anywhere, s*t outside."""
    return _violation(table, subset, ideal=True)


# --- file format ----------------------------------------------------------
#
# CSV, UTF-8, comma-separated, no quoting.  First row is `*` followed by all
# element names with `0` first; each subsequent row is an element name
# followed by product names in header order.


def parse_table_csv(text: str) -> CayleyTable:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise InputError("empty table file")
    header = lines[0].split(",")
    if header[0] != "*":
        raise InputError("row 0: header must start with '*'")
    names = header[1:]
    if not names or names[0] != ZERO_NAME:
        raise InputError('row 0: first element must be "0"')
    n = len(names)
    if len(lines) != n + 1:
        raise InputError(f"expected {n} body rows, found {len(lines) - 1}")
    index = {}
    for i, name in enumerate(names):
        _check_name(name)
        if name in index:
            raise InputError(f"row 0, column {i + 1}: duplicate element name {name!r}")
        index[name] = i
    rows = []
    for r, line in enumerate(lines[1:]):
        fields = line.split(",")
        if len(fields) != n + 1:
            raise InputError(f"row {r + 1}: expected {n + 1} fields, found {len(fields)}")
        if fields[0] != names[r]:
            raise InputError(
                f"row {r + 1}: row label {fields[0]!r} does not match header order "
                f"(expected {names[r]!r})"
            )
        row = []
        for c, field in enumerate(fields[1:]):
            if field not in index:
                raise InputError(f"row {r + 1}, column {c + 1}: unknown element {field!r}")
            row.append(index[field])
        rows.append(row)
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise InputError(
                    f"row {i + 1}, column {j + 1}: table is not symmetric at "
                    f"({names[i]},{names[j]})"
                )
    for j in range(n):  # the table is symmetric, so this checks column 0 too
        if rows[0][j] != 0:
            raise InputError(f"row 1, column {j + 1}: zero row must be all 0")
    return CayleyTable(names, rows)


def emit_table_csv(table: CayleyTable) -> str:
    lines = ["*," + ",".join(table.names)]
    for name, row in zip(table.names, table.rows):
        lines.append(name + "," + ",".join(table.names[v] for v in row))
    return "\n".join(lines) + "\n"
