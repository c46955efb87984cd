"""Cayley tables of finite commutative semigroups with zero.

Elements are indexed 0..n-1, with index 0 reserved for the zero element,
always named "0". The product is stored as a dense n x n matrix of element
indices. Tables are immutable; commutativity, zero absorption and
associativity are *checked* by :func:`validate` rather than enforced
structurally, so defective tables can be represented and reported on.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import InputError

ZERO_NAME = "0"


def _check_name(name: str) -> None:
    # a leading '#' would make a graph file read the name's line as a comment
    # ``split`` splits at exactly the characters for which ``isspace`` holds
    if name.split() != [name] or "," in name or name[0] == "#":
        raise InputError(
            f"bad element name {name!r}: names are nonempty tokens "
            "without whitespace or commas that do not start with '#'"
        )


@dataclass(frozen=True)
class AssociativityFailure:
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


@dataclass(frozen=True)
class ValidationReport:
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
    travels with the copy.

    ``_report`` holds the table's :class:`ValidationReport` once
    :func:`validate` has run on it. The table cannot change after it is
    built, so the report cannot go stale; ``with_cell`` and every other
    derived table is a new object that starts without one.
    """

    __slots__ = ("names", "rows", "_report")

    def __init__(self, names: Sequence[str], rows: Sequence[Sequence[int]]):
        names = tuple(names)
        if not names:
            raise InputError("a table needs at least the zero element")
        if names[0] != ZERO_NAME:
            raise InputError('element 0 must be the zero element, named "0"')
        seen = set()
        for name in names:
            _check_name(name)
            if name in seen:
                raise InputError(f"duplicate element name {name!r}")
            seen.add(name)
        n = len(names)
        if len(rows) != n:
            raise InputError(f"table is not square: {len(rows)} rows for {n} elements")
        packed = []
        for i, row in enumerate(rows):
            row = tuple(row)
            if len(row) != n:
                raise InputError(f"row {i} has {len(row)} entries, expected {n}")
            for j, value in enumerate(row):
                if not isinstance(value, int) or not 0 <= value < n:
                    raise InputError(f"cell ({i},{j}) holds {value!r}, not an element index")
            packed.append(row)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "rows", tuple(packed))
        object.__setattr__(self, "_report", None)

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
        if report.ok:
            report = _VALID
        object.__setattr__(table, "_report", report)
    return report


def _scan(table: CayleyTable) -> ValidationReport:
    """The checks ``validate`` reports, run on the table's rows.

    The associativity scan compares, for each (i, j) in lexicographic order,
    the products (i*j)*k over all k with i*(j*k), read through row j's
    getter, and looks for the least k only where they differ, so
    ``first_failure`` is the least failing triple. The one triple of a
    one-element table always agrees.
    """
    rows = table.rows
    n = table.order
    commutative = all(rows[i][j] == rows[j][i] for i in range(n) for j in range(i + 1, n))
    zero_ok = all(rows[0][j] == 0 and rows[j][0] == 0 for j in range(n))
    if n == 1:
        return ValidationReport(commutative, zero_ok, True, None)
    through = [itemgetter(*row) for row in rows]
    for i, ri in enumerate(rows):
        for j, ij in enumerate(ri):
            left, right = rows[ij], through[j](ri)
            if left != right:
                k = next(k for k in range(n) if left[k] != right[k])
                fail = AssociativityFailure(i, j, k, left[k], right[k])
                return ValidationReport(commutative, zero_ok, False, fail)
    return ValidationReport(commutative, zero_ok, True, None)


# --- algebraic predicates ------------------------------------------------


def closure_violation(
    table: CayleyTable, subset: Iterable[str]
) -> tuple[str, str, str] | None:
    """First (x, y, x*y) with x, y in the subset but x*y outside, or None."""
    idx = sorted(table.index(name) for name in subset)
    members = set(idx)
    for i in idx:
        for j in idx:
            p = table.rows[i][j]
            if p not in members:
                return (table.names[i], table.names[j], table.names[p])
    return None


def ideal_violation(
    table: CayleyTable, subset: Iterable[str]
) -> tuple[str, str, str] | None:
    """First (s, t, s*t) with s in the subset, t anywhere, s*t outside."""
    idx = sorted(table.index(name) for name in subset)
    members = set(idx)
    for i in idx:
        for j in range(table.order):
            p = table.rows[i][j]
            if p not in members:
                return (table.names[i], table.names[j], table.names[p])
    return None


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
    for j in range(n):
        if rows[0][j] != 0:
            raise InputError(f"row 1, column {j + 1}: zero row must be all 0")
        if rows[j][0] != 0:
            raise InputError(f"row {j + 1}, column 1: zero column must be all 0")
    return CayleyTable(names, rows)


def emit_table_csv(table: CayleyTable) -> str:
    lines = ["*," + ",".join(table.names)]
    for name, row in zip(table.names, table.rows):
        lines.append(name + "," + ",".join(table.names[v] for v in row))
    return "\n".join(lines) + "\n"
