"""The acceptance suite: ten executable criteria over the whole package.

Each criterion is a plain check of a shared :class:`Corpus` that returns
``(passed, detail)``. :func:`run_acceptance` times the criteria and turns
each into a :class:`CriterionResult`; the CLI verb ``reproduce`` prints one
pass/fail line each, and ``tests/test_acceptance.py`` asserts them
individually.

Criterion 5 contains a deliberate red: its part (i) declares a graph
unrealizable that is in fact realizable (it is isomorphic to a member of the
realizable family it was built from once the pendant set V is empty, and an
exhaustively verified witness exists). The literal check is kept and fails
honestly; the corrected form of the statement, with V nonempty, is verified
alongside it. See README, "Acceptance suite", for the full analysis.
"""
from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from typing import Callable, Iterable

from .algebra import CayleyTable, ZERO_NAME, parse_table_csv, same_products, validate
from .errors import InputError
from .families import FamilySpec, add_cap, add_edge, add_end, generate_graph, generate_table
from .graph import (
    LabeledGraph,
    is_isomorphic,
    isomorphisms,
    necessary_conditions,
    relabel_table,
    zero_divisor_graph,
)
from .search import Outcome, enumerate_tables, realize
from .theorems import coverage, run_all

GOLDEN = {
    "fig3_2_2_1_2": FamilySpec("fig3", m=2, n=2, u=1, v=2),
    "fig4_2_2_0_2": FamilySpec("fig4", caps=2, u=2, v=0, w=2),
    "fig5_2_2_2": FamilySpec("fig5", m=2, n=2, v=2),
    "kn2_4": FamilySpec("kn2", n=4),
    "kn2_4_caps2": FamilySpec("kn2", n=4, caps=2),
}


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2d} [{status}] {self.name}: {self.detail} ({self.seconds:.1f}s)"


def load_golden_table(name: str) -> CayleyTable:
    text = resources.files("zdg").joinpath(f"data/{name}.csv").read_text(encoding="utf-8")
    return parse_table_csv(text)


def sweep_specs() -> list[FamilySpec]:
    """The criterion-2 parameter grid: every parameter from its bound to 3."""
    specs = []
    for m, n, u, v in itertools.product(range(1, 4), range(1, 4), range(4), range(4)):
        specs.append(FamilySpec("fig3", m=m, n=n, u=u, v=v))
    for m, n, v in itertools.product(range(1, 4), range(1, 4), range(4)):
        specs.append(FamilySpec("fig5", m=m, n=n, v=v))
    for caps, w in itertools.product(range(1, 4), range(1, 4)):
        for u, v in ((0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3)):
            specs.append(FamilySpec("fig4", caps=caps, u=u, v=v, w=w))
    for caps in range(4):
        specs.append(FamilySpec("kn2", n=4, caps=caps))
    return specs


def brute_force_realizations(g: LabeledGraph) -> set[tuple[tuple[int, ...], ...]]:
    """Independent oracle: every associative commutative table with an
    absorbing 0 and g's zero pattern, filled one upper-triangle cell at a time.

    An edge's cell is 0, a non-adjacent pair's cell is nonzero, a square may be
    anything, row and column 0 are 0, and an open cell is -1. A value is
    dropped once a nonzero triple's ab, bc, (ab)c and a(bc) are known and fail.
    No filling of the open cells changes those four, so every table is kept.
    Shares no code with the search engine.
    """
    names = [ZERO_NAME] + list(g.vertices)
    n = len(names)
    edges = {frozenset((names.index(x), names.index(y))) for x, y in g.edges()}
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]
    choices = [range(n) if i == j else (0,) if frozenset((i, j)) in edges else range(1, n)
               for i, j in cells]
    triples = list(itertools.product(range(1, n), repeat=3))
    P = [[0] * n] + [[0] + [-1] * (n - 1) for _ in range(1, n)]
    solutions = set()

    def fill(k: int) -> None:
        if k == len(cells):
            return solutions.add(tuple(tuple(row) for row in P))
        i, j = cells[k]
        for v in choices[k]:
            P[i][j] = P[j][i] = v
            for a, b, c in triples:
                ab, bc = P[a][b], P[b][c]
                if ab >= 0 and bc >= 0 and -1 != P[ab][c] != P[a][bc] != -1:
                    break
            else:
                fill(k + 1)
        P[i][j] = P[j][i] = -1

    fill(0)
    return solutions


ORACLE_GRAPHS: dict[str, LabeledGraph] = {
    "K2": LabeledGraph(["a", "b"], [("a", "b")]),
    "P3": LabeledGraph(["a", "b", "c"], [("a", "b"), ("b", "c")]),
    "K3": LabeledGraph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]),
    "P4": LabeledGraph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")]),
    "K1_3": LabeledGraph(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("a", "d")]),
    "paw": LabeledGraph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("a", "c"), ("a", "d")]),
    "C4": LabeledGraph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]),
    "diamond": LabeledGraph(
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("a", "c")],
    ),
    "K4": LabeledGraph(
        ["a", "b", "c", "d"],
        [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")],
    ),
}


class Corpus:
    """Everything later criteria consume from earlier ones.

    The golden and sweep tables are built on first use, so a criterion reads
    the same tables whether it runs in the full suite or alone.
    """

    def __init__(self) -> None:
        self.witnesses: list[tuple[str, CayleyTable]] = []

    @cached_property
    def golden(self) -> dict[str, CayleyTable]:
        return {name: load_golden_table(name) for name in GOLDEN}

    @cached_property
    def sweep_tables(self) -> list[CayleyTable]:
        return [generate_table(spec) for spec in sweep_specs()]


def remark_graph() -> LabeledGraph:
    """fig3(1,1,0,1) plus an end vertex on b: unrealizable, yet it passes the pre-screen."""
    return add_end(generate_graph(FamilySpec("fig3", m=1, n=1, u=0, v=1)), "b")


def criterion_1(corpus: Corpus) -> tuple[bool, str]:
    problems = []
    for name, table in corpus.golden.items():
        spec = GOLDEN[name]
        if not validate(table).ok:
            problems.append(f"{name} fails validation")
        if not zero_divisor_graph(table).same_graph(generate_graph(spec)):
            problems.append(f"{name} graph mismatch")
        if not same_products(generate_table(spec), table):
            problems.append(f"{name} generator not verbatim")
    if problems:
        return False, "; ".join(problems)
    return True, "5 golden tables validate, match their graphs, generators reproduce them verbatim"


def criterion_2(corpus: Corpus) -> tuple[bool, str]:
    # generate_table validates each table and matches it against its graph,
    # and raises on the first failure, which run_acceptance reports
    return True, f"{len(corpus.sweep_tables)} parametric tables validate and match their graphs"


def _expect(corpus: Corpus, label: str, g: LabeledGraph, expected: Outcome) -> str | None:
    """Run realize, record witnesses, return an error string on mismatch."""
    out = realize(g)
    if out.tag == Outcome.REALIZED and out.witness is not None:
        corpus.witnesses.append((label, out.witness))
    if out.tag != expected:
        return f"{label}: expected {expected.value}, got {out.tag.value}"
    if expected == Outcome.UNREALIZABLE and not (out.reason or "").startswith(
        ("exhausted", "necessary-conditions")
    ):
        return f"{label}: unrealizable but not certified ({out.reason})"
    return None


def criterion_3(corpus: Corpus) -> tuple[bool, str]:
    base = generate_graph(FamilySpec("fig3", m=1, n=1, u=0, v=1))
    cases = {
        "fig3(1,1,0,1)+end(b)": remark_graph(),
        "fig3(1,1,0,1)+cap(b,d)": add_cap(base, "b", "d"),
    }
    problems = []
    nodes = 0
    for label, g in cases.items():
        out = realize(g)
        nodes += out.stats.nodes
        if out.tag != Outcome.UNREALIZABLE:
            problems.append(f"{label}: got {out.tag.value}")
        elif not (out.reason or "").startswith("exhausted"):
            # must be the search's certificate, not a pre-screen verdict
            problems.append(f"{label}: not by the search ({out.reason})")
    if problems:
        return False, "; ".join(problems)
    return True, f"both modifications certified unrealizable by the search ({nodes} nodes)"


def criterion_4(corpus: Corpus) -> tuple[bool, str]:
    wrong = []
    count = 0
    for caps, u, v, w in itertools.product((1, 2), (0, 1, 2), (0, 1, 2), (1, 2)):
        g = generate_graph(FamilySpec("fig4", caps=caps, u=u, v=v, w=w))
        expected = Outcome.REALIZED if (u == 0 or v == 0) else Outcome.UNREALIZABLE
        problem = _expect(corpus, f"fig4({caps},{u},{v},{w})", g, expected)
        if problem:
            wrong.append(problem)
        count += 1
    if wrong:
        return False, "; ".join(wrong)
    return True, f"{count} searches: realized exactly when u=0 or v=0"


def criterion_5_parts(corpus: Corpus) -> dict[str, tuple[bool, str]]:
    """Returns named part-results so the literal defect stays visible."""
    base = generate_graph(FamilySpec("fig5", m=1, n=1, v=0))
    parts: dict[str, tuple[bool, str]] = {}

    p = _expect(corpus, "fig5(1,1,0)", base, Outcome.REALIZED)
    parts["plain"] = (p is None, p or "fig5(1,1,0) realized")

    p = _expect(corpus, "fig5(1,1,0)+end(x1)", add_end(base, "x1"), Outcome.UNREALIZABLE)
    parts["end_on_x1"] = (p is None, p or "certified unrealizable")

    p = _expect(
        corpus, "fig5(1,1,0)+edge(x1,x2)", add_edge(base, "x1", "x2"), Outcome.UNREALIZABLE
    )
    parts["edge_x1_x2"] = (p is None, p or "certified unrealizable")

    # Literal part (i): the stated expectation is UNREALIZABLE. The graph is
    # actually realizable: with V empty it is isomorphic to fig5(1,1,1),
    # a member of the family proved realizable, and the engine exhibits a
    # witness that survives independent validation.
    g_i = add_end(base, "a")
    out = realize(g_i)
    if out.tag == Outcome.REALIZED and out.witness is not None:
        corpus.witnesses.append(("fig5(1,1,0)+end(a)", out.witness))
    literal_ok = out.tag == Outcome.UNREALIZABLE
    iso = is_isomorphic(g_i, generate_graph(FamilySpec("fig5", m=1, n=1, v=1)))
    corrected = realize(add_end(generate_graph(FamilySpec("fig5", m=1, n=1, v=1)), "a"))
    corrected_ok = corrected.tag == Outcome.UNREALIZABLE
    detail = (
        f"literal expectation unrealizable, engine says {out.tag.value}; "
        f"graph isomorphic to fig5(1,1,1): {iso}; "
        f"corrected form with V nonempty (fig5(1,1,1)+end(a)) unrealizable: {corrected_ok}"
    )
    parts["end_on_a_literal"] = (literal_ok, detail)
    parts["end_on_a_corrected"] = (corrected_ok and iso, detail)
    return parts


def criterion_5(corpus: Corpus) -> tuple[bool, str]:
    parts = criterion_5_parts(corpus)
    failed = {k: v for k, (ok, v) in parts.items() if not ok}
    if failed:
        msgs = "; ".join(f"{k}: {v}" for k, v in failed.items())
        return False, f'known defect in part (i), see README, "Acceptance suite". {msgs}'
    return True, "all parts as stated"


def criterion_6(corpus: Corpus) -> tuple[bool, str]:
    k42 = generate_graph(FamilySpec("kn2", n=4))
    one_cap = add_cap(k42, "x1", "x2")
    problems = [
        p
        for p in (
            _expect(corpus, "kn2(4)+cap(a,b)", add_cap(k42, "a", "b"), Outcome.UNREALIZABLE),
            _expect(corpus, "kn2(4)+cap(a,x1)", add_cap(k42, "a", "x1"), Outcome.UNREALIZABLE),
            _expect(corpus, "kn2(4)+cap(x1,x2)", one_cap, Outcome.REALIZED),
            _expect(
                corpus,
                "kn2(4)+2caps(x1,x2)",
                add_cap(one_cap, "x1", "x2"),
                Outcome.REALIZED,
            ),
        )
        if p
    ]
    if problems:
        return False, "; ".join(problems)
    return True, "caps on the clique realizable exactly over the end-vertex corners"


def criterion_7(corpus: Corpus) -> tuple[bool, str]:
    g = generate_graph(FamilySpec("kn2", n=4))
    res = enumerate_tables(g)
    table6 = corpus.golden["kn2_4"]
    if not res.exhaustive:
        return False, "enumeration did not exhaust the tree"
    found6 = any(same_products(t, table6) for t in res.tables)
    corpus.witnesses.extend(("kn2(4) enumeration", t) for t in res.tables)
    twists = [relabel_table(table6, m) for m in isomorphisms(g, g)]
    all_twists = all(
        any(same_products(t, tw) for tw in twists) for t in res.tables
    )
    return (
        found6 and all_twists,
        f"{len(res.tables)} labeled tables, every one a graph-automorphism relabeling "
        f"of the fixture (unique up to relabeling); fixture itself found: {found6}",
    )


def criterion_8(corpus: Corpus) -> tuple[bool, str]:
    for name, g in ORACLE_GRAPHS.items():
        want = brute_force_realizations(g)
        res = enumerate_tables(g)
        got = {t.rows for t in res.tables}
        if not res.exhaustive:
            return False, f"{name}: enumeration not exhaustive"
        if got != want:
            return False, (
                f"{name}: engine found {len(got)} solutions, oracle {len(want)}"
            )
        corpus.witnesses.extend((f"oracle:{name}", t) for t in res.tables)
    return True, f"exact solution-set match on {len(ORACLE_GRAPHS)} graphs"


def criterion_9(corpus: Corpus) -> tuple[bool, str]:
    tables: list[tuple[str, CayleyTable]] = []
    tables += [(name, t) for name, t in corpus.golden.items()]
    tables += [(f"sweep[{i}]", t) for i, t in enumerate(corpus.sweep_tables)]
    tables += corpus.witnesses
    failures = []
    counts: Counter[str] = Counter()
    for label, table in tables:
        report = run_all(table)
        counts.update(c.claim for c in report.checks if c.applicable)
        for bad in report.failures():
            failures.append(f"{label}: {bad.line()}")
    if failures:
        return False, "; ".join(failures[:5])
    return True, f"zero applicable-claim failures over {len(tables)} corpus tables; {coverage(counts)}"


def criterion_10(corpus: Corpus) -> tuple[bool, str]:
    graphs: list[tuple[str, LabeledGraph]] = []
    for name, table in corpus.golden.items():
        graphs.append((name, zero_divisor_graph(table)))
    for i, table in enumerate(corpus.sweep_tables):
        graphs.append((f"sweep[{i}]", zero_divisor_graph(table)))
    for name, g in ORACLE_GRAPHS.items():
        graphs.append((f"oracle:{name}", g))
    for label, g in graphs:
        if not necessary_conditions(g).passed:
            return False, f"{label}: necessary conditions failed on a semigroup graph"
    if not necessary_conditions(remark_graph()).passed:
        return False, "the unrealizable end-vertex modification fails the pre-screen"
    return True, (
        f"pre-screen passes on {len(graphs)} semigroup graphs and on the provably "
        "unrealizable end-vertex modification: necessary but not sufficient"
    )


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)
NAMES = (
    "golden tables",
    "extension sweep",
    "non-realizability of the two fig3 modifications",
    "fig4 classification sweep",
    "fig5 modification remarks",
    "caps on the complete-graph family",
    "uniqueness for the 4-clique family",
    "oracle equivalence on all connected graphs up to 4 vertices",
    "machine verification of the structure theorems",
    "pre-screen soundness and insufficiency",
)


def run_acceptance(
    numbers: Iterable[int] | None = None, emit: Callable[[str], None] | None = None
) -> list[CriterionResult]:
    """Run the requested criteria (all by default) in order, sharing a corpus.

    This is the one place a criterion is timed, and a criterion that raises
    is reported as a failed one. A number outside ``1..len(CRITERIA)``
    raises :class:`InputError`.
    """
    count = len(CRITERIA)
    wanted = list(range(1, count + 1)) if numbers is None else list(numbers)
    bad = [k for k in wanted if not 1 <= k <= count]
    if bad:
        raise InputError(f"no such criterion: {bad}")
    corpus = Corpus()
    results = []
    for number, (name, criterion) in enumerate(zip(NAMES, CRITERIA), start=1):
        if number not in wanted:
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = criterion(corpus)
        except Exception as exc:  # a crashed criterion is a failed criterion
            passed, detail = False, f"crashed: {exc!r}"
        result = CriterionResult(number, name, passed, detail, time.perf_counter() - t0)
        results.append(result)
        if emit is not None:
            emit(result.line())
    return results
