"""Command-line interface.

Verbs: analyze, realize, enumerate, verify, graph-of, gen, theorems,
reproduce. Exit codes: 0 success/realized, 1 unrealizable (or a failed
verification), 2 node budget exceeded, 3 input error, 4 internal invariant
violation (including failed theorem claims or acceptance criteria).
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from pathlib import Path

from .acceptance import run_acceptance
from .algebra import emit_table_csv, parse_table_csv, validate
from .errors import InputError
from .families import FAMILIES, FamilySpec, add_cap, add_end, generate_graph, generate_table
from .graph import (
    classify_special,
    core,
    delta_witnesses,
    diameter,
    emit_dot,
    emit_graph_text,
    is_connected,
    isolated_vertices,
    necessary_conditions,
    parse_graph_text,
    partition,
    zero_divisor_graph,
)
from .search import (
    Outcome,
    SearchConfig,
    enumerate_tables,
    parse_config_file,
    realize,
)
from .theorems import run_all

EXIT_OK = 0
EXIT_UNREALIZABLE = 1
EXIT_BUDGET = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map to exit 3
        raise InputError(message)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _fmt_set(values) -> str:
    return "{" + ",".join(sorted(values)) + "}"


def _add_search_flags(p: argparse.ArgumentParser, verb: str) -> None:
    p.add_argument("--budget", type=int, default=None, help="decision-node budget")
    p.add_argument("--lemma21", dest="lemma21_pruning", choices=("on", "off"),
                   default=None,
                   help="prune zero from squares with a distance-3 partner")
    p.add_argument("--config", default=None, help="key=value config file")
    if verb == "realize":
        p.add_argument("--symmetry", choices=("on", "off"), default=None,
                       help="prune twin-swapped values at the root")
        p.add_argument("--explain", action="store_true", help="print the deduction chain")
    else:
        p.add_argument("--max-solutions", type=int, default=None)


def _build_config(args) -> SearchConfig:
    """The search settings: config-file keys, overridden by flags.

    Each flag stores under its ``SearchConfig`` field's name, so a verb
    takes a config-file key only if it defines the matching flag.
    """
    kwargs: dict = {}
    if getattr(args, "config", None):
        kwargs.update(parse_config_file(_read(args.config)))
        for key in kwargs:
            if not hasattr(args, key):
                raise InputError(f"config key {key!r} does not apply to {args.verb}")
    for field in fields(SearchConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            kwargs[field.name] = value == "on" if value in ("on", "off") else value
    return SearchConfig(**kwargs)


def _make_parser() -> _Parser:
    parser = _Parser(prog="zdg", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("analyze", help="structural report for a graph file")
    p.add_argument("graph")

    p = sub.add_parser("realize", help="find a realizing table or certify none exists")
    p.add_argument("graph")
    p.add_argument("--out-table", default=None, help="write the witness table here")
    _add_search_flags(p, "realize")

    p = sub.add_parser("enumerate", help="list all realizing tables")
    p.add_argument("graph")
    _add_search_flags(p, "enumerate")

    p = sub.add_parser("verify", help="validate a table, optionally against a graph")
    p.add_argument("table")
    p.add_argument("--graph", default=None)

    p = sub.add_parser("graph-of", help="emit the zero-divisor graph of a table")
    p.add_argument("table")
    p.add_argument("--out", default=None)
    p.add_argument("--dot", default=None, help="also write a DOT rendering here")

    p = sub.add_parser("gen", help="generate a family graph (and optionally its table)")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--u", type=int, default=0)
    p.add_argument("--v", type=int, default=0)
    p.add_argument("--w", type=int, default=0)
    p.add_argument("--caps", type=int, default=0)
    p.add_argument("--at", default=None, help="kn2 cap anchors, e.g. x1,x2")
    p.add_argument("--end", default=None, help="attach one extra end vertex here")
    p.add_argument("--with-table", action="store_true")
    p.add_argument("--out-graph", default=None)
    p.add_argument("--out-table", default=None)

    p = sub.add_parser("theorems", help="run every structure checker on a table")
    p.add_argument("table")

    p = sub.add_parser("reproduce", help="run the acceptance suite")
    p.add_argument("--only", default=None, help="comma-separated criterion numbers")
    return parser


# --- verbs -----------------------------------------------------------------


def _cmd_analyze(args) -> int:
    g = parse_graph_text(_read(args.graph))
    print("vertices:", " ".join(g.vertices))
    print("edges:", " ".join(f"{x}-{y}" for x, y in g.edges()))
    connected = is_connected(g)
    print("connected:", "yes" if connected else "no")
    diam = diameter(g)
    print("diameter:", "inf" if math.isinf(diam) else int(diam))
    isolated = isolated_vertices(g)
    if isolated:
        print("isolated-vertices:", _fmt_set(isolated), "(outside the connected regime)")
    if connected and g.n > 0:
        dec = core(g)
        print("core-vertices:", _fmt_set(dec.core_vertices))
        print("core-edges:", " ".join(f"{x}-{y}" for x, y in sorted(dec.core_edges)))
        print("pendant-vertices:", _fmt_set(dec.pendant_vertices))
        print("core-on-triangles-or-squares:", "yes" if dec.edges_on_triangle_or_square else "no")
        print("pendants-attached-to-core:", "yes" if dec.pendants_are_ends_on_core else "no")
    nc = necessary_conditions(g)
    print(
        "necessary-conditions:",
        f"connected={'pass' if nc.connected else 'fail'}",
        f"diameter={'pass' if nc.diameter_le_3 else 'fail'}",
        f"core={'pass' if nc.core_ok else 'fail'}",
        f"cover={'pass' if nc.cover_ok else 'fail'}",
    )
    if connected:
        witnesses = delta_witnesses(g)
        print("witness-count:", len(witnesses))
        for w in witnesses[:1]:
            print(f"witness: ({w.a},{w.b},{w.s},{w.z})")
            part = partition(g, w)
            print(
                f"partition[({w.a},{w.b},{w.s},{w.z})]:",
                f"ab={_fmt_set(part.ab)}",
                f"C={_fmt_set(part.c_ab)}",
                f"B={_fmt_set(part.b_set)}",
                f"L={_fmt_set(part.l_set)}",
                f"Ta={_fmt_set(part.t_a)}",
                f"Tb={_fmt_set(part.t_b)}",
                f"B1={_fmt_set(part.b1)}",
                f"B2={_fmt_set(part.b2)}",
            )
            for violation in part.violations:
                print("partition-violation:", violation)
        print("classification:", classify_special(g))
    return EXIT_OK


def _cmd_realize(args) -> int:
    g = parse_graph_text(_read(args.graph))
    out = realize(g, _build_config(args))
    print("outcome:", out.tag.value)
    print(
        f"stats: nodes={out.stats.nodes} forced={out.stats.forced} "
        f"max-depth={out.stats.max_depth} seconds={out.stats.seconds:.3f}"
    )
    if out.reason:
        print("reason:", out.reason)
    for line in out.chain:
        print("chain:", line)
    if out.witness is not None:
        _write(args.out_table, emit_table_csv(out.witness))
    if out.tag == Outcome.REALIZED:
        return EXIT_OK
    if out.tag == Outcome.UNREALIZABLE:
        return EXIT_UNREALIZABLE
    return EXIT_BUDGET


def _cmd_enumerate(args) -> int:
    g = parse_graph_text(_read(args.graph))
    res = enumerate_tables(g, _build_config(args))
    print("solutions:", len(res.tables))
    print("exhaustive:", "yes" if res.exhaustive else "no")
    print(
        f"stats: nodes={res.stats.nodes} forced={res.stats.forced} "
        f"max-depth={res.stats.max_depth} seconds={res.stats.seconds:.3f}"
    )
    for table in res.tables:
        print()
        sys.stdout.write(emit_table_csv(table))
    if res.budget_exceeded:
        return EXIT_BUDGET
    return EXIT_OK if res.tables else EXIT_UNREALIZABLE


def _cmd_verify(args) -> int:
    table = parse_table_csv(_read(args.table))
    report = validate(table)
    print("commutative:", "yes" if report.commutative else "no")
    print("zero-absorbing:", "yes" if report.zero_ok else "no")
    print("associative:", "yes" if report.associative else "no")
    if report.first_failure is not None:
        print("first-failure:", report.first_failure.describe(table))
    ok = report.ok
    if args.graph is not None:
        g = parse_graph_text(_read(args.graph))
        match = zero_divisor_graph(table).same_graph(g)
        print("graph-match:", "yes" if match else "no")
        ok = ok and match
    return EXIT_OK if ok else EXIT_UNREALIZABLE


def _cmd_graph_of(args) -> int:
    table = parse_table_csv(_read(args.table))
    g = zero_divisor_graph(table)
    _write(args.out, emit_graph_text(g))
    if args.dot is not None:
        _write(args.dot, emit_dot(g))
    return EXIT_OK


def _spec_from_args(args) -> FamilySpec:
    fields = {}
    for key in ("m", "n", "u", "v", "w", "caps"):
        value = getattr(args, key)
        if value:
            fields[key] = value
    return FamilySpec(args.family, **fields)


def _cmd_gen(args) -> int:
    if args.out_table is not None and not args.with_table:
        raise InputError("--out-table needs --with-table")
    if args.at is not None and not (args.family == "kn2" and args.caps):
        raise InputError("--at needs kn2 with --caps")
    spec = _spec_from_args(args)
    cap_at = None
    if args.at is not None:
        parts = args.at.split(",")
        if len(parts) != 2:
            raise InputError("--at needs two vertex names, e.g. x1,x2")
        cap_at = (parts[0], parts[1])
    if cap_at is not None and set(cap_at) != {"x1", "x2"}:
        # caps anchored elsewhere: build by surgery on the plain graph
        g = generate_graph(FamilySpec("kn2", n=spec.n))
        for i in range(spec.caps):
            g = add_cap(g, *cap_at, name=f"c{i + 1}")
        if args.with_table:
            raise InputError("tables are only constructed for caps anchored at x1,x2")
    else:
        g = generate_graph(spec)
    if args.end is not None:
        g = add_end(g, args.end)
        if args.with_table:
            raise InputError("tables are only constructed for unmodified family graphs")
    if args.with_table:
        table = generate_table(spec)
        if args.out_graph is not None:
            _write(args.out_graph, emit_graph_text(g))
        _write(args.out_table, emit_table_csv(table))
    else:
        _write(args.out_graph, emit_graph_text(g))
    return EXIT_OK


def _cmd_theorems(args) -> int:
    table = parse_table_csv(_read(args.table))
    report = run_all(table)
    sys.stdout.write(report.to_text())
    failures = report.failures()
    print("failures:", len(failures))
    return EXIT_OK if not failures else EXIT_INTERNAL


def _cmd_reproduce(args) -> int:
    numbers = None
    if args.only is not None:
        try:
            numbers = [int(part) for part in args.only.split(",")]
        except ValueError:
            raise InputError("--only needs comma-separated criterion numbers") from None
        bad = [k for k in numbers if not 1 <= k <= 10]
        if bad:
            raise InputError(f"no such criterion: {bad}")
    results = run_acceptance(numbers, emit=print)
    passed = sum(1 for r in results if r.passed)
    print(f"{passed}/{len(results)} criteria passed")
    return EXIT_OK if passed == len(results) else EXIT_INTERNAL


_COMMANDS = {
    "analyze": _cmd_analyze,
    "realize": _cmd_realize,
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
    "graph-of": _cmd_graph_of,
    "gen": _cmd_gen,
    "theorems": _cmd_theorems,
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    try:
        args = _make_parser().parse_args(argv)
        return _COMMANDS[args.verb](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        return EXIT_OK
    except Exception as exc:  # never a traceback to the user
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
