import argparse
import ast
import inspect
import os
import shlex
import subprocess
import sys
from pathlib import Path

import zdg
from zdg.algebra import parse_table_csv, same_products
from zdg.cli import _add_search_flags, _make_parser, main
from zdg.families import FamilySpec, add_edge, generate_graph
from zdg.graph import emit_graph_text
from zdg.search import BUDGET, Outcome, enumerate_tables, realize

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_then_verify_round_trip(tmp_path, capsys, table3):
    table_path = tmp_path / "t3.csv"
    code, out, _ = run(
        capsys, "gen", "fig3", "--m", "2", "--n", "2", "--u", "1", "--v", "2",
        "--with-table", "--out-table", str(table_path),
    )
    assert code == 0
    assert same_products(parse_table_csv(table_path.read_text()), table3)
    code, out, _ = run(capsys, "verify", str(table_path))
    assert code == 0
    assert "associative: yes" in out
    table_path.write_text("*,0,a,b\n0,0,0,0\na,0,b,0\nb,0,0,b\n")
    code, out, _ = run(capsys, "verify", str(table_path))
    assert code == 1
    assert "first-failure: (a*a)*b = b but a*(a*b) = 0" in out


def test_gen_graph_stdout(capsys):
    code, out, _ = run(capsys, "gen", "fig5", "--m", "1", "--n", "1")
    assert code == 0
    assert out.splitlines()[0].split() == ["a", "b", "c1", "x1", "x2", "y1"]


def test_gen_kn2_with_cap_and_end(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "kn2", "--n", "4", "--caps", "1", "--at", "a,b")
    assert code == 0
    assert "c1" in out.split("\n")[0]
    code, _, err = run(
        capsys, "gen", "kn2", "--n", "4", "--caps", "1", "--at", "a,b", "--with-table"
    )
    assert code == 3  # no table construction away from x1,x2
    code, out, _ = run(capsys, "gen", "kn2", "--n", "4", "--end", "a")
    assert code == 0
    assert "w1" in out.split("\n")[0]


def test_gen_rejects_ignored_flags(tmp_path, capsys):
    table_path = tmp_path / "t.csv"
    for argv, message in (
        (("gen", "fig5", "--m", "1", "--n", "1", "--out-table", str(table_path)),
         "--out-table needs --with-table"),
        (("gen", "fig5", "--m", "1", "--n", "1", "--at", "x1,x2"), "--at needs kn2 with --caps"),
        (("gen", "kn2", "--n", "4", "--at", "x1,x2"), "--at needs kn2 with --caps"),
        (("gen", "kn2", "--n", "4", "--m", "3"), "kn2 does not use parameter m"),
        (("gen", "kn2", "--n", "4", "--caps", "1", "--at", "x1"),
         "--at needs two vertex names, e.g. x1,x2"),
        (("gen", "fig3", "--m", "1", "--n", "1", "--end", "a", "--with-table"),
         "tables are only constructed for unmodified family graphs"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3, argv
        assert out == "", argv
        assert err == f"error: {message}\n", argv
    assert not table_path.exists()


def test_realize_unrealizable_exit_code(tmp_path, capsys):
    graph_path = tmp_path / "bad.graph"
    code, out, _ = run(capsys, "gen", "fig4", "--caps", "1", "--u", "1", "--v", "1",
                       "--w", "1", "--out-graph", str(graph_path))
    assert code == 0
    code, out, _ = run(capsys, "realize", str(graph_path))
    assert code == 1
    assert "outcome: unrealizable" in out


def test_realize_stats_line_counts_probes(tmp_path, capsys):
    # fig5(1,1,0)+edge(x1,x2): the root probe refutes it after 88 nodes, and
    # the stats line reports the probe assignments beside the main counters
    graph_path = tmp_path / "refuted.graph"
    g = add_edge(generate_graph(FamilySpec("fig5", m=1, n=1, v=0)), "x1", "x2")
    graph_path.write_text(emit_graph_text(g))
    code, out, _ = run(capsys, "realize", str(graph_path))
    assert code == 1
    assert "stats: nodes=88 forced=101 max-depth=7 probes=48 seconds=" in out
    assert "reason: exhausted\n" in out


def test_realize_writes_witness(tmp_path, capsys):
    graph_path = tmp_path / "g.graph"
    witness_path = tmp_path / "w.csv"
    run(capsys, "gen", "fig5", "--m", "1", "--n", "1", "--out-graph", str(graph_path))
    code, out, _ = run(
        capsys, "realize", str(graph_path), "--out-table", str(witness_path)
    )
    assert code == 0
    assert "outcome: realized" in out
    code, out, _ = run(capsys, "verify", str(witness_path), "--graph", str(graph_path))
    assert code == 0
    assert "graph-match: yes" in out


def test_realize_budget_exit_code(tmp_path, capsys):
    graph_path = tmp_path / "g.graph"
    run(capsys, "gen", "kn2", "--n", "4", "--out-graph", str(graph_path))
    code, out, _ = run(capsys, "realize", str(graph_path), "--budget", "1", "--explain")
    assert code == 2
    assert "outcome: budget-exceeded" in out
    # the chain of a budget trip is the trail as it stands: the open
    # decisions and what they forced
    assert [line for line in out.splitlines() if line.startswith("chain:")] == [
        "chain: x1*y2 = x1  (only candidate left by the neighborhood cuts)",
        "chain: x2*y1 = x2  (only candidate left by the neighborhood cuts)",
        "chain: x1*x1 = 0  (decision at depth 0)",
    ]


def test_realize_deep_ladder_graph_from_a_pipe():
    # fig3(13,13,13,13) needs search depth 1,003, beyond a fresh
    # interpreter's default recursion limit of 1,000; each call takes about
    # 0.8 s, and the time bound fails a slow engine instead of hanging
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    zdg = [sys.executable, "-m", "zdg"]
    gen = subprocess.run(zdg + ["gen", "fig3", "--m", "13", "--n", "13", "--u", "13", "--v", "13"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert gen.returncode == 0, gen.stderr
    out = subprocess.run(zdg + ["realize", "/dev/stdin"], input=gen.stdout,
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "outcome: realized" in out.stdout


def test_enumerate_cli(tmp_path, capsys):
    graph_path = tmp_path / "k2.graph"
    graph_path.write_text("a b\na b\n")
    code, out, _ = run(capsys, "enumerate", str(graph_path))
    assert code == 0
    assert "solutions: 6" in out and "exhaustive: yes" in out
    code, out, _ = run(capsys, "enumerate", str(graph_path), "--max-solutions", "2")
    assert code == 0
    assert "solutions: 2" in out and "exhaustive: no" in out
    # the 4-cycle a-c-b-d-a with an end vertex e on c: twins a, b; 14 tables
    graph_path.write_text("a b c d e\na c\nc b\nb d\nd a\nc e\n")
    code, out, _ = run(capsys, "enumerate", str(graph_path))
    assert code == 0
    assert "solutions: 14" in out and "exhaustive: yes" in out
    code, out, _ = run(capsys, "enumerate", str(graph_path), "--budget", "1")
    assert code == 2
    assert "exhaustive: no" in out


def test_realize_only_and_removed_flags_rejected(tmp_path, capsys):
    graph_path = tmp_path / "k2.graph"
    graph_path.write_text("a b\na b\n")
    for argv in (
        ("enumerate", str(graph_path), "--symmetry", "on"),
        ("enumerate", str(graph_path), "--explain"),
        ("realize", str(graph_path), "--parallel", "2"),
        ("realize", str(graph_path), "--symmetry", "off"),
        ("realize", str(graph_path), "--lemma21", "off"),
        ("enumerate", str(graph_path), "--lemma21", "on"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 3, argv
        assert "error:" in err
    # a config file is no second way to set a search flag
    config_path = tmp_path / "search.cfg"
    config_path.write_text("budget=1\n")
    for verb in ("realize", "enumerate"):
        code, _, err = run(capsys, verb, str(graph_path), "--config", str(config_path))
        assert code == 3, verb
        assert "error: unrecognized arguments: --config" in err


ANALYZE = {
    # fig3(2,2,1,2): a realizable graph with a witness
    "fig3": (None, """\
vertices: a b d x1 x2 y1 y2 u1 v1 v2
edges: a-b a-d a-u1 a-x1 a-x2 a-y1 a-y2 b-d b-y1 b-y2 d-v1 d-v2 d-x1 d-x2
connected: yes
diameter: 3
core-vertices: {a,b,d,x1,x2,y1,y2}
core-edges: a-b a-d a-x1 a-x2 a-y1 a-y2 b-d b-y1 b-y2 d-x1 d-x2
pendant-vertices: {u1,v1,v2}
core-on-triangles-or-squares: yes
pendants-attached-to-core: yes
necessary-conditions: connected=pass core=pass cover=pass
witness-count: 8
witness: (a,b,y1,v1)
partition[(a,b,y1,v1)]: ab={a,b} C={y1,y2} B={d,u1,x1,x2} L={v1,v2} Ta={u1} Tb={} B1={x1,x2} B2={d}
classification: none
"""),
    "disconnected": ("a b c d e\na b\nc d\n", """\
vertices: a b c d e
edges: a-b c-d
connected: no
diameter: inf
isolated-vertices: {e} (outside the connected regime)
necessary-conditions: connected=fail core=fail cover=fail
"""),
    "5-cycle": ("a b c d e\na b\nb c\nc d\nd e\ne a\n", """\
vertices: a b c d e
edges: a-b a-e b-c c-d d-e
connected: yes
diameter: 2
core-vertices: {a,b,c,d,e}
core-edges: a-b a-e b-c c-d d-e
pendant-vertices: {}
core-on-triangles-or-squares: no
pendants-attached-to-core: yes
necessary-conditions: connected=pass core=fail cover=fail
witness-count: 0
classification: none
"""),
    # a triangle with a pendant path: B-vertex v4 breaks both observations
    "triangle-with-path": ("v1 v2 v3 v4 v5\nv1 v2\nv2 v3\nv1 v3\nv3 v4\nv4 v5\n", """\
vertices: v1 v2 v3 v4 v5
edges: v1-v2 v1-v3 v2-v3 v3-v4 v4-v5
connected: yes
diameter: 3
core-vertices: {v1,v2,v3}
core-edges: v1-v2 v1-v3 v2-v3
pendant-vertices: {v4,v5}
core-on-triangles-or-squares: yes
pendants-attached-to-core: no
necessary-conditions: connected=pass core=fail cover=fail
witness-count: 4
witness: (v1,v3,v2,v5)
partition[(v1,v3,v2,v5)]: ab={v1,v3} C={v2} B={v4} L={v5} Ta={} Tb={} B1={v4} B2={}
partition-violation: B-vertex v4 has an L-neighbor but is not adjacent to both v1 and v3
partition-violation: B1-vertex v4 has no neighbor inside B
classification: none
"""),
}


def test_analyze_output(tmp_path, capsys):
    # the whole report, byte for byte
    for name, (text, expected) in ANALYZE.items():
        graph_path = tmp_path / f"{name}.graph"
        if text is None:
            run(capsys, "gen", "fig3", "--m", "2", "--n", "2", "--u", "1", "--v", "2",
                "--out-graph", str(graph_path))
        else:
            graph_path.write_text(text)
        code, out, _ = run(capsys, "analyze", str(graph_path))
        assert code == 0
        assert out == expected, name


def test_analyze_computes_the_core_once(tmp_path, capsys, monkeypatch):
    # the connectivity, core and necessary-conditions lines share one core
    calls = []
    real = zdg.graph._core_of

    def counting(adj):
        calls.append(adj)
        return real(adj)

    monkeypatch.setattr(zdg.graph, "_core_of", counting)
    monkeypatch.setattr(zdg.cli, "_core_of", counting)
    fig3 = emit_graph_text(generate_graph(FamilySpec("fig3", m=2, n=2, u=1, v=2)))
    for text in (fig3, "a b c d\na b\nb c\nc d\nd a\n", ANALYZE["5-cycle"][0]):
        graph_path = tmp_path / "g.graph"
        graph_path.write_text(text)
        calls.clear()
        code, out, _ = run(capsys, "analyze", str(graph_path))
        assert code == 0 and "core-vertices:" in out
        assert len(calls) == 1, text
    calls.clear()
    graph_path.write_text(ANALYZE["disconnected"][0])
    assert run(capsys, "analyze", str(graph_path))[0] == 0
    assert calls == []


def test_analyze_empty_file_is_input_error(tmp_path, capsys):
    empty = tmp_path / "empty.graph"
    empty.write_text("")
    code, _, err = run(capsys, "analyze", str(empty))
    assert code == 3
    assert "error:" in err


def test_unknown_flag_rejected(capsys):
    code, _, err = run(capsys, "analyze", "x", "--frobnicate")
    assert code == 3


def test_unknown_verb_rejected(capsys):
    code, _, err = run(capsys, "transmogrify")
    assert code == 3


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/file.graph")
    assert code == 3


def test_non_utf8_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe\x00bad")
    for argv in (("realize", str(bad)), ("verify", str(bad))):
        code, _, err = run(capsys, *argv)
        assert code == 3, argv
        assert err.startswith(f"error: cannot read {bad}: "), err


def test_unwritable_output_is_input_error(tmp_path, capsys):
    missing = tmp_path / "missing"
    graph_path = tmp_path / "g.graph"
    table_path = tmp_path / "t6.csv"
    run(capsys, "gen", "kn2", "--n", "4", "--with-table", "--out-graph", str(graph_path),
        "--out-table", str(table_path))
    for argv, target in (
        (("realize", str(graph_path), "--out-table"), missing / "w.csv"),
        (("graph-of", str(table_path), "--out"), missing / "g.graph"),
    ):
        code, _, err = run(capsys, *argv, str(target))
        assert code == 3, argv
        assert err.startswith(f"error: cannot write {target}: "), err
    assert not missing.exists()


def test_graph_of_round_trip(tmp_path, capsys, table6):
    table_path = tmp_path / "t6.csv"
    run(capsys, "gen", "kn2", "--n", "4", "--with-table", "--out-table", str(table_path))
    out_path = tmp_path / "g.graph"
    dot_path = tmp_path / "g.dot"
    code, out, _ = run(capsys, "graph-of", str(table_path), "--out", str(out_path),
                       "--dot", str(dot_path))
    assert code == 0
    text = out_path.read_text()
    # canonical emit(parse(emit(...))) is byte-identical
    from zdg.graph import emit_graph_text, parse_graph_text

    assert emit_graph_text(parse_graph_text(text)) == text
    assert dot_path.read_text().startswith("graph G {")


def test_graph_of_a_graph_with_no_vertices_is_input_error(tmp_path, capsys):
    # e*e = e and no nonzero zero divisor: the graph has no vertices, and its
    # graph file would be empty, which the parser rejects; nothing is written
    table_path = tmp_path / "t.csv"
    table_path.write_text("*,0,e\n0,0,0\ne,0,e\n")
    out_path, dot_path = tmp_path / "g.graph", tmp_path / "g.dot"
    code, _, err = run(capsys, "graph-of", str(table_path), "--out", str(out_path),
                       "--dot", str(dot_path))
    assert code == 3
    assert err.startswith("error: ")
    assert not out_path.exists() and not dot_path.exists()


def test_graph_of_agrees_with_gen(tmp_path, capsys):
    table_path = tmp_path / "t.csv"
    run(capsys, "gen", "fig5", "--m", "2", "--n", "1", "--v", "1", "--with-table",
        "--out-table", str(table_path))
    code, gen_graph, _ = run(capsys, "gen", "fig5", "--m", "2", "--n", "1", "--v", "1")
    assert code == 0
    code, derived, _ = run(capsys, "graph-of", str(table_path))
    assert code == 0
    from zdg.graph import parse_graph_text

    assert parse_graph_text(derived).same_graph(parse_graph_text(gen_graph))


def test_theorems_cli(tmp_path, capsys):
    table_path = tmp_path / "t5.csv"
    run(capsys, "gen", "fig5", "--m", "2", "--n", "2", "--v", "2", "--with-table",
        "--out-table", str(table_path))
    code, out, _ = run(capsys, "theorems", str(table_path))
    assert code == 0
    *claims, applicable, failures = out.splitlines()
    assert all(line.startswith("CLAIM ") for line in claims)
    assert "CLAIM lemma_2_1[x=y1] applicable holds d(y1,c1)=3 and y1*y1=y1" in claims
    assert applicable == (
        "applicable: lemma_2_1 6, prop_2_2.1 0, prop_2_2.2 1, thm_2_4.ideal_0ab 8, "
        "thm_2_4.ideal_complement 8, thm_2_4.l_closed 8, thm_2_4.case1_ideal 0, "
        "thm_2_4.case2_subsemigroup 0, thm_2_6 0, prop_2_8 0"
    )
    assert failures == "failures: 0"


def test_verify_graph_mismatch(tmp_path, capsys):
    table_path = tmp_path / "t.csv"
    graph_path = tmp_path / "g.graph"
    run(capsys, "gen", "kn2", "--n", "4", "--with-table", "--out-table", str(table_path))
    graph_path.write_text("a b\na b\n")
    code, out, _ = run(capsys, "verify", str(table_path), "--graph", str(graph_path))
    assert code == 1
    assert "graph-match: no" in out


def test_search_flags_are_the_library_keywords():
    # each verb's search flags store under the keyword-only parameters of its
    # library call, and each flag's default is the parameter's default
    expected = {
        "realize": (realize, {"budget": BUDGET, "explain": False}),
        "enumerate": (enumerate_tables, {"budget": BUDGET, "max_solutions": None}),
    }
    for verb, (call, defaults) in expected.items():
        params = inspect.signature(call).parameters.values()
        keywords = {p.name: p.default for p in params if p.kind is p.KEYWORD_ONLY}
        assert keywords == defaults, verb
        parser = argparse.ArgumentParser()
        _add_search_flags(parser, verb)
        flags = {a.dest: a.default for a in parser._actions if a.dest != "help"}
        assert flags == keywords, verb


def test_reproduce_single_criterion(capsys):
    code, out, _ = run(capsys, "reproduce", "--only", "1")
    assert code == 0
    assert "criterion  1 [PASS]" in out
    code, _, err = run(capsys, "reproduce", "--only", "11")
    assert code == 3
    assert err == "error: no such criterion: [11]\n"
    code, _, err = run(capsys, "reproduce", "--only", "x")
    assert code == 3
    assert err == "error: --only needs comma-separated criterion numbers\n"


def test_readme_library_block_runs():
    # README's "Library" block runs as written, so it cannot import a name
    # that zdg no longer exports
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    block = section.split("```python", 1)[1].split("```", 1)[0]
    imported = [
        alias.name for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "zdg" for alias in node.names
    ]
    assert imported and set(imported) <= set(zdg.__all__)
    scope = {}
    exec(block, scope)
    assert scope["out"].tag is Outcome.REALIZED and scope["out"].witness is not None
    assert scope["traced"].witness == scope["out"].witness and scope["traced"].chain
    assert scope["report"].failures() == ()
    assert scope["state"].contradiction is None


def test_public_names_pinned():
    # one public name per question: a removed name or a returning wrapper
    # shows up in this list's diff
    assert sorted(zdg.__all__) == [
        "AssociativityFailure", "CayleyTable", "CoreDecomposition", "DeltaWitness",
        "EnumerationResult", "FamilySpec", "InputError", "LabeledGraph", "Outcome",
        "RealizationOutcome", "StructurePartition", "TheoremReport", "ValidationReport",
        "add_cap", "add_edge", "add_end", "c_set", "classify_special", "closure_violation",
        "core", "delta_witnesses", "diameter", "distances_from", "emit_dot",
        "emit_graph_text", "emit_table_csv", "enumerate_tables", "generate_graph",
        "generate_table", "ideal_violation", "init_domains", "is_isomorphic", "isomorphisms",
        "necessary_conditions", "parse_graph_text", "parse_table_csv", "partition",
        "propagate", "realize", "run_all", "same_products", "t_set", "validate",
        "zero_divisor_graph",
    ]
    # a star import binds those names only, no submodule
    scope = {}
    exec("from zdg import *", scope)
    del scope["__builtins__"]
    assert set(scope) == set(zdg.__all__)
    assert not any(inspect.ismodule(value) for value in scope.values())


def test_readme_command_lines_parse():
    # every command of README's "Command line" block is one the parser takes,
    # so a removed flag cannot linger in the documentation
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    commands = [line for line in block.splitlines() if line.startswith("zdg ")]
    assert len(commands) == 12
    parser = _make_parser()
    for line in commands:
        parser.parse_args(shlex.split(line.split(">", 1)[0])[1:])
