"""The traced benchmark run wraps names that zdg modules look up.

``bench/spans.py`` patches those names for a traced pass and restores them
afterwards. A refactor that drops or renames one of them breaks the traced
run; this test makes it break here too.
"""
from pathlib import Path

import zdg

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_install_and_uninstall_restore_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    owners = (zdg.search, zdg.acceptance, zdg.theorems, zdg.families, zdg.search.SearchState)
    before = {id(owner): dict(vars(owner)) for owner in owners}
    tracer = spans.Tracer()
    try:
        tracer.install(zdg)
        assert tracer._patches
        for owner, attr, original in tracer._patches:
            assert original is before[id(owner)][attr], (owner, attr)
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner in owners:
        now, snapshot = vars(owner), before[id(owner)]
        assert now.keys() == snapshot.keys(), owner
        for attr, value in snapshot.items():
            assert now[attr] is value, (owner, attr)


def test_traced_acceptance_run_keeps_each_criterion_work_in_its_span(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    tracer = spans.Tracer()
    try:
        tracer.install(zdg)
        results = zdg.acceptance.run_acceptance([1, 2, 3, 8, 10])
    finally:
        tracer.uninstall()
    assert [(r.number, r.passed) for r in results] == [(n, True) for n in (1, 2, 3, 8, 10)]
    criterion_span = {}
    for k, span in enumerate(tracer.spans):
        name = span[spans.NAME]
        if name.startswith("acceptance.criterion_"):
            number = int(name.rpartition("_")[2])
            assert number not in criterion_span, name
            criterion_span[number] = k
    assert sorted(criterion_span) == [1, 2, 3, 8, 10]

    def parents(name, caller="acceptance"):
        return [
            s[spans.PARENT] for s in tracer.spans
            if s[spans.NAME] == name and s[spans.CALLER] == caller
        ]

    # one generate_table per sweep spec, inside criterion 2 although the
    # corpus builds the tables
    generated = parents("families.generate")
    assert generated.count(criterion_span[2]) == len(zdg.acceptance.sweep_specs()) == 247
    realized = parents("search.realize")
    assert realized and set(realized) == {criterion_span[3]}
    screened = parents("graph.prescreen")
    assert screened and set(screened) == {criterion_span[10]}
    # criterion 8 runs the oracle and the enumeration once per oracle graph
    assert len(zdg.acceptance.ORACLE_GRAPHS) == 9
    assert parents("acceptance.oracle") == [criterion_span[8]] * 9
    assert parents("search.enumerate") == [criterion_span[8]] * 9


def test_traced_enumeration_validates_each_solution_once(monkeypatch):
    # search.revalidate_calls counts the validate calls made from zdg.search,
    # so it reads the number of solutions only if each one is validated once
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    star = zdg.LabeledGraph(["c", "l1", "l2", "l3"], [("c", "l1"), ("c", "l2"), ("c", "l3")])
    tracer = spans.Tracer()
    try:
        calls = tracer.install(zdg)
        tables = calls.enumerate_tables(star).tables
    finally:
        tracer.uninstall()
    assert tables
    validated = [
        s for s in tracer.spans
        if s[spans.NAME] == "algebra.validate" and s[spans.CALLER] == "search"
    ]
    assert len(validated) == len(tables)
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["search.revalidate_calls"] == metrics["search.solutions"] == len(tables)
