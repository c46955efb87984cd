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
