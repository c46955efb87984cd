"""Span recorder for the traced run, and the per-layer metrics built from it.

Spans are taken from outside the library, by wrapping the names each
calling module looks up: ``zdg.search.validate`` is the re-validation that
``_record_solution`` does, ``zdg.theorems.validate`` is the theorem layer's
own use of the same function. So one function is attributed to the layer
that called it. The wrappers are installed only around traced passes.
"""
from time import perf_counter

from workloads import Calls

# A span is a list: [name, caller, start, end, parent index, input id, info].
NAME, CALLER, START, END, PARENT, INPUT, INFO = range(7)

REVALIDATION = ("algebra.table", "algebra.validate", "graph.zdg")
SEARCH_CALLS = ("search.realize", "search.enumerate")


class Tracer:
    """Keeps spans in memory; ``install`` patches zdg and ``uninstall`` undoes it."""

    def __init__(self):
        self.spans = []
        self.input_id = None
        self._open = []
        self._patches = []

    def wrap(self, fn, name, caller, inspect=None, input_id=None):
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            if input_id is not None:
                self.input_id = input_id
            span = [name, caller, 0.0, 0.0, open_spans[-1] if open_spans else None,
                    self.input_id, None]
            open_spans.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[INFO] = {"error": type(exc).__name__}
                raise
            finally:
                span[END] = perf_counter()
                open_spans.pop()
            if inspect is not None:
                span[INFO] = inspect(result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch(self, owner, attr, name, caller, inspect=None):
        self._set(owner, attr, self.wrap(getattr(owner, attr), name, caller, inspect))

    def install(self, zdg):
        """Wrap the layer boundaries; returns the traced entry points.

        Spans start afresh, so ``spans`` holds the last traced pass only.
        """
        self.spans.clear()
        search, acceptance = zdg.search, zdg.acceptance
        modules = {"search": search, "acceptance": acceptance,
                   "theorems": zdg.theorems, "families": zdg.families}
        for caller, module in modules.items():
            self._patch(module, "validate", "algebra.validate", caller)
            self._patch(module, "zero_divisor_graph", "graph.zdg", caller)
        for caller in ("search", "acceptance"):
            self._patch(modules[caller], "necessary_conditions", "graph.prescreen", caller,
                        _prescreen_info)
        self._patch(search, "CayleyTable", "algebra.table", "search")
        self._patch(search.SearchState, "__init__", "search.setup", "search")
        self._patch(search.SearchState, "initialize", "search.init_prop", "search")
        self._patch(acceptance, "realize", "search.realize", "acceptance", _outcome_info)
        self._patch(acceptance, "enumerate_tables", "search.enumerate", "acceptance",
                    _enumeration_info)
        self._patch(acceptance, "generate_graph", "families.generate", "acceptance")
        self._patch(acceptance, "generate_table", "families.generate", "acceptance")
        self._patch(acceptance, "run_all", "theorems.run_all", "acceptance")
        self._patch(acceptance, "brute_force_realizations", "acceptance.oracle", "acceptance")
        self._set(acceptance, "CRITERIA", tuple(
            self.wrap(c, f"acceptance.criterion_{i}", "acceptance", input_id=f"criterion {i}")
            for i, c in enumerate(acceptance.CRITERIA, start=1)
        ))
        return Calls(
            self.wrap(zdg.parse_graph_text, "graph.parse", "bench"),
            self.wrap(search.realize, "search.realize", "bench", _outcome_info),
            self.wrap(search.enumerate_tables, "search.enumerate", "bench", _enumeration_info),
            acceptance.run_acceptance,
            self._mark,
        )

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _mark(self, input_id):
        self.input_id = input_id


def _prescreen_info(report):
    return {"rejected": not report.passed}


def _outcome_info(outcome):
    s = outcome.stats
    return {"nodes": s.nodes, "forced": s.forced, "max_depth": s.max_depth,
            "solutions": int(outcome.witness is not None),
            "budget": outcome.tag.value == "budget-exceeded"}


def _enumeration_info(result):
    s = result.stats
    return {"nodes": s.nodes, "forced": s.forced, "max_depth": s.max_depth,
            "solutions": len(result.tables), "budget": result.budget_exceeded}


def layer_metrics(spans):
    """Per-layer metrics of the spans of one traced pass.

    ``_s`` metrics are inclusive span time, except ``search.dfs_self_s``: the
    realize/enumerate spans' self time, their duration minus the part their
    child spans (pre-screen, set-up, initial propagation, re-validation)
    cover. ``search.revalidate_calls`` counts re-validations, one ``validate``
    call from ``zdg.search`` per solution.
    """
    child = {}
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] = child.get(s[PARENT], 0.0) + s[END] - s[START]
    seconds, calls = {}, {}
    m = dict.fromkeys(("graph.prescreen_rejects", "search.dfs_self_s", "search.revalidate_s",
                       "search.revalidate_calls", "search.nodes", "search.forced",
                       "search.max_depth", "search.solutions", "search.budget_exceeded",
                       "search.crashes"), 0)
    for k, s in enumerate(spans):
        name, d, info = s[NAME], s[END] - s[START], s[INFO] or {}
        seconds[name] = seconds.get(name, 0.0) + d
        calls[name] = calls.get(name, 0) + 1
        if name == "graph.prescreen":
            m["graph.prescreen_rejects"] += info.get("rejected", False)
        elif s[CALLER] == "search" and name in REVALIDATION:
            m["search.revalidate_s"] += d
            m["search.revalidate_calls"] += name == "algebra.validate"
        elif name in SEARCH_CALLS:
            m["search.dfs_self_s"] += d - child.get(k, 0.0)
            m["search.crashes"] += "error" in info
            m["search.budget_exceeded"] += info.get("budget", False)
            for key in ("nodes", "forced", "solutions"):
                m[f"search.{key}"] += info.get(key, 0)
            m["search.max_depth"] = max(m["search.max_depth"], info.get("max_depth", 0))
    m["search.nodes_per_s"] = (
        m["search.nodes"] / m["search.dfs_self_s"] if m["search.dfs_self_s"] else 0.0
    )
    for name in ("graph.parse", "search.setup", "search.init_prop",
                 "acceptance.oracle", *(f"acceptance.criterion_{i}" for i in range(1, 11))):
        m[f"{name}_s"] = seconds.get(name, 0.0)
    for name in ("graph.prescreen", "algebra.validate", "graph.zdg", "families.generate",
                 "theorems.run_all"):
        m[f"{name}_s"] = seconds.get(name, 0.0)
        m[f"{name}_calls"] = calls.get(name, 0)
    return m
