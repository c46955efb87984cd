"""zdg benchmark: one workload, measured for a fixed time, answers checked.

    python3 bench/run.py --workload search --seed 0 --seconds 55 --trace 0

Run from the root of a checkout; zdg is imported from its src/ directory.
With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric of BENCHMARK.json; with ``--trace 1`` untraced and
traced passes alternate and it carries every per-layer metric instead. A
report with run details, and in a traced run the spans of the last traced
pass, goes to ``.bench_out/``. See bench/README.md for the workloads and
metrics.
"""
import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
from time import perf_counter

from spans import Tracer, layer_metrics
from workloads import BENCH, SRC, WORKLOADS, Calls, counters, judge, run_pass, setup

ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
PINS_FILE = BENCH / "data" / "pins.json"
SETUP_REPEATS = 9
COUNTERS = ("search.nodes", "search.forced", "search.max_depth", "search.solutions")

# The tail is the highest percentile with at least ten samples beyond it at
# the minimum pass count. The slowest inputs' times form one cluster each, so
# the percentile is placed mid-way through the cluster of the TAIL_RANK-th
# slowest input, where it does not straddle two inputs.
TAIL_RANK = {"search": 11, "reproduce": 2}


class Tally:
    """Answers of every pass so far, checked against the known answers."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = self.wrong = 0
        self.problems = []  # the first few messages, for the report
        self.samples = []  # per pass, seconds of each correctly answered input
        self.counters = []  # deterministic counters per pass
        self.reference = {}  # item id -> tables of its first correct answer

    def add(self, records, pass_counters=None):
        samples = []
        for item, seconds, answer in records:
            kind, message, fingerprint = judge(item, answer, self.reference.get(item.id))
            self.attempted += 1
            if kind == "ok":
                samples.append(seconds)
                self.reference.setdefault(item.id, fingerprint)
                continue
            self.failed += 1
            self.wrong += kind == "wrong"
            line = f"{kind}: {message}"
            if line not in self.problems and len(self.problems) < 20:
                self.problems.append(line)
        self.samples.append(samples)
        if pass_counters is not None:
            if self.counters and pass_counters != self.counters[0]:
                self.wrong += 1
                self.problems.append(f"counters differ between passes: {pass_counters}")
            self.counters.append(pass_counters)

    def tail_fraction(self):
        """Share of each pass's answers at or below the tail percentile."""
        return 1 - (TAIL_RANK[self.workload] - 0.5) / max(len(self.samples[0]), 1)

    def min_passes(self):
        """Passes needed for ten samples beyond the tail percentile."""
        return math.ceil(10 / (TAIL_RANK[self.workload] - 0.5))


def quantile(data, q):
    """The ``q`` quantile of ``data``, interpolated as ``statistics.quantiles`` does."""
    data = sorted(data)
    pos = min(max(q * (len(data) + 1) - 1, 0), len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def measure(workload, zdg, items, seconds, trace):
    """Run passes until ``seconds`` have gone and enough samples exist."""
    plain = Calls.plain(zdg)
    tracer = Tracer() if trace else None
    tally = Tally(workload)
    cpus = {False: [], True: []}  # CPU seconds of each pass, untraced and traced
    walls = []  # wall seconds of each untraced pass, for the report
    layers = []
    depth = None
    deadline = perf_counter() + seconds
    # A traced run alternates which kind of pass comes first in each pair, so
    # that warm-up and drift do not land on one side of trace.overhead_s.
    order = (False, True) if trace else (False,)
    while True:
        order = order[::-1]
        for traced in order:
            calls = tracer.install(zdg) if traced else plain
            start = perf_counter()
            try:
                cpu, records, depth = run_pass(workload, calls, items)
            finally:
                if traced:
                    tracer.uninstall()
            cpus[traced].append(cpu)
            if traced:
                layers.append(layer_metrics(tracer.spans))
                tally.add(records, {k: layers[-1][k] for k in COUNTERS})
            else:
                walls.append(perf_counter() - start)
                tally.add(records, None if workload == "reproduce" else counters(records))
        needed = 1 if trace else tally.min_passes()
        if perf_counter() >= deadline and len(cpus[False]) >= needed:
            return tally, cpus, walls, layers, tracer, depth


def end_to_end(tally, cpus, walls, setups):
    """The end-to-end metrics; the p50 is the median over passes of each pass's median.

    Pass and answer times are CPU time (see ``run_pass``); the median wall
    time of a pass goes to the report, not to the metrics.
    """
    pooled = [s for samples in tally.samples for s in samples]
    fraction = tally.tail_fraction()
    tail = quantile(pooled, fraction)
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_cpu_s": statistics.median(cpus[False]),
        "verdict_cpu_p50_ms": statistics.median(map(statistics.median, tally.samples)) * 1000,
        "verdict_cpu_tail_ms": tail * 1000,
        "answered_share": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {"pass_wall_s": statistics.median(walls),
             "tail_percentile": round(100 * fraction, 3), "latency_samples": len(pooled),
             "samples_beyond_tail": sum(s > tail for s in pooled)}
    return metrics, notes


def per_layer(cpus, layers):
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(cpus[True]) - statistics.median(cpus[False])
    return metrics


def check_pins(workload, observed):
    """Compare the pass counters with the pinned ones; returns findings.

    The seed renames vertices but keeps their order, so the counters are the
    same for every seed.
    """
    pinned = json.loads(PINS_FILE.read_text(encoding="utf-8"))[workload]
    if observed is None:
        return ["counters are observed only in a traced run of this workload"]
    return [
        f"{k}: pinned {pinned[k]}, got {observed[k]}" for k in COUNTERS if observed[k] != pinned[k]
    ] or ["all pinned counters match"]


def source_id():
    """Digest of src/zdg, and the git commit when the checkout has one."""
    digest = hashlib.sha256()
    for path in sorted(p for p in (SRC / "zdg").rglob("*") if p.is_file()):
        if "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return digest.hexdigest()[:16], commit


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            zdg, items = setup(args.workload, args.seed)
            setups.append(perf_counter() - t0)
    except (ImportError, OSError, ValueError) as exc:
        print(f"bench: cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2

    tally, cpus, walls, layers, tracer, depth = measure(
        args.workload, zdg, items, args.seconds, args.trace
    )
    if args.trace:
        values, notes = per_layer(cpus, layers), {}
        observed = {k: values[k] for k in COUNTERS}
    else:
        values, notes = end_to_end(tally, cpus, walls, setups)
        observed = tally.counters[0] if tally.counters else None
    units = {m["name"]: m["unit"] for m in wanted}
    if not units.keys() <= values.keys():
        raise RuntimeError(f"BENCHMARK.json metrics {sorted(units.keys() - values.keys())} not measured")

    digest, commit = source_id()
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "recursion_limit": sys.getrecursionlimit(), "call_site_stack_depth": depth,
        "source_digest": digest, "commit": commit,
        "passes": len(cpus[False]), "traced_passes": len(cpus[True]),
        "attempted": tally.attempted, "failed": tally.failed, "wrong_answers": tally.wrong,
        "failed_share": f"{tally.failed}/{tally.attempted}", "problems": tally.problems,
        "counters": observed, "pins": check_pins(args.workload, observed),
        **notes,
    }
    for key, value in report.items():
        if key not in ("problems", "pins"):
            print(f"{key}: {value}")
    for line in report["problems"] + report["pins"]:
        print(f"  {line}")
    for name, value in values.items():
        print(f"{name}: {value:.6g} {units.get(name, 's' if name.endswith('_s') else 'count')}")

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report["metrics"] = values
    if tracer is not None:
        report["span_fields"] = ["name", "caller", "start", "end", "parent", "input", "info"]
        report["spans"] = tracer.spans
    out.write_text(json.dumps(report), encoding="utf-8")

    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
