#!/usr/bin/env python3
"""Paper-workload benchmark for the CourseNavigator library.

Run from the repository root::

    python3 perfbench/run.py --workload goal_tree --seed 1 --seconds 30 --trace 0

Workloads: ``goal_tree`` (Table 1), ``ranked_session`` (Figure 4),
``deadline_count`` (Table 2 deadline row) and ``random_ranked`` (a
generated catalog with overlapping requirement groups).  The library is
imported from ``src/`` next to this directory and driven through its
public API, from one process and one thread.

One run repeats the workload's unit (fresh set-up, then its queries) until
``--seconds`` have passed, checks every query's output against the golden
values in ``workloads.py``, and prints one JSON object as its last line:
``correct``, ``attempted`` and ``failed`` count queries, and ``metrics``
holds medians over the run's units.

* ``--trace 0``: end-to-end metrics, measured with tracing off —
  ``query_s`` (seconds per unit), ``peak_rss_mb`` (the process's peak
  resident memory) and ``setup_s`` (seconds per set-up).  Wall times are
  scaled to the reference host's full speed with :func:`reference_loop`
  (see ``README.md``); the unscaled median is printed before the result.
* ``--trace 1``: per-layer metrics.  Units alternate untraced and traced;
  the traced ones run under :class:`layertrace.LayerTracer`, installed for
  that unit only.  Layer self times plus ``core.engine_s`` add up to
  ``trace.query_s``; ``trace.overhead`` is the traced over the untraced
  median unit time.

``--seed`` is recorded but changes no input: the paper workloads run on
the fixed Brandeis catalog, and ``random_ranked`` generates its catalog
from ``--catalog-seed``, one of the seeds whose golden output is recorded.
``--smoke`` runs reduced sizes that finish in seconds (used by the tests).
Exits 2 without printing a result when the library cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Set-up-only repetitions after each timed unit: set-up takes
#: milliseconds, so its median needs many samples, spread over the run.
SETUP_REPEATS = 20

#: Iterations of :func:`reference_loop`, and its wall time in seconds on
#: the reference host (2-CPU VM, Python 3.11) at full speed.
REFERENCE_ITERATIONS = 3_000
REFERENCE_SECONDS = 0.0008

#: ``(name, unit)`` of every end-to-end metric, in report order.
END_TO_END = (("query_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER = (
    ("catalog.options_calls", "count"),
    ("catalog.options_s", "s"),
    ("requirements.goal_calls", "count"),
    ("requirements.goal_s", "s"),
    ("flow.solves", "count"),
    ("flow.s", "s"),
    ("flow.solve_ratio", "ratio"),
    ("pruning.checks", "count"),
    ("pruning.fire_ratio", "ratio"),
    ("pruning.time_s", "s"),
    ("pruning.availability_s", "s"),
    ("expansion.children", "count"),
    ("expansion.s", "s"),
    ("graph.nodes", "count"),
    ("graph.s", "s"),
    ("ranking.bound_calls", "count"),
    ("ranking.s", "s"),
    ("cache.flow_hit_rate", "ratio"),
    ("cache.eval_hit_rate", "ratio"),
    ("cache.transposition_hit_rate", "ratio"),
    ("core.engine_s", "s"),
    ("trace.query_s", "s"),
    ("trace.overhead", "ratio"),
)

GOAL_KEYS = (
    "DegreeGoal.is_satisfied",
    "DegreeGoal.remaining_courses",
    "CachedGoal.is_satisfied",
    "CachedGoal.remaining_courses",
)
PRUNE_KEYS = (
    "TimeBasedPruner.should_prune",
    "TimeBasedPruner.examine",
    "AvailabilityPruner.should_prune",
    "AvailabilityPruner.examine",
)


def import_library() -> bool:
    """Put ``src/`` on the import path and import the library from it."""
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        return False
    sys.path.insert(0, source)
    try:
        import repro  # noqa: F401
    except ImportError:
        traceback.print_exc()
        return False
    return True


def layer_targets():
    """The public methods wrapped per layer in traced units."""
    from repro import Catalog, DegreeGoal, LearningGraph, TimeRanking
    from repro.cache.memos import CachedGoal
    from repro.core.expansion import Expander
    from repro.core.pruning import AvailabilityPruner, TimeBasedPruner
    from repro.requirements.flow import FlowNetwork

    return (
        ("catalog", Catalog, "eligible_courses", "call"),
        ("requirements", DegreeGoal, "is_satisfied", "call"),
        ("requirements", DegreeGoal, "remaining_courses", "call"),
        ("requirements", CachedGoal, "is_satisfied", "call"),
        ("requirements", CachedGoal, "remaining_courses", "call"),
        ("flow", FlowNetwork, "max_flow", "call"),
        ("pruning.time", TimeBasedPruner, "should_prune", "verdict"),
        ("pruning.time", TimeBasedPruner, "examine", "verdict"),
        ("pruning.availability", AvailabilityPruner, "should_prune", "verdict"),
        ("pruning.availability", AvailabilityPruner, "examine", "verdict"),
        ("expansion", Expander, "successors", "generator"),
        ("graph", LearningGraph, "add_child", "call"),
        ("graph", LearningGraph, "mark_terminal", "call"),
        ("ranking", TimeRanking, "remaining_cost_bound", "call"),
        ("ranking", TimeRanking, "edge_cost", "call"),
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _hit_rate(cache, layer: str) -> float:
    if cache is None:
        return 0.0
    totals = cache.counter_totals()[layer]
    return _ratio(totals["hits"], totals["hits"] + totals["misses"])


def layer_metrics(tracer, traced_s: float, untraced_s: float, cache) -> dict:
    """Per-layer values of one traced unit (see ``PER_LAYER``)."""
    count = tracer.count
    seconds = tracer.self_seconds
    goal_calls = count(*GOAL_KEYS)
    solves = count("FlowNetwork.max_flow")
    checks = count(*PRUNE_KEYS)
    return {
        "catalog.options_calls": count("Catalog.eligible_courses"),
        "catalog.options_s": seconds["catalog"],
        "requirements.goal_calls": goal_calls,
        "requirements.goal_s": seconds["requirements"],
        "flow.solves": solves,
        "flow.s": seconds["flow"],
        "flow.solve_ratio": _ratio(solves, goal_calls),
        "pruning.checks": checks,
        "pruning.fire_ratio": _ratio(sum(tracer.fired[key] for key in PRUNE_KEYS), checks),
        "pruning.time_s": seconds["pruning.time"],
        "pruning.availability_s": seconds["pruning.availability"],
        "expansion.children": tracer.items["Expander.successors"],
        "expansion.s": seconds["expansion"],
        "graph.nodes": count("LearningGraph.add_child"),
        "graph.s": seconds["graph"],
        "ranking.bound_calls": count("TimeRanking.remaining_cost_bound"),
        "ranking.s": seconds["ranking"],
        "cache.flow_hit_rate": _hit_rate(cache, "flow"),
        "cache.eval_hit_rate": _hit_rate(cache, "eval"),
        "cache.transposition_hit_rate": _hit_rate(cache, "transposition"),
        "core.engine_s": traced_s - tracer.layer_seconds(),
        "trace.query_s": traced_s,
        "trace.overhead": _ratio(traced_s, untraced_s),
    }


def reference_loop() -> float:
    """Wall seconds of a short fixed pure-Python loop (dict and frozenset work).

    The benchmark's own code, identical for every library version, so its
    time tracks only how fast the host runs Python at that moment.
    """
    began = time.perf_counter()
    counts = {}
    for i in range(REFERENCE_ITERATIONS):
        key = frozenset((i % 97, i % 89))
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - began


class Run:
    """Samples and query outcomes collected over one benchmark run.

    Every set-up is timed right after one :func:`reference_loop`, and its
    value is its time scaled by ``REFERENCE_SECONDS`` over that loop's.
    Units last seconds, so they are scaled by one factor for the run:
    ``REFERENCE_SECONDS`` over the lower quartile of all the run's loop
    times, which a momentary stall cannot move but a host that runs slower
    for most of the run does.
    """

    def __init__(self, workload):
        self.workload = workload
        self.setup_s = []
        self.reference_s = []
        self.raw_query_s = []
        self.traced = []  # (raw traced seconds, tracer, cache) per traced unit
        self.attempted = 0
        self.failed = 0

    @property
    def scale(self) -> float:
        """Factor from this run's unit seconds to seconds at full speed."""
        return REFERENCE_SECONDS / statistics.quantiles(self.reference_s, n=4)[0]

    @property
    def query_s(self) -> list:
        """Scaled seconds of every untraced unit."""
        return [seconds * self.scale for seconds in self.raw_query_s]

    def setup(self):
        reference = reference_loop()
        began = time.perf_counter()
        inputs = self.workload.setup()
        elapsed = time.perf_counter() - began
        self.reference_s.append(reference)
        self.setup_s.append(elapsed * REFERENCE_SECONDS / reference)
        return inputs

    def unit(self, tracer=None) -> None:
        """Set up, run and check one unit, traced when ``tracer`` is given."""
        inputs = self.setup()
        outputs = None
        began = time.perf_counter()
        try:
            if tracer is None:
                outputs = self.workload.run(inputs)
            else:
                with tracer:
                    outputs = self.workload.run(inputs)
        except Exception:
            traceback.print_exc()
        elapsed = time.perf_counter() - began
        self.attempted += self.workload.queries
        failures = self.workload.check(outputs) if outputs is not None else ["raised"]
        for failure in failures:
            print(f"perfbench: FAILED {failure}", file=sys.stderr)
        self.failed += min(len(failures), self.workload.queries)
        if tracer is None:
            self.raw_query_s.append(elapsed)
        else:
            self.traced.append((elapsed, tracer, inputs.get("cache")))


def measure(workload, seconds: float, trace: bool) -> Run:
    """Repeat the workload's unit for ``seconds`` (at least once)."""
    from layertrace import LayerTracer

    run = Run(workload)
    targets = layer_targets() if trace else ()
    began = time.perf_counter()
    while True:
        run.unit()
        if trace:
            run.unit(LayerTracer(targets))
        for _ in range(SETUP_REPEATS):
            run.setup()
        if time.perf_counter() - began >= seconds:
            return run


def end_to_end_metrics(run: Run) -> dict:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "query_s": statistics.median(run.query_s),
        "peak_rss_mb": peak_kib / 1024,
        "setup_s": statistics.median(run.setup_s),
    }


def per_layer_metrics(run: Run) -> dict:
    """Layer values of the traced unit with the median traced time."""
    ordered = sorted(run.traced, key=lambda entry: entry[0])
    traced_s, tracer, cache = ordered[(len(ordered) - 1) // 2]
    tracer.scale(run.scale)
    return layer_metrics(
        tracer, traced_s * run.scale, statistics.median(run.query_s), cache
    )


def _git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--catalog-seed", type=int, default=7)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not import_library():
        print(f"perfbench: cannot import the library from {ROOT}/src", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, build_workload

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = build_workload(args.workload, args.catalog_seed, args.smoke)
    run = measure(workload, args.seconds, bool(args.trace))
    if args.trace:
        values, units = per_layer_metrics(run), dict(PER_LAYER)
    else:
        values, units = end_to_end_metrics(run), dict(END_TO_END)
    print(
        f"perfbench: workload={args.workload} seed={args.seed} "
        f"catalog_seed={args.catalog_seed} units={len(run.query_s)} "
        f"raw_query_s={statistics.median(run.raw_query_s)} scale={run.scale} "
        f"nproc={os.cpu_count()} python={platform.python_version()} git={_git_sha()}"
    )
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
