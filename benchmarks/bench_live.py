"""Live-telemetry overhead benchmark → ``BENCH_live.json``.

Runs the fixed goal-driven workload (the Brandeis CS major over a
4-semester horizon, the paper's Table 1 row) four ways:

* ``live_off`` — the uninstrumented engine (the no-op fast path);
* ``progress_only`` — a :class:`~repro.obs.ProgressTracker` fed by the
  generator (one lock acquisition per recorded event);
* ``progress_budget`` — tracker plus generous run limits
  (:class:`~repro.core.ExplorationConfig`'s ``max_nodes``,
  ``max_wall_seconds``, ``max_memory_bytes``), so every node pays the
  cancellation, wall-clock and memory-probe checks without ever failing
  them;
* ``progress_exporter`` — tracker plus a live
  :class:`~repro.obs.MetricsServer` being scraped continuously from
  another thread while the run goes (the worst realistic case: lock
  contention from snapshot assembly on every scrape).

Repeats are **interleaved** (round-robin over the variants) so thermal
drift and allocator state spread evenly instead of biasing whichever
variant runs last.

.. code-block:: console

    PYTHONPATH=src python benchmarks/bench_live.py
    PYTHONPATH=src python benchmarks/bench_live.py --output /tmp/b.json

Budget: the *disabled* path must stay within 5% of the seed engine —
live telemetry is opt-in, so ``live_off`` here *is* the disabled path
and its absolute time is the trajectory to watch.  The enabled overheads
are reported, not bounded (documented in ``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import threading
import time
import urllib.request
from typing import Dict, List, Optional, Tuple

from repro.core import ExplorationConfig
from repro.data import brandeis_catalog, brandeis_major_goal
from repro.obs import MetricsRegistry, MetricsServer, ProgressTracker
from repro.semester import Term
from repro.system import CourseNavigator

__all__ = ["run_benchmark", "main"]

START = Term(2013, "Fall")
END = Term(2015, "Fall")
DEFAULT_REPEATS = 3
DEFAULT_OUTPUT = "BENCH_live.json"
VARIANTS = ("live_off", "progress_only", "progress_budget", "progress_exporter")


#: Limits that never fire on this workload.
GENEROUS_LIMITS = {
    "max_nodes": 10**9,
    "max_wall_seconds": 3600.0,
    "max_memory_bytes": 1 << 40,
}


def _timed_run(navigator: CourseNavigator, **limits) -> Tuple[float, object]:
    goal = brandeis_major_goal()
    config = ExplorationConfig(max_courses_per_term=3, **limits)
    begin = time.perf_counter()
    result = navigator.explore_goal(START, goal, END, config=config)
    return time.perf_counter() - begin, result


def _run_variant(name: str, catalog) -> Tuple[float, object, Dict[str, object]]:
    """One timed run of ``name``; returns (seconds, result, extras)."""
    extras: Dict[str, object] = {}
    if name == "live_off":
        return (*_timed_run(CourseNavigator(catalog)), extras)
    if name == "progress_only":
        tracker = ProgressTracker()
        elapsed, result = _timed_run(CourseNavigator(catalog, progress=tracker))
        extras["generations"] = tracker.generation
        return elapsed, result, extras
    if name == "progress_budget":
        # Every node pays the checks; none ever fails them.
        navigator = CourseNavigator(catalog, progress=ProgressTracker())
        elapsed, result = _timed_run(navigator, **GENEROUS_LIMITS)
        return elapsed, result, extras
    if name == "progress_exporter":
        registry = MetricsRegistry()
        tracker = ProgressTracker()
        navigator = CourseNavigator(catalog, metrics=registry, progress=tracker)
        scrapes = [0]
        stop = threading.Event()

        def scraper(url: str) -> None:
            while not stop.is_set():
                with urllib.request.urlopen(url + "/metrics", timeout=5) as r:
                    r.read()
                with urllib.request.urlopen(url + "/progress", timeout=5) as r:
                    r.read()
                scrapes[0] += 1

        with MetricsServer(registry=registry, progress=tracker) as server:
            thread = threading.Thread(target=scraper, args=(server.url,),
                                      daemon=True)
            thread.start()
            elapsed, result = _timed_run(navigator)
            stop.set()
            thread.join()
        extras["scrapes_during_run"] = scrapes[0]
        return elapsed, result, extras
    raise ValueError(f"unknown variant {name!r}")


def run_benchmark(repeats: int = DEFAULT_REPEATS) -> Dict[str, object]:
    """The full interleaved A/B: returns the ``BENCH_live.json`` document."""
    catalog = brandeis_catalog()
    times: Dict[str, List[float]] = {name: [] for name in VARIANTS}
    last: Dict[str, Tuple[object, Dict[str, object]]] = {}

    for _ in range(repeats):
        for name in VARIANTS:
            elapsed, result, extras = _run_variant(name, catalog)
            times[name].append(elapsed)
            last[name] = (result, extras)

    variants: Dict[str, Dict[str, object]] = {}
    for name in VARIANTS:
        result, extras = last[name]
        row: Dict[str, object] = {
            "wall_seconds_best": min(times[name]),
            "wall_seconds_mean": statistics.mean(times[name]),
            "repeats": repeats,
            "paths": result.path_count,
            "nodes": result.graph.num_nodes,
            "pruned_subtrees": result.pruning_stats.total,
        }
        row.update(extras)
        variants[name] = row

    base = variants["live_off"]["wall_seconds_best"]
    overhead = {
        f"{name}_vs_off": round(variants[name]["wall_seconds_best"] / base - 1.0, 4)
        for name in VARIANTS
        if name != "live_off"
    }
    overhead["disabled_budget"] = 0.05
    return {
        "benchmark": "live_telemetry_overhead",
        "workload": {
            "catalog": "brandeis",
            "goal": brandeis_major_goal().describe(),
            "start": str(START),
            "end": str(END),
            "max_courses_per_term": 3,
        },
        "unix_time": time.time(),
        "python": sys.version.split()[0],
        "interleaved": True,
        "variants": variants,
        "overhead": overhead,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="measure live-telemetry overhead on the Table 1 workload"
    )
    parser.add_argument(
        "--output", metavar="FILE", default=DEFAULT_OUTPUT,
        help=f"where to write the JSON snapshot (default {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--repeats", type=int, default=DEFAULT_REPEATS,
        help=f"interleaved rounds; best-of is reported (default {DEFAULT_REPEATS})",
    )
    args = parser.parse_args(argv)

    document = run_benchmark(repeats=args.repeats)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")

    variants = document["variants"]
    overhead = document["overhead"]
    print(f"wrote {args.output}")
    for name in VARIANTS:
        row = variants[name]
        note = ""
        if "scrapes_during_run" in row:
            note = f", {row['scrapes_during_run']} scrapes"
        print(
            f"  {name:18} best {row['wall_seconds_best']*1000:8.1f} ms  "
            f"mean {row['wall_seconds_mean']*1000:8.1f} ms  "
            f"({row['paths']} paths{note})"
        )
    print(
        "  overhead: "
        + ", ".join(
            f"{name.replace('_vs_off', '')} {overhead[name]:+.1%}"
            for name in sorted(overhead)
            if name.endswith("_vs_off")
        )
        + f" (disabled budget {overhead['disabled_budget']:.0%})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
