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
  contention from snapshot assembly on every scrape).  As with the CLI's
  ``--serve-metrics``, the registry is attached to the run too, so the
  run also times its phases.

Rounds are interleaved and rows are medians with quartiles, as
``ab_harness.py`` describes; every ``*_vs_off`` ratio compares medians.

How many scrapes land inside a run varies from run to run, so the
exporter row reports ``scrapes_during_run`` and, beside it,
``extra_ms_per_scrape``: its median milliseconds over the
``progress_only`` median, divided by its median run's scrapes (the fixed
cost of phase timing is spread over the scrapes too).

.. code-block:: console

    PYTHONPATH=src python benchmarks/bench_live.py
    PYTHONPATH=src python benchmarks/bench_live.py --output /tmp/b.json

Budget: the *disabled* path must stay within 5% of the seed engine —
live telemetry is opt-in, so ``live_off`` here *is* the disabled path
and its absolute time is the trajectory to watch.  The enabled overheads
are reported, not bounded (documented in ``docs/observability.md``).
"""

from __future__ import annotations

import sys
import threading
import time
import urllib.request
from typing import Dict, List, Optional, Tuple

from ab_harness import DEFAULT_REPEATS, END, START, cli, document, interleaved_rows, overhead
from repro.core import ExplorationConfig
from repro.data import brandeis_catalog, brandeis_major_goal
from repro.obs import MetricsRegistry, MetricsServer, Observability, ProgressTracker
from repro.system import CourseNavigator

__all__ = ["run_benchmark", "main"]

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
        navigator = CourseNavigator(catalog, obs=Observability(progress=tracker))
        elapsed, result = _timed_run(navigator)
        extras["generations"] = tracker.generation
        return elapsed, result, extras
    if name == "progress_budget":
        # Every node pays the checks; none ever fails them.
        navigator = CourseNavigator(
            catalog, obs=Observability(progress=ProgressTracker())
        )
        elapsed, result = _timed_run(navigator, **GENEROUS_LIMITS)
        return elapsed, result, extras
    if name == "progress_exporter":
        registry = MetricsRegistry()
        tracker = ProgressTracker()
        navigator = CourseNavigator(
            catalog, obs=Observability(metrics=registry, progress=tracker)
        )
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
    variants = interleaved_rows(
        VARIANTS,
        repeats,
        lambda name: _run_variant(name, catalog),
        lambda result: {
            "paths": result.path_count,
            "nodes": result.graph.num_nodes,
            "pruned_subtrees": result.pruning_stats.total,
        },
    )

    exporter = variants["progress_exporter"]
    scrapes = exporter["scrapes_during_run"]
    extra = (
        exporter["wall_seconds_median"]
        - variants["progress_only"]["wall_seconds_median"]
    )
    exporter["extra_ms_per_scrape"] = (
        round(extra * 1000 / scrapes, 3) if scrapes else None
    )

    return document("live_telemetry_overhead", variants, overhead(variants, "live_off"))


def main(argv: Optional[List[str]] = None) -> int:
    snapshot = cli(
        argv,
        "measure live-telemetry overhead on the Table 1 workload",
        DEFAULT_OUTPUT,
        run_benchmark,
    )
    variants = snapshot["variants"]
    ratios = snapshot["overhead"]
    for name in VARIANTS:
        row = variants[name]
        note = ""
        if "scrapes_during_run" in row:
            note = f", {row['scrapes_during_run']} scrapes"
            if row["extra_ms_per_scrape"] is not None:
                note += f", {row['extra_ms_per_scrape']:+.2f} ms/scrape"
        q1, median, q3 = (
            row[f"wall_seconds_{key}"] * 1000 for key in ("q1", "median", "q3")
        )
        print(
            f"  {name:18} median {median:8.1f} ms  IQR {q1:.1f}-{q3:.1f} ms  "
            f"({row['paths']} paths{note})"
        )
    print(
        "  overhead: "
        + ", ".join(
            f"{name.replace('_vs_off', '')} {ratios[name]:+.1%}"
            for name in sorted(ratios)
            if name.endswith("_vs_off")
        )
        + f" (disabled budget {ratios['disabled_budget']:.0%})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
