"""Explain-overhead benchmark → ``BENCH_explain.json``.

Runs a fixed goal-driven workload (the Brandeis CS major over a
4-semester horizon, the paper's Table 1 row) three ways:

* ``explain_off`` — the uninstrumented engine (the no-op fast path);
* ``explain_on`` — a :class:`~repro.obs.DecisionRecorder` buffering
  every decision in memory;
* ``explain_jsonl`` — the recorder streaming events to a JSONL sink.

and writes a machine-readable snapshot (wall-times, node/prune/path
counts, decision volume, and the on-vs-off overhead ratio) so the repo's
perf trajectory can be tracked commit over commit:

.. code-block:: console

    PYTHONPATH=src python benchmarks/bench_explain.py
    PYTHONPATH=src python benchmarks/bench_explain.py --output /tmp/b.json

Budget: the *disabled* path must stay within 5% of the seed engine —
recording is opt-in, so ``explain_off`` here *is* the disabled path and
its absolute time is the trajectory to watch.  The enabled overhead is
reported, not bounded (documented in ``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional

from repro.core import ExplorationConfig
from repro.data import brandeis_catalog, brandeis_major_goal
from repro.obs import DecisionRecorder, JsonlSink, Observability
from repro.semester import Term
from repro.system import CourseNavigator

__all__ = ["run_benchmark", "main"]

START = Term(2013, "Fall")
END = Term(2015, "Fall")
DEFAULT_REPEATS = 3
DEFAULT_OUTPUT = "BENCH_explain.json"


def _time_runs(make_navigator: Callable[[], CourseNavigator],
               repeats: int) -> Dict[str, object]:
    """Run the fixed workload ``repeats`` times; keep the best wall-time
    (least-noise estimator) plus the mean, and the final run's counters."""
    goal = brandeis_major_goal()
    config = ExplorationConfig(max_courses_per_term=3)
    times: List[float] = []
    result = None
    for _ in range(repeats):
        navigator = make_navigator()
        begin = time.perf_counter()
        result = navigator.explore_goal(START, goal, END, config=config)
        times.append(time.perf_counter() - begin)
    assert result is not None
    return {
        "wall_seconds_best": min(times),
        "wall_seconds_mean": statistics.mean(times),
        "repeats": repeats,
        "paths": result.path_count,
        "nodes": result.graph.num_nodes,
        "pruned_subtrees": result.pruning_stats.total,
        "pruned_by_strategy": result.pruning_stats.as_dict(),
    }


def run_benchmark(repeats: int = DEFAULT_REPEATS) -> Dict[str, object]:
    """The full A/B: returns the ``BENCH_explain.json`` document."""
    catalog = brandeis_catalog()

    off = _time_runs(lambda: CourseNavigator(catalog), repeats)

    recorders: List[DecisionRecorder] = []

    def _with_recorder() -> CourseNavigator:
        recorder = DecisionRecorder()
        recorders.append(recorder)
        return CourseNavigator(catalog, obs=Observability(decisions=recorder))

    on = _time_runs(_with_recorder, repeats)
    on["decisions_recorded"] = len(recorders[-1])

    with tempfile.TemporaryDirectory() as tmp:
        sink_path = os.path.join(tmp, "audit.jsonl")
        streamed = _time_runs(
            lambda: CourseNavigator(
                catalog,
                obs=Observability(
                    decisions=DecisionRecorder(
                        sinks=[JsonlSink(sink_path)], keep_events=False
                    )
                ),
            ),
            repeats,
        )
        streamed["jsonl_bytes"] = os.path.getsize(sink_path)

    overhead_on = on["wall_seconds_best"] / off["wall_seconds_best"] - 1.0
    overhead_jsonl = streamed["wall_seconds_best"] / off["wall_seconds_best"] - 1.0
    return {
        "benchmark": "explain_overhead",
        "workload": {
            "catalog": "brandeis",
            "goal": brandeis_major_goal().describe(),
            "start": str(START),
            "end": str(END),
            "max_courses_per_term": 3,
        },
        "unix_time": time.time(),
        "python": sys.version.split()[0],
        "variants": {
            "explain_off": off,
            "explain_on": on,
            "explain_jsonl": streamed,
        },
        "overhead": {
            "explain_on_vs_off": round(overhead_on, 4),
            "explain_jsonl_vs_off": round(overhead_jsonl, 4),
            "disabled_budget": 0.05,
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="measure explain-recording overhead on the Table 1 workload"
    )
    parser.add_argument(
        "--output", metavar="FILE", default=DEFAULT_OUTPUT,
        help=f"where to write the JSON snapshot (default {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--repeats", type=int, default=DEFAULT_REPEATS,
        help=f"runs per variant; best-of is reported (default {DEFAULT_REPEATS})",
    )
    args = parser.parse_args(argv)

    document = run_benchmark(repeats=args.repeats)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")

    variants = document["variants"]
    overhead = document["overhead"]
    print(f"wrote {args.output}")
    for name in ("explain_off", "explain_on", "explain_jsonl"):
        row = variants[name]
        print(
            f"  {name:14} best {row['wall_seconds_best']*1000:8.1f} ms  "
            f"mean {row['wall_seconds_mean']*1000:8.1f} ms  "
            f"({row['paths']} paths, {row['pruned_subtrees']} pruned)"
        )
    print(
        f"  overhead: on {overhead['explain_on_vs_off']:+.1%}, "
        f"jsonl {overhead['explain_jsonl_vs_off']:+.1%} "
        f"(disabled budget {overhead['disabled_budget']:.0%})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
