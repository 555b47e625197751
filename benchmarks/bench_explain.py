"""Explain-overhead benchmark → ``BENCH_explain.json``.

Runs a fixed goal-driven workload (the Brandeis CS major over a
4-semester horizon, the paper's Table 1 row) three ways:

* ``explain_off`` — the uninstrumented engine (the no-op fast path);
* ``explain_on`` — a :class:`~repro.obs.DecisionRecorder` buffering
  every decision in memory;
* ``explain_jsonl`` — the recorder streaming events to a JSONL sink.

and writes a machine-readable snapshot (wall-times, node/prune/path
counts, decision volume, and the on-vs-off overhead ratios) so the
repo's perf trajectory can be tracked commit over commit.

Rounds are interleaved and rows are medians with quartiles, as
``ab_harness.py`` describes; every ``*_vs_off`` ratio compares medians.

.. code-block:: console

    PYTHONPATH=src python benchmarks/bench_explain.py
    PYTHONPATH=src python benchmarks/bench_explain.py --output /tmp/b.json

Budget: the *disabled* path must stay within 5% of the seed engine —
recording is opt-in, so ``explain_off`` here *is* the disabled path and
its absolute time is the trajectory to watch.  The enabled overhead is
reported, not bounded (documented in ``docs/observability.md``).
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

from ab_harness import DEFAULT_REPEATS, END, START, cli, document, interleaved_rows, overhead
from repro.core import ExplorationConfig
from repro.data import brandeis_catalog, brandeis_major_goal
from repro.obs import DecisionRecorder, JsonlSink, Observability
from repro.system import CourseNavigator

__all__ = ["run_benchmark", "main"]

DEFAULT_OUTPUT = "BENCH_explain.json"
VARIANTS = ("explain_off", "explain_on", "explain_jsonl")


def _run_variant(name: str, catalog, sink_path: str) -> Tuple[float, object, Dict[str, object]]:
    """One timed run of ``name``; returns (seconds, result, extras)."""
    recorder = None
    if name == "explain_on":
        recorder = DecisionRecorder()
    elif name == "explain_jsonl":
        recorder = DecisionRecorder(sinks=[JsonlSink(sink_path)], keep_events=False)
    obs = Observability(decisions=recorder) if recorder is not None else None
    navigator = CourseNavigator(catalog, obs=obs)
    config = ExplorationConfig(max_courses_per_term=3)
    goal = brandeis_major_goal()
    begin = time.perf_counter()
    result = navigator.explore_goal(START, goal, END, config=config)
    elapsed = time.perf_counter() - begin
    extras: Dict[str, object] = {}
    if name == "explain_on":
        extras["decisions_recorded"] = len(recorder)
    elif name == "explain_jsonl":
        recorder.close()
        extras["jsonl_bytes"] = os.path.getsize(sink_path)
    return elapsed, result, extras


def run_benchmark(repeats: int = DEFAULT_REPEATS) -> Dict[str, object]:
    """The full interleaved A/B: returns the ``BENCH_explain.json`` document."""
    catalog = brandeis_catalog()
    with tempfile.TemporaryDirectory() as tmp:
        sink_path = os.path.join(tmp, "audit.jsonl")
        variants = interleaved_rows(
            VARIANTS,
            repeats,
            lambda name: _run_variant(name, catalog, sink_path),
            lambda result: {
                "paths": result.path_count,
                "nodes": result.graph.num_nodes,
                "pruned_subtrees": result.pruning_stats.total,
                "pruned_by_strategy": result.pruning_stats.as_dict(),
            },
        )
    return document("explain_overhead", variants, overhead(variants, "explain_off"))


def main(argv: Optional[List[str]] = None) -> int:
    snapshot = cli(
        argv,
        "measure explain-recording overhead on the Table 1 workload",
        DEFAULT_OUTPUT,
        run_benchmark,
    )
    variants = snapshot["variants"]
    ratios = snapshot["overhead"]
    for name in VARIANTS:
        row = variants[name]
        q1, median, q3 = (
            row[f"wall_seconds_{key}"] * 1000 for key in ("q1", "median", "q3")
        )
        print(
            f"  {name:14} median {median:8.1f} ms  IQR {q1:.1f}-{q3:.1f} ms  "
            f"({row['paths']} paths, {row['pruned_subtrees']} pruned)"
        )
    print(
        f"  overhead: on {ratios['explain_on_vs_off']:+.1%}, "
        f"jsonl {ratios['explain_jsonl_vs_off']:+.1%} "
        f"(disabled budget {ratios['disabled_budget']:.0%})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
