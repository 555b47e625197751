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

Each row reports the median wall time and its quartiles, and every
``*_vs_off`` ratio compares medians: on a shared host the fastest run
says more about the neighbours than about the code.  Repeats are
**interleaved** (round-robin over the variants) so drift spreads evenly
instead of biasing whichever variant runs last.  Each row's counters
come from its median run (the lower middle one for an even count).

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
from typing import Dict, List, Optional, Tuple

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


def _quartiles(times: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` of ``times``; a single run is all three."""
    if len(times) < 2:
        return times[0], times[0], times[0]
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return q1, median, q3


def run_benchmark(repeats: int = DEFAULT_REPEATS) -> Dict[str, object]:
    """The full interleaved A/B: returns the ``BENCH_explain.json`` document."""
    catalog = brandeis_catalog()
    runs: Dict[str, List[Tuple[float, object, Dict[str, object]]]] = {
        name: [] for name in VARIANTS
    }
    with tempfile.TemporaryDirectory() as tmp:
        sink_path = os.path.join(tmp, "audit.jsonl")
        for _ in range(repeats):
            for name in VARIANTS:
                runs[name].append(_run_variant(name, catalog, sink_path))

    variants: Dict[str, Dict[str, object]] = {}
    for name in VARIANTS:
        ordered = sorted(runs[name], key=lambda run: run[0])
        _elapsed, result, extras = ordered[(len(ordered) - 1) // 2]
        q1, median, q3 = _quartiles([run[0] for run in ordered])
        row: Dict[str, object] = {
            "wall_seconds_median": median,
            "wall_seconds_q1": q1,
            "wall_seconds_q3": q3,
            "repeats": repeats,
            "paths": result.path_count,
            "nodes": result.graph.num_nodes,
            "pruned_subtrees": result.pruning_stats.total,
            "pruned_by_strategy": result.pruning_stats.as_dict(),
        }
        row.update(extras)
        variants[name] = row

    base = variants["explain_off"]["wall_seconds_median"]
    overhead = {
        f"{name}_vs_off": round(variants[name]["wall_seconds_median"] / base - 1.0, 4)
        for name in VARIANTS
        if name != "explain_off"
    }
    overhead["disabled_budget"] = 0.05
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
        "interleaved": True,
        "variants": variants,
        "overhead": overhead,
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
        help=f"interleaved rounds; medians are reported (default {DEFAULT_REPEATS})",
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
        q1, median, q3 = (
            row[f"wall_seconds_{key}"] * 1000 for key in ("q1", "median", "q3")
        )
        print(
            f"  {name:14} median {median:8.1f} ms  IQR {q1:.1f}-{q3:.1f} ms  "
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
