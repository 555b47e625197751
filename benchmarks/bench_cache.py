"""Cache cold/warm A/B benchmark → ``BENCH_cache.json``.

Runs the Table 2 scalability workload (the Brandeis CS major,
``--semesters`` terms back from Fall 2015, m = 3) three ways:

* ``uncached`` — the goal as built, no memo;
* ``cold`` — the goal wrapped by a fresh
  :class:`~repro.cache.ExplorationCache` per run (first-query cost: the
  memo misses, then fills);
* ``warm`` — one shared cache, pre-warmed by an untimed run (the
  steady interactive state: the same student re-running a query).

Every run builds a **fresh goal object** and wraps it with
``cache.wrap_goal(goal)``, as a library caller does: ``DegreeGoal`` keeps
a private seat memo per instance, and reusing one goal across repeats
would hand the uncached variant a warm one and blur the comparison.  Repeats are interleaved (round-robin) so thermal drift
spreads evenly, and every variant's path count is asserted equal: the
cache must buy time, never answers.

.. code-block:: console

    PYTHONPATH=src python benchmarks/bench_cache.py
    PYTHONPATH=src python benchmarks/bench_cache.py --semesters 4 --repeats 5

Budget: the warm-vs-uncached speedup must be at least 1.5× (recorded in
the output as ``speedup_budget``); cold overhead is reported, not
bounded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.cache import ExplorationCache
from repro.core import ExplorationConfig, generate_goal_driven
from repro.data import (
    EVALUATION_END_TERM,
    brandeis_catalog,
    brandeis_major_goal,
    start_term_for_semesters,
)

__all__ = ["run_benchmark", "main"]

DEFAULT_SEMESTERS = 5
DEFAULT_REPEATS = 3
DEFAULT_OUTPUT = "BENCH_cache.json"
VARIANTS = ("uncached", "cold", "warm")


def _timed_run(
    catalog, start, config, cache: Optional[ExplorationCache]
) -> Tuple[float, object]:
    goal = brandeis_major_goal()  # fresh: no internal seats memo carry-over
    if cache is not None:
        goal = cache.wrap_goal(goal)
    begin = time.perf_counter()
    result = generate_goal_driven(catalog, start, goal, EVALUATION_END_TERM, config=config)
    return time.perf_counter() - begin, result


def _flow_snapshot(cache: ExplorationCache) -> Tuple[int, int]:
    return cache.flow.hits, cache.flow.misses


def run_benchmark(
    semesters: int = DEFAULT_SEMESTERS, repeats: int = DEFAULT_REPEATS
) -> Dict[str, object]:
    """The full interleaved A/B: returns the ``BENCH_cache.json`` document."""
    catalog = brandeis_catalog()
    start = start_term_for_semesters(semesters)
    config = ExplorationConfig(max_courses_per_term=3)

    shared = ExplorationCache()
    _timed_run(catalog, start, config, shared)  # untimed pre-warm

    times: Dict[str, List[float]] = {name: [] for name in VARIANTS}
    path_counts: Dict[str, int] = {}
    warm_hit_rates: List[float] = []

    for _ in range(repeats):
        for name in VARIANTS:
            if name == "uncached":
                cache: Optional[ExplorationCache] = None
            elif name == "cold":
                cache = ExplorationCache()
            else:
                cache = shared
            before = _flow_snapshot(cache) if name == "warm" else (0, 0)
            elapsed, result = _timed_run(catalog, start, config, cache)
            times[name].append(elapsed)
            if name == "warm":
                hits = cache.flow.hits - before[0]
                misses = cache.flow.misses - before[1]
                total = hits + misses
                warm_hit_rates.append(hits / total if total else 0.0)
            previous = path_counts.setdefault(name, result.path_count)
            if previous != result.path_count:
                raise AssertionError(
                    f"{name} path count drifted: {previous} != {result.path_count}"
                )

    counts = set(path_counts.values())
    if len(counts) != 1:
        raise AssertionError(f"variants disagree on path count: {path_counts}")

    variants: Dict[str, Dict[str, object]] = {}
    for name in VARIANTS:
        variants[name] = {
            "wall_seconds_best": min(times[name]),
            "wall_seconds_mean": statistics.mean(times[name]),
            "repeats": repeats,
            "paths": path_counts[name],
        }
    variants["warm"]["flow_hit_rate"] = round(max(warm_hit_rates), 4)

    uncached_best = variants["uncached"]["wall_seconds_best"]
    warm_speedup = uncached_best / variants["warm"]["wall_seconds_best"]
    cold_speedup = uncached_best / variants["cold"]["wall_seconds_best"]
    return {
        "benchmark": "cache_acceleration",
        "workload": {
            "catalog": "brandeis",
            "goal": brandeis_major_goal().describe(),
            "semesters": semesters,
            "start": str(start),
            "end": str(EVALUATION_END_TERM),
            "max_courses_per_term": 3,
        },
        "unix_time": time.time(),
        "python": sys.version.split()[0],
        "interleaved": True,
        "variants": variants,
        "speedup": {
            "warm_vs_uncached": round(warm_speedup, 3),
            "cold_vs_uncached": round(cold_speedup, 3),
        },
        "speedup_budget": 1.5,
        "shared_cache_stats": shared.stats(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="measure cache cold/warm speedup on the Table 2 workload"
    )
    parser.add_argument(
        "--output", metavar="FILE", default=DEFAULT_OUTPUT,
        help=f"where to write the JSON snapshot (default {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--semesters", type=int, default=DEFAULT_SEMESTERS,
        help=f"horizon length in terms (default {DEFAULT_SEMESTERS})",
    )
    parser.add_argument(
        "--repeats", type=int, default=DEFAULT_REPEATS,
        help=f"interleaved rounds; best-of is reported (default {DEFAULT_REPEATS})",
    )
    args = parser.parse_args(argv)

    document = run_benchmark(semesters=args.semesters, repeats=args.repeats)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")

    variants = document["variants"]
    speedup = document["speedup"]
    print(f"wrote {args.output}")
    for name in VARIANTS:
        row = variants[name]
        note = ""
        if "flow_hit_rate" in row:
            note = f", flow hit rate {row['flow_hit_rate']:.1%}"
        print(
            f"  {name:9} best {row['wall_seconds_best']*1000:8.1f} ms  "
            f"mean {row['wall_seconds_mean']*1000:8.1f} ms  "
            f"({row['paths']} paths{note})"
        )
    print(
        f"  speedup: warm {speedup['warm_vs_uncached']:.2f}x, "
        f"cold {speedup['cold_vs_uncached']:.2f}x "
        f"(budget ≥ {document['speedup_budget']:.1f}x warm)"
    )
    if speedup["warm_vs_uncached"] < document["speedup_budget"]:
        print("  WARNING: warm speedup below budget", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
