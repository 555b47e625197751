"""Interleaved A/B timing shared by the telemetry overhead scripts.

``bench_live.py`` and ``bench_explain.py`` time one goal-driven workload
(the Brandeis CS major from Fall 2013 to Fall 2015, ``m = 3``, the
paper's Table 1 row) several ways.  Repeats are **interleaved**
(round-robin over the variants) so drift spreads evenly instead of
biasing whichever variant runs last.  Each row reports the median wall
time and its quartiles, and its counters and extras come from its median
run (the lower middle one for an even count); every ``*_vs_off`` ratio
compares medians.  On a shared host the fastest run says more about the
neighbours than about the code.

The scripts import this module by its plain name, so run them as
``python benchmarks/<script>.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.data import brandeis_major_goal
from repro.semester import Term

__all__ = [
    "START",
    "END",
    "DEFAULT_REPEATS",
    "interleaved_rows",
    "overhead",
    "document",
    "cli",
]

START = Term(2013, "Fall")
END = Term(2015, "Fall")
DEFAULT_REPEATS = 3

#: What the untracked variant may cost over the seed engine; reported, as
#: ``disabled_budget``, beside the ratios.
DISABLED_BUDGET = 0.05

#: One timed run: ``(seconds, result, extras)``.
Run = Tuple[float, Any, Dict[str, Any]]


def _quartiles(times: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` of ``times``; a single run is all three."""
    if len(times) < 2:
        return times[0], times[0], times[0]
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return q1, median, q3


def interleaved_rows(
    variants: Sequence[str],
    repeats: int,
    run_variant: Callable[[str], Run],
    counters: Callable[[Any], Dict[str, Any]],
) -> Dict[str, Dict[str, Any]]:
    """Run every variant ``repeats`` times, round-robin, and return one row
    per variant: median and quartile wall seconds, ``repeats``, then
    ``counters(result)`` and the extras of its median run."""
    runs: Dict[str, List[Run]] = {name: [] for name in variants}
    for _ in range(repeats):
        for name in variants:
            runs[name].append(run_variant(name))
    rows: Dict[str, Dict[str, Any]] = {}
    for name in variants:
        ordered = sorted(runs[name], key=lambda run: run[0])
        _elapsed, result, extras = ordered[(len(ordered) - 1) // 2]
        q1, median, q3 = _quartiles([run[0] for run in ordered])
        row: Dict[str, Any] = {
            "wall_seconds_median": median,
            "wall_seconds_q1": q1,
            "wall_seconds_q3": q3,
            "repeats": repeats,
        }
        row.update(counters(result))
        row.update(extras)
        rows[name] = row
    return rows


def overhead(rows: Dict[str, Dict[str, Any]], base: str) -> Dict[str, float]:
    """``<variant>_vs_off`` for every row but ``base`` (its median over
    ``base``'s, minus 1), and the ``disabled_budget``."""
    median = rows[base]["wall_seconds_median"]
    ratios = {
        f"{name}_vs_off": round(row["wall_seconds_median"] / median - 1.0, 4)
        for name, row in rows.items()
        if name != base
    }
    ratios["disabled_budget"] = DISABLED_BUDGET
    return ratios


def document(
    benchmark: str, rows: Dict[str, Dict[str, Any]], ratios: Dict[str, float]
) -> Dict[str, Any]:
    """The JSON snapshot: the workload, the host's Python, and the rows."""
    return {
        "benchmark": benchmark,
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
        "variants": rows,
        "overhead": ratios,
    }


def cli(
    argv: Optional[List[str]],
    description: str,
    default_output: str,
    run_benchmark: Callable[[int], Dict[str, Any]],
) -> Dict[str, Any]:
    """Parse ``--output``/``--repeats``, run, write the snapshot and return
    it for the script's own summary."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--output", metavar="FILE", default=default_output,
        help=f"where to write the JSON snapshot (default {default_output})",
    )
    parser.add_argument(
        "--repeats", type=int, default=DEFAULT_REPEATS,
        help=f"interleaved rounds; medians are reported (default {DEFAULT_REPEATS})",
    )
    args = parser.parse_args(argv)

    snapshot = run_benchmark(args.repeats)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    return snapshot
