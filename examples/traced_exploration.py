"""Observability walkthrough: trace, meter, and profile an exploration.

Run with::

    python examples/traced_exploration.py

Performs a goal-driven run and a ranked run over a four-semester horizon
with the full observability stack attached, then shows the three outputs:
the span trace (written to ``traced_exploration.jsonl``), the per-phase
time breakdown, and the Prometheus metrics exposition.
"""

import json
import os
import tempfile

from repro import CourseNavigator, MetricsRegistry, Observability, Term, Tracer
from repro.obs import JsonlSink
from repro.data import brandeis_catalog, brandeis_major_goal


def main() -> None:
    trace_path = os.path.join(tempfile.gettempdir(), "traced_exploration.jsonl")
    tracer = Tracer(sinks=[JsonlSink(trace_path)])
    metrics = MetricsRegistry()
    navigator = CourseNavigator(
        brandeis_catalog(),
        obs=Observability(tracer=tracer, metrics=metrics, capture_memory=True),
    )
    goal = brandeis_major_goal()
    start, end = Term(2013, "Fall"), Term(2015, "Fall")

    print("=" * 72)
    print("Instrumented exploration:", goal.describe())
    print("=" * 72)

    result = navigator.explore_goal(start, goal, end)
    print(f"goal-driven: {result.path_count:,} goal paths, "
          f"{result.stats.nodes_created:,} nodes "
          f"({result.stats.elapsed_seconds:.2f}s)")

    ranked = navigator.explore_ranked(start, goal, end, k=3, ranking="time")
    print(f"ranked:      top-{len(ranked.paths)} in "
          f"{ranked.stats.elapsed_seconds:.2f}s")
    tracer.close()

    obs = navigator.observability
    print()
    print("Per-phase time breakdown (inclusive, both runs):")
    print(obs.phases.render(indent="  "))
    if obs.last_memory is not None:
        print(f"  peak memory (last run): {obs.last_memory.peak_kib:,.0f} KiB")

    print()
    print(f"Span trace written to {trace_path}:")
    with open(trace_path, "r", encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    roots = [r for r in records if r["parent_id"] is None]
    print(f"  {len(records):,} spans, roots: {[r['name'] for r in roots]}")
    slowest = max(records, key=lambda r: r["duration"])
    print(f"  slowest span: {slowest['name']} ({slowest['duration']:.3f}s)")
    by_name = {}
    for record in records:
        by_name.setdefault(record["name"], []).append(record["duration"])
    for name in sorted(by_name, key=lambda n: -sum(by_name[n]))[:6]:
        durations = by_name[name]
        print(f"    {name:22} x{len(durations):<6,} {sum(durations):8.3f}s total")

    print()
    print("Prometheus exposition (counters only, histograms omitted):")
    for line in metrics.render_prometheus().splitlines():
        if line.startswith("repro_") and "_bucket" not in line \
                and "duration_seconds" not in line:
            print("  " + line)


if __name__ == "__main__":
    main()
