"""EXPLAIN walkthrough: audit every pruning decision of one exploration.

Run with::

    python examples/explain_pruning.py

Performs a goal-driven run over a four-semester horizon with a
``DecisionRecorder`` attached, streams the decision audit to
``explain_pruning.jsonl``, and then answers the questions the aggregate
counters cannot: which bound cut each subtree (with the actual ``left_i``
/ ``min_i`` / ``m`` values), which cuts were one semester from surviving,
and why a specific course never appeared in a returned path.
"""

import os
import tempfile

from repro import CourseNavigator, DecisionRecorder, ExplainReport, Observability, Term
from repro.obs import JsonlSink, describe_verdict
from repro.data import brandeis_catalog, brandeis_major_goal


def main() -> None:
    audit_path = os.path.join(tempfile.gettempdir(), "explain_pruning.jsonl")
    recorder = DecisionRecorder(sinks=[JsonlSink(audit_path)])
    navigator = CourseNavigator(brandeis_catalog(), obs=Observability(decisions=recorder))
    goal = brandeis_major_goal()
    start, end = Term(2013, "Fall"), Term(2015, "Fall")

    print("=" * 72)
    print("Audited exploration:", goal.describe())
    print("=" * 72)

    result = navigator.explore_goal(start, goal, end)
    recorder.close()
    print(f"{result.path_count:,} goal paths, "
          f"{result.pruning_stats.total:,} subtrees pruned, "
          f"{len(recorder):,} decisions recorded -> {audit_path}")

    report = recorder.report()

    print()
    print("Decision census:")
    for kind, count in sorted(report.counts_by_kind().items()):
        print(f"  {kind:12} {count:8,}")

    print()
    print("Strategy attribution, recomputed from events (Table 1 split):")
    attribution = report.attribution()
    total = sum(attribution.values())
    for strategy, count in sorted(attribution.items(), key=lambda kv: -kv[1]):
        print(f"  {strategy:14} {count:8,}  {count / total:6.1%}")
    assert attribution == result.pruning_stats.as_dict()
    print("  (matches the run's aggregate PruningStats exactly)")

    print()
    print("One pruned decision, with its evidence and lineage:")
    event = report.pruned()[0]
    for step in report.lineage(event.node_id):
        selection = ", ".join(step.selection) or "(start)"
        print(f"  {step.kind:8} node {step.node_id} [{step.term}] {{{selection}}}")
    for verdict in event.verdicts:
        print(f"    {describe_verdict(verdict)}")

    print()
    print("Near misses (cuts within 1 of surviving the bound):")
    for miss in report.near_misses(max_slack=1.0, limit=3):
        print(f"  node {miss.node_id} [{miss.term}] by {miss.strategy}: "
              f"{describe_verdict(miss.firing_verdict)}")

    print()
    course = "COSI 118a"
    print(f"Why-not query for {course}:")
    print(report.why_not(course).render(limit=3))

    # the JSONL audit rebuilds the identical report offline
    offline = ExplainReport.from_jsonl(audit_path)
    assert offline.attribution() == report.attribution()
    print()
    print(f"offline reload of {audit_path}: "
          f"{len(offline.events):,} events, attribution matches")


if __name__ == "__main__":
    main()
