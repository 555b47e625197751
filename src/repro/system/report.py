"""Exploration reports — one document per exploration run.

A deployed CourseNavigator doesn't hand a student a raw path list; it
renders a report: the question asked, the headline numbers, the best
plans, how the engine got there (pruning effectiveness, graph shape), and
caveats.  :func:`build_goal_report` assembles exactly that from a
goal-driven result plus an optional ranked result, as plain text that
drops into an email, a terminal, or a ``<pre>`` block.
"""

from __future__ import annotations

from typing import List, Optional

from typing import Any, Dict

from ..analysis.metrics import branching_profile
from ..analysis.statistics import summarize_paths
from ..catalog import Catalog
from ..core import ExplorationConfig, GoalDrivenResult, RankedResult
from ..obs import ExplainReport, Observability, describe_verdict
from ..requirements import Goal, progress_report
from ..semester import Term
from .visualizer import render_path

__all__ = ["build_goal_report", "build_explain_report", "explain_report_dict"]

_RULE = "=" * 72


def _section(title: str) -> List[str]:
    return [_RULE, title, _RULE]


def build_goal_report(
    catalog: Catalog,
    goal: Goal,
    start_term: Term,
    end_term: Term,
    result: GoalDrivenResult,
    ranked: Optional[RankedResult] = None,
    config: Optional[ExplorationConfig] = None,
    max_listed_plans: int = 3,
    obs: Optional[Observability] = None,
) -> str:
    """Render a complete text report for one goal exploration.

    Parameters
    ----------
    result:
        The goal-driven run to report on.
    ranked:
        Optional ranked result to feature as "recommended plans"; without
        it the report lists the first few generated paths instead.
    config:
        The configuration used (echoed into the report header).
    obs:
        The :class:`~repro.obs.Observability` bundle the runs reported
        into, if any; adds a per-phase timing section when phases were
        timed, and the peak-memory figure whenever it was captured.
    """
    config = config or ExplorationConfig()
    lines: List[str] = []

    lines += _section("CourseNavigator exploration report")
    lines.append(f"goal:        {goal.describe()}")
    lines.append(f"horizon:     {start_term}  ->  {end_term} "
                 f"({end_term - start_term} semesters)")
    lines.append(f"constraints: max {config.max_courses_per_term} courses/term"
                 + (f", avoiding {', '.join(sorted(config.avoid_courses))}"
                    if config.avoid_courses else ""))
    for constraint in config.constraints:
        lines.append(f"             {constraint.describe()}")

    lines.append("")
    lines += _section("Headline")
    start_completed = result.graph.status(result.graph.root_id).completed
    audit = progress_report(goal, start_completed)
    lines.append(audit.describe())
    lines.append("")
    lines.append(f"{result.path_count:,} learning paths satisfy the goal by "
                 f"{end_term}.")
    lines.append(
        f"exploration: {result.stats.nodes_created:,} statuses in "
        f"{result.stats.elapsed_seconds:.2f}s; "
        f"{result.pruning_stats.total:,} subtrees pruned "
        f"(time {result.pruning_stats.share('time'):.0%}, "
        f"availability {result.pruning_stats.share('availability'):.0%})"
    )

    if result.path_count:
        lines.append("")
        lines += _section("Path-set profile")
        summary = summarize_paths(result.paths(), catalog)
        lines.append(
            f"lengths {summary.min_length}-{summary.max_length} semesters "
            f"(mean {summary.mean_length:.1f}); workloads "
            f"{summary.min_workload:.0f}-{summary.max_workload:.0f}h "
            f"(mean {summary.mean_workload:.0f}h)"
        )
        common = ", ".join(
            f"{course} ({count})" for course, count in summary.most_common_courses(5)
        )
        lines.append(f"most common courses: {common}")

    lines.append("")
    lines += _section("Recommended plans")
    if ranked is not None and ranked.paths:
        for rank, (cost, path) in enumerate(ranked.ranked()[:max_listed_plans], 1):
            lines.append(f"[{rank}] {ranked.ranking.name} cost {cost:g}")
            lines.append(render_path(path, catalog=catalog, indent="    "))
    elif result.path_count:
        for index, path in enumerate(result.paths()):
            if index >= max_listed_plans:
                break
            lines.append(f"[{index + 1}]")
            lines.append(render_path(path, catalog=catalog, indent="    "))
    else:
        lines.append("(no satisfying plans — consider a later deadline, a higher")
        lines.append(" per-term cap, or dropping a constraint)")

    lines.append("")
    lines += _section("Engine detail (per-term branching)")
    for row in branching_profile(result.graph, config.max_courses_per_term):
        lines.append("  " + row.describe())

    if obs is not None and (obs.phases or obs.last_memory is not None):
        lines.append("")
        lines += _section("Engine detail (phase timing, inclusive)")
        lines.append(obs.phases.render(indent="  "))
        if obs.last_memory is not None:
            lines.append(f"  peak memory     {obs.last_memory.peak_kib:,.0f} KiB "
                         f"(tracemalloc, last run)")

    return "\n".join(lines) + "\n"


def _render_decision(report: ExplainReport, event, indent: str = "  ") -> List[str]:
    """The per-node audit lines: where the node sits and every consulted
    strategy's evidence (the firing one last, per first-fires-wins)."""
    selection = ", ".join(event.selection) or "(start)"
    lines = [
        f"{indent}node {event.node_id} [{event.term}] after {{{selection}}} — "
        f"pruned by {event.strategy} "
        f"({len(event.completed)} courses completed, depth {len(report.lineage(event.node_id)) - 1})"
    ]
    for verdict in event.verdicts:
        lines.append(f"{indent}    {describe_verdict(verdict)}")
    return lines


def build_explain_report(
    report: ExplainReport,
    goal: Optional[Goal] = None,
    start_term: Optional[Term] = None,
    end_term: Optional[Term] = None,
    max_pruned: int = 8,
    why: Optional[str] = None,
) -> str:
    """Render the decision-audit report for one explain-recorded run.

    Sections: the decision census, the per-strategy attribution table
    (the Table 1 split recomputed from events), the pruned-decision detail
    with each cut's firing strategy and bound values, the near-misses, and
    — when ``why`` names a course — the "why was X never returned?"
    answer.
    """
    lines: List[str] = []
    lines += _section("CourseNavigator explain report (decision audit)")
    if goal is not None:
        lines.append(f"goal:    {goal.describe()}")
    if start_term is not None and end_term is not None:
        lines.append(f"horizon: {start_term}  ->  {end_term} "
                     f"({end_term - start_term} semesters)")

    counts = report.counts_by_kind()
    total = sum(counts.values())
    census = ", ".join(f"{kind} {counts[kind]:,}" for kind in sorted(counts))
    lines.append(f"decisions recorded: {total:,} ({census})")

    lines.append("")
    lines += _section("Strategy attribution (recomputed from events)")
    attribution = report.attribution(include_selection_floor=True)
    subtree_only = report.attribution(include_selection_floor=False)
    grand_total = sum(attribution.values())
    for strategy in sorted(attribution, key=attribution.get, reverse=True):
        count = attribution[strategy]
        share = count / grand_total if grand_total else 0.0
        lines.append(
            f"  {strategy:14} {count:10,}  {share:6.1%}  "
            f"({subtree_only.get(strategy, 0):,} direct subtree cuts)"
        )
    lines.append("  (selections skipped by the strategic floor are credited to the")
    lines.append("   time strategy, matching the run's PruningStats counters)")

    pruned = report.pruned()
    lines.append("")
    lines += _section(f"Pruned decisions ({min(max_pruned, len(pruned))} of {len(pruned):,})")
    if pruned:
        for event in pruned[:max_pruned]:
            lines += _render_decision(report, event)
    else:
        lines.append("  (nothing was pruned)")

    near = report.near_misses()
    if near:
        lines.append("")
        lines += _section("Near misses (within 1 of surviving the bound)")
        for event in near:
            lines += _render_decision(report, event)

    if why is not None:
        lines.append("")
        lines += _section(f"Why not {why}?")
        lines.append(report.why_not(why).render())

    return "\n".join(lines) + "\n"


def explain_report_dict(
    report: ExplainReport,
    goal: Optional[Goal] = None,
    start_term: Optional[Term] = None,
    end_term: Optional[Term] = None,
    max_pruned: int = 25,
    why: Optional[str] = None,
) -> Dict[str, Any]:
    """The JSON rendering of :func:`build_explain_report` (CLI ``--json``)."""
    data = report.as_dict(max_pruned=max_pruned)
    if goal is not None:
        data["goal"] = goal.describe()
    if start_term is not None and end_term is not None:
        data["horizon"] = {"start": str(start_term), "end": str(end_term)}
    if why is not None:
        answer = report.why_not(why)
        data["why_not"] = {
            "course": answer.course,
            "returned_in": answer.returned_in,
            "blockers": [e.as_dict() for e in answer.blockers[:max_pruned]],
        }
    return data
