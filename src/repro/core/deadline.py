"""Deadline-driven learning paths — the paper's Algorithm 1.

Enumerates **every** learning path from the student's current enrollment
status to the end semester ``d``: all course selection options, for every
upcoming semester, exactly as a student exploring "what could I take over
the next few semesters" would want.  Faithful to the paper, the result is
an out-tree (one node per expansion), so the output grows exponentially in
the horizon — Table 2's out-of-memory rows are reproduced here as a
:class:`~repro.errors.BudgetExceededError` governed by
``config.max_nodes``.  Use :func:`repro.core.counting.count_deadline_paths`
when only the path count is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterator, Optional

from ..catalog import Catalog
from ..errors import ExplorationError
from ..graph import LearningGraph, LearningPath
from ..obs.live import budget_exceeded
from ..obs.runtime import NULL_OBSERVABILITY, Observability
from ..semester import Term
from .config import ExplorationConfig
from .expansion import Expander
from .stats import ExplorationStats

__all__ = ["DeadlineResult", "generate_deadline_driven"]


@dataclass
class DeadlineResult:
    """Output of a deadline-driven run: the learning graph plus counters."""

    graph: LearningGraph
    stats: ExplorationStats

    def paths(self) -> Iterator[LearningPath]:
        """All output learning paths (every maximal path: deadline leaves
        plus dead ends, per Fig. 3 where ``n6`` ends a path early)."""
        return self.graph.paths()

    @property
    def path_count(self) -> int:
        """Number of output paths."""
        return self.graph.count_paths()


def generate_deadline_driven(
    catalog: Catalog,
    start_term: Term,
    end_term: Term,
    completed: AbstractSet[str] = frozenset(),
    config: Optional[ExplorationConfig] = None,
    obs: Optional[Observability] = None,
    cache=None,
) -> DeadlineResult:
    """Algorithm 1: every learning path from ``start_term`` to ``end_term``.

    Parameters
    ----------
    catalog:
        Courses, prerequisites, and schedule.
    start_term:
        The student's current semester ``s``.
    end_term:
        The end semester ``d`` (inclusive; paths stop *at* ``d``).
    completed:
        Course ids completed before ``start_term`` (``X``).
    config:
        Constraints (``m``, avoid-list, …); defaults match the paper's
        evaluation (``m = 3``).
    obs:
        Optional :class:`~repro.obs.runtime.Observability`; when enabled,
        the run emits a ``run:deadline`` span with ``expand`` phases.
    cache:
        Optional :class:`~repro.cache.ExplorationCache`, accepted so every
        generator takes one; deadline-driven runs have no goal, so no
        cache layer applies (option sets are memoised by the catalog).

    Returns
    -------
    DeadlineResult
        The learning graph (terminals tagged ``deadline``/``dead_end``) and
        run statistics.

    Raises
    ------
    ExplorationError
        If ``end_term`` precedes ``start_term``.
    BudgetExceededError
        If the graph outgrows ``config.max_nodes``.
    """
    config = config or ExplorationConfig()
    if end_term < start_term:
        raise ExplorationError(
            f"end term {end_term} precedes start term {start_term}"
        )
    unknown = frozenset(completed) - catalog.course_ids()
    if unknown:
        raise ExplorationError(f"completed courses not in catalog: {sorted(unknown)}")

    if obs is None:
        obs = NULL_OBSERVABILITY
    stats = ExplorationStats()
    stats.start_timer()
    expander = Expander(catalog, end_term, config, obs=obs)
    graph = LearningGraph(expander.initial_status(start_term, completed))
    stats.record_node()

    progress = obs.progress
    budget = obs.budget
    if progress is not None:
        progress.begin_run("deadline", horizon=int(end_term - start_term))
    if budget is not None:
        budget.arm()
    with obs.run("deadline", start=str(start_term), end=str(end_term)):
        stack = [graph.root_id]
        while stack:
            node_id = stack.pop()
            status = graph.status(node_id)
            if budget is not None:
                budget.tick(stats, progress)
            depth = int(status.term - start_term) if progress is not None else 0
            if status.term >= end_term:
                graph.mark_terminal(node_id, "deadline")
                stats.record_terminal("deadline")
                if progress is not None:
                    progress.record_terminal("deadline", depth)
                    progress.record_emit()
                continue
            expanded = False
            children = 0
            with obs.phase("expand"):
                for selection, child_status in expander.successors(status):
                    if config.max_nodes is not None and graph.num_nodes >= config.max_nodes:
                        raise budget_exceeded(
                            "nodes", config.max_nodes, graph.num_nodes,
                            stats=stats, progress=progress, budget=budget,
                        )
                    child_id = graph.add_child(node_id, selection, child_status)
                    stats.record_node()
                    stats.record_edge()
                    stack.append(child_id)
                    expanded = True
                    children += 1
            if not expanded:
                graph.mark_terminal(node_id, "dead_end")
                stats.record_terminal("dead_end")
                if progress is not None:
                    # Dead ends are maximal paths too (Fig. 3's n6).
                    progress.record_terminal("dead_end", depth)
                    progress.record_emit()
            elif progress is not None:
                progress.record_expanded(depth, children)
                progress.set_frontier(len(stack))

    stats.stop_timer()
    obs.record_run_stats("deadline", stats)
    return DeadlineResult(graph=graph, stats=stats)
