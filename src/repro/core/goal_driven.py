"""Goal-driven learning paths (§4.2.3).

Same expansion as Algorithm 1, with two changes:

1. A node whose completed set already satisfies the goal is a terminal
   (``goal``) — exploration does not continue past success.  A node at the
   end semester whose completed set does not satisfy the goal is a failed
   leaf (``deadline``) and is not part of the output.
2. Before expanding any node, the pruning strategies are consulted; if one
   fires, the node is tagged ``pruned`` and its (provably goalless)
   subtree is never generated.

When ``config.enforce_min_selection`` is on, the time-based pruner's
``min_i`` additionally floors the selection size ("strategic course
selections") — output-identical, but skips children the time pruner would
reject one level down.

Pass ``pruners=[]`` to run the unpruned baseline (Table 1's "No Pruning"
column); pass a custom list to ablate strategies or reorder them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import AbstractSet, Iterator, List, Optional

from ..catalog import Catalog
from ..errors import ExplorationError
from ..graph import LearningGraph, LearningPath
from ..obs.explain import DecisionEvent
from ..obs.live import budget_exceeded
from ..obs.runtime import NULL_OBSERVABILITY, Observability
from ..requirements import Goal
from ..semester import Term
from .config import ExplorationConfig
from .expansion import Expander
from .pruning import (
    Pruner,
    PruningContext,
    PruningStats,
    TimeBasedPruner,
    default_pruners,
    examine_pruners,
    first_firing_pruner,
    suppressed_selection_count,
)
from .stats import ExplorationStats

__all__ = ["GoalDrivenResult", "generate_goal_driven"]


@dataclass
class GoalDrivenResult:
    """Output of a goal-driven run."""

    graph: LearningGraph
    stats: ExplorationStats
    pruning_stats: PruningStats

    def paths(self) -> Iterator[LearningPath]:
        """The goal-satisfying learning paths (the algorithm's output set)."""
        return self.graph.paths("goal")

    @property
    def path_count(self) -> int:
        """Number of goal paths."""
        return self.graph.count_paths("goal")

    @property
    def explored_leaf_count(self) -> int:
        """Every non-pruned leaf reached (goal + deadline + dead-end) —
        the quantity Table 1 reports to show how much pruning saves."""
        return self.graph.count_paths()


def _graph_decision(
    graph: LearningGraph, node_id: int, kind: str, **kwargs
) -> DecisionEvent:
    """A decision event for one tree node (shared by the event kinds)."""
    status = graph.status(node_id)
    return DecisionEvent(
        kind=kind,
        node_id=node_id,
        parent_id=graph.parent(node_id),
        term=str(status.term),
        selection=tuple(sorted(graph.selection_into(node_id))),
        completed=tuple(sorted(status.completed)),
        **kwargs,
    )


def _selection_floor(
    time_pruner: Optional[TimeBasedPruner],
    config: ExplorationConfig,
    status,
) -> int:
    if time_pruner is None or not config.enforce_min_selection:
        return 0
    minimum = time_pruner.min_required_this_term(status)
    if math.isinf(minimum):
        # The pruner stack should have cut this node already; stay safe.
        return config.max_courses_per_term + 1
    return max(0, int(math.ceil(minimum)))


def generate_goal_driven(
    catalog: Catalog,
    start_term: Term,
    goal: Goal,
    end_term: Term,
    completed: AbstractSet[str] = frozenset(),
    config: Optional[ExplorationConfig] = None,
    pruners: Optional[List[Pruner]] = None,
    obs: Optional[Observability] = None,
    cache=None,
) -> GoalDrivenResult:
    """Generate every learning path that satisfies ``goal`` by ``end_term``.

    Parameters
    ----------
    catalog, start_term, end_term, completed, config:
        As in :func:`~repro.core.deadline.generate_deadline_driven`.
    goal:
        The goal requirement (degree rule, course set, boolean expression).
    pruners:
        The pruning strategy stack.  ``None`` (default) uses the paper's
        stack — time-based then availability; ``[]`` disables pruning
        (the Table 1 baseline).  Custom pruners must be built against a
        :class:`~repro.core.pruning.PruningContext` equivalent to this
        call's arguments.
    obs:
        Optional :class:`~repro.obs.runtime.Observability` bundle; when
        enabled, the run emits a ``run:goal_driven`` span with nested
        ``expand``/``prune``/``flow`` phases and publishes the finished
        stats to the metrics registry.
    cache:
        Optional :class:`~repro.cache.ExplorationCache`.  Goal queries
        and pruning verdicts are then memoized (within the run and across
        runs sharing the cache) — output-identical to the uncached run,
        including decision streams.

    Returns
    -------
    GoalDrivenResult
        Graph (output = ``goal`` terminals), run statistics, and
        per-strategy pruning counters.
    """
    config = config or ExplorationConfig()
    if end_term < start_term:
        raise ExplorationError(f"end term {end_term} precedes start term {start_term}")
    unknown = frozenset(completed) - catalog.course_ids()
    if unknown:
        raise ExplorationError(f"completed courses not in catalog: {sorted(unknown)}")

    if cache is not None:
        goal = cache.wrap_goal(goal)
    context = PruningContext(
        catalog=catalog, goal=goal, end_term=end_term, config=config, cache=cache
    )
    if pruners is None:
        pruners = default_pruners(context)
    time_pruner = next((p for p in pruners if isinstance(p, TimeBasedPruner)), None)
    transpositions = (
        cache.transposition_view(goal, end_term, config, pruners)
        if cache is not None and pruners
        else None
    )
    if obs is None:
        obs = NULL_OBSERVABILITY

    stats = ExplorationStats()
    pruning_stats = PruningStats()
    stats.start_timer()
    expander = Expander(catalog, end_term, config, obs=obs)
    graph = LearningGraph(expander.initial_status(start_term, completed))
    stats.record_node()

    recorder = obs.decisions
    progress = obs.progress
    budget = obs.budget
    if progress is not None:
        progress.begin_run("goal_driven", horizon=int(end_term - start_term))
    if budget is not None:
        budget.arm()
    with obs.run("goal_driven", start=str(start_term), end=str(end_term)):
        stack = [graph.root_id]
        while stack:
            node_id = stack.pop()
            status = graph.status(node_id)
            if budget is not None:
                budget.tick(stats, progress)
            depth = int(status.term - start_term) if progress is not None else 0

            if goal.is_satisfied(status.completed):
                graph.mark_terminal(node_id, "goal")
                stats.record_terminal("goal")
                if progress is not None:
                    progress.record_terminal("goal", depth)
                    progress.record_emit()
                if recorder is not None:
                    recorder.record(_graph_decision(graph, node_id, "goal"))
                continue
            if status.term >= end_term:
                graph.mark_terminal(node_id, "deadline")
                stats.record_terminal("deadline")
                if progress is not None:
                    progress.record_terminal("deadline", depth)
                if recorder is not None:
                    recorder.record(_graph_decision(graph, node_id, "deadline"))
                continue
            if transpositions is not None:
                with obs.phase("prune"):
                    firing_name, verdict_dicts = transpositions.consult(
                        pruners, status, obs, want_verdicts=recorder is not None
                    )
            elif recorder is None:
                with obs.phase("prune"):
                    firing = first_firing_pruner(pruners, status, obs)
                firing_name = firing.name if firing is not None else None
                verdict_dicts = None
            else:
                with obs.phase("prune"):
                    firing, verdicts = examine_pruners(pruners, status, obs)
                firing_name = firing.name if firing is not None else None
                verdict_dicts = tuple(v.as_dict() for v in verdicts)
            if firing_name is not None:
                graph.mark_terminal(node_id, "pruned")
                stats.record_terminal("pruned")
                stats.record_prune(firing_name)
                pruning_stats.record(firing_name)
                if progress is not None:
                    progress.record_pruned(depth)
                if recorder is not None:
                    recorder.record(
                        _graph_decision(
                            graph,
                            node_id,
                            "prune",
                            strategy=firing_name,
                            verdicts=verdict_dicts,
                        )
                    )
                continue

            floor = _selection_floor(time_pruner, config, status)
            suppressed = suppressed_selection_count(len(status.options), floor)
            if suppressed:
                stats.record_prune("time", suppressed)
                pruning_stats.record("time", suppressed)
                if recorder is not None:
                    recorder.record(
                        _graph_decision(
                            graph,
                            node_id,
                            "suppressed",
                            strategy="time",
                            detail={
                                "suppressed": suppressed,
                                "floor": floor,
                                "option_count": len(status.options),
                            },
                        )
                    )
            expanded = False
            children = 0
            with obs.phase("expand"):
                for selection, child_status in expander.successors(
                    status, required_minimum=floor
                ):
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
                    progress.record_terminal("dead_end", depth)
                if recorder is not None:
                    recorder.record(_graph_decision(graph, node_id, "dead_end"))
            else:
                if progress is not None:
                    progress.record_expanded(depth, children)
                    progress.set_frontier(len(stack))
                if recorder is not None:
                    recorder.record(
                        _graph_decision(
                            graph, node_id, "expand", detail={"children": children}
                        )
                    )

    stats.stop_timer()
    obs.record_run_stats("goal_driven", stats)
    return GoalDrivenResult(graph=graph, stats=stats, pruning_stats=pruning_stats)
