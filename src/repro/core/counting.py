"""Counting-mode generation over the merged-status DAG.

The paper cannot materialize deadline-driven graphs beyond 5 semesters
(out of memory) and reports goal-driven runs with 4×10⁷ paths.  Those path
*counts* are still well-defined, and because the expansion of a status
depends only on ``(term, completed)``, two tree nodes with the same key
root identical subtrees.  Building the expansion over a
:class:`~repro.graph.dag.MergedStatusDag` therefore visits each distinct
status once, and an exact path count falls out of a linear DP — this is
how the reproduction fills Table 2's large rows without the authors'
32 GB server.

The goal/terminal/pruning rules here mirror
:mod:`~repro.core.deadline` and :mod:`~repro.core.goal_driven` exactly;
an equivalence property test asserts ``tree.count_paths() ==
dag.count_paths()`` on random catalogs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, List, Optional

from ..catalog import Catalog
from ..errors import BudgetExceededError, ExplorationError
from ..graph.dag import MergedStatusDag
from ..requirements import Goal
from ..semester import Term
from .config import ExplorationConfig
from .expansion import Expander
from .goal_driven import _selection_floor
from .pruning import (
    Pruner,
    PruningContext,
    PruningStats,
    TimeBasedPruner,
    default_pruners,
    first_firing_pruner,
    suppressed_selection_count,
)
from .stats import ExplorationStats

__all__ = [
    "CountResult",
    "build_deadline_dag",
    "build_goal_dag",
    "count_deadline_paths",
    "count_goal_paths",
]


@dataclass
class CountResult:
    """A merged DAG plus the path count it certifies."""

    dag: MergedStatusDag
    stats: ExplorationStats
    path_count: int
    pruning_stats: Optional[PruningStats] = None

    @property
    def distinct_statuses(self) -> int:
        """How many unique ``(term, completed)`` states were visited."""
        return self.dag.num_nodes


def _check_inputs(
    catalog: Catalog, start_term: Term, end_term: Term, completed: AbstractSet[str]
) -> None:
    if end_term < start_term:
        raise ExplorationError(f"end term {end_term} precedes start term {start_term}")
    unknown = frozenset(completed) - catalog.course_ids()
    if unknown:
        raise ExplorationError(f"completed courses not in catalog: {sorted(unknown)}")


def build_deadline_dag(
    catalog: Catalog,
    start_term: Term,
    end_term: Term,
    completed: AbstractSet[str] = frozenset(),
    config: Optional[ExplorationConfig] = None,
    cache=None,
) -> CountResult:
    """Deadline-driven expansion over merged statuses.

    Same rules as :func:`~repro.core.deadline.generate_deadline_driven`;
    ``path_count`` equals the tree algorithm's output-path count exactly.
    ``config.max_nodes`` bounds *distinct statuses* here.  ``cache`` is
    accepted for a uniform signature; no cache layer applies without a
    goal (option sets are memoised by the catalog).
    """
    config = config or ExplorationConfig()
    _check_inputs(catalog, start_term, end_term, completed)

    stats = ExplorationStats()
    stats.start_timer()
    expander = Expander(catalog, end_term, config)
    root = expander.initial_status(start_term, completed)
    dag = MergedStatusDag(root)
    stats.record_node()

    stack = [root.key]
    while stack:
        key = stack.pop()
        status = dag.status(key)
        if status.term >= end_term:
            dag.mark_terminal(key, "deadline")
            stats.record_terminal("deadline")
            continue
        expanded = False
        for selection, child_status in expander.successors(status):
            child_key, created = dag.ensure_node(child_status)
            if created:
                if config.max_nodes is not None and dag.num_nodes > config.max_nodes:
                    stats.stop_timer()
                    raise BudgetExceededError("nodes", config.max_nodes, dag.num_nodes)
                stats.record_node()
                stack.append(child_key)
            else:
                stats.record_merge()
            dag.add_edge(key, selection, child_key)
            stats.record_edge()
            expanded = True
        if not expanded:
            dag.mark_terminal(key, "dead_end")
            stats.record_terminal("dead_end")

    stats.stop_timer()
    return CountResult(dag=dag, stats=stats, path_count=dag.count_paths())


def build_goal_dag(
    catalog: Catalog,
    start_term: Term,
    goal: Goal,
    end_term: Term,
    completed: AbstractSet[str] = frozenset(),
    config: Optional[ExplorationConfig] = None,
    pruners: Optional[List[Pruner]] = None,
    cache=None,
) -> CountResult:
    """Goal-driven expansion over merged statuses.

    Pruning decisions depend only on a status's ``(term, completed)`` key,
    so they merge cleanly; ``path_count`` counts goal paths and equals the
    tree algorithm's output exactly (property-tested).  ``cache`` is an
    optional :class:`~repro.cache.ExplorationCache` — within one run the
    DAG already deduplicates statuses, so its value here is cross-run
    reuse of flow results and transposed verdicts.
    """
    config = config or ExplorationConfig()
    _check_inputs(catalog, start_term, end_term, completed)

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

    stats = ExplorationStats()
    pruning_stats = PruningStats()
    stats.start_timer()
    expander = Expander(catalog, end_term, config)
    root = expander.initial_status(start_term, completed)
    dag = MergedStatusDag(root)
    stats.record_node()

    stack = [root.key]
    while stack:
        key = stack.pop()
        status = dag.status(key)
        if goal.is_satisfied(status.completed):
            dag.mark_terminal(key, "goal")
            stats.record_terminal("goal")
            continue
        if status.term >= end_term:
            dag.mark_terminal(key, "deadline")
            stats.record_terminal("deadline")
            continue
        if transpositions is not None:
            firing_name, _ = transpositions.consult(pruners, status)
        else:
            firing = first_firing_pruner(pruners, status)
            firing_name = firing.name if firing is not None else None
        if firing_name is not None:
            dag.mark_terminal(key, "pruned")
            stats.record_terminal("pruned")
            stats.record_prune(firing_name)
            pruning_stats.record(firing_name)
            continue

        floor = _selection_floor(time_pruner, config, status)
        suppressed = suppressed_selection_count(len(status.options), floor)
        if suppressed:
            stats.record_prune("time", suppressed)
            pruning_stats.record("time", suppressed)
        expanded = False
        for selection, child_status in expander.successors(status, required_minimum=floor):
            child_key, created = dag.ensure_node(child_status)
            if created:
                if config.max_nodes is not None and dag.num_nodes > config.max_nodes:
                    stats.stop_timer()
                    raise BudgetExceededError("nodes", config.max_nodes, dag.num_nodes)
                stats.record_node()
                stack.append(child_key)
            else:
                stats.record_merge()
            dag.add_edge(key, selection, child_key)
            stats.record_edge()
            expanded = True
        if not expanded:
            dag.mark_terminal(key, "dead_end")
            stats.record_terminal("dead_end")

    stats.stop_timer()
    return CountResult(
        dag=dag,
        stats=stats,
        path_count=dag.count_paths("goal"),
        pruning_stats=pruning_stats,
    )


def count_deadline_paths(
    catalog: Catalog,
    start_term: Term,
    end_term: Term,
    completed: AbstractSet[str] = frozenset(),
    config: Optional[ExplorationConfig] = None,
    cache=None,
) -> int:
    """Exact deadline-driven path count without materializing the tree."""
    return build_deadline_dag(
        catalog, start_term, end_term, completed, config, cache=cache
    ).path_count


def count_goal_paths(
    catalog: Catalog,
    start_term: Term,
    goal: Goal,
    end_term: Term,
    completed: AbstractSet[str] = frozenset(),
    config: Optional[ExplorationConfig] = None,
    pruners: Optional[List[Pruner]] = None,
    cache=None,
) -> int:
    """Exact goal-driven path count without materializing the tree."""
    return build_goal_dag(
        catalog, start_term, goal, end_term, completed, config, pruners, cache=cache
    ).path_count
