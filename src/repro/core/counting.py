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

Each distinct status is decided by the same
:class:`~repro.core.step.NodeStep` as the tree engines, so the goal,
terminal and pruning rules are theirs by construction; an equivalence
property test asserts ``tree.count_paths() == dag.count_paths()`` on
random catalogs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, List, Optional

from ..catalog import Catalog
from ..graph.dag import MergedStatusDag
from ..obs.runtime import Observability
from ..requirements import Goal
from ..semester import Term
from .config import ExplorationConfig
from .pruning import Pruner, PruningStats
from .stats import ExplorationStats
from .step import NodeStep

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


def _grow_dag(step: NodeStep) -> CountResult:
    """Depth-first traversal over merged statuses: each distinct
    ``(term, completed)`` is decided once by ``step``; a repeat only adds
    an edge.  ``config.max_nodes`` bounds the number of distinct statuses.
    Decision events are not recorded (merged nodes have no tree ids)."""
    expander = step.expander
    max_nodes = step.config.max_nodes
    stats = step.stats
    obs = step.obs
    root = expander.initial_status(step.start_term, step.completed)
    dag = MergedStatusDag(root)
    stats.record_node()

    with step.start():
        stack = [root.key]
        while stack:
            key = stack.pop()
            status = dag.status(key)
            kind = step.decide(status, key)
            if kind is not None:
                dag.mark_terminal(key, kind)
                continue
            children = 0
            with obs.phase("expand"):
                for selection, child_status in expander.successors(
                    status, required_minimum=step.floor
                ):
                    child_key, created = dag.ensure_node(child_status)
                    if created:
                        if max_nodes is not None and dag.num_nodes > max_nodes:
                            raise step.exceeded("nodes", max_nodes, dag.num_nodes)
                        stats.record_node()
                        stack.append(child_key)
                    else:
                        stats.record_merge()
                    dag.add_edge(key, selection, child_key)
                    stats.record_edge()
                    children += 1
            if step.close(status, key, children, len(stack)) is not None:
                dag.mark_terminal(key, "dead_end")
    step.finish()
    return CountResult(
        dag=dag,
        stats=stats,
        path_count=dag.count_paths(*step.outputs),
        pruning_stats=step.pruning_stats if step.goal is not None else None,
    )


def build_deadline_dag(
    catalog: Catalog,
    start_term: Term,
    end_term: Term,
    completed: AbstractSet[str] = frozenset(),
    config: Optional[ExplorationConfig] = None,
    cache=None,
    obs: Optional[Observability] = None,
) -> CountResult:
    """Deadline-driven expansion over merged statuses.

    Same rules as :func:`~repro.core.deadline.generate_deadline_driven`;
    ``path_count`` equals the tree algorithm's output-path count exactly.
    ``config.max_nodes`` bounds *distinct statuses* here.  ``cache`` is
    accepted for a uniform signature; no cache layer applies without a
    goal (option sets are memoised by the catalog).  ``obs`` is an
    optional :class:`~repro.obs.runtime.Observability` bundle (span
    ``run:deadline_dag`` with ``expand`` phases, progress, budget ticks).
    """
    step = NodeStep("deadline_dag", catalog, start_term, end_term, completed, config, obs=obs)
    return _grow_dag(step)


def build_goal_dag(
    catalog: Catalog,
    start_term: Term,
    goal: Goal,
    end_term: Term,
    completed: AbstractSet[str] = frozenset(),
    config: Optional[ExplorationConfig] = None,
    pruners: Optional[List[Pruner]] = None,
    cache=None,
    obs: Optional[Observability] = None,
) -> CountResult:
    """Goal-driven expansion over merged statuses.

    Pruning decisions depend only on a status's ``(term, completed)`` key,
    so they merge cleanly; ``path_count`` counts goal paths and equals the
    tree algorithm's output exactly (property-tested).  ``cache`` is an
    optional :class:`~repro.cache.ExplorationCache` — within one run the
    DAG already deduplicates statuses, so its value here is cross-run
    reuse of flow results and transposed verdicts.  ``obs`` is an
    optional :class:`~repro.obs.runtime.Observability` bundle (span
    ``run:goal_dag`` with ``expand``/``prune``/``flow`` phases, progress,
    budget ticks; no decision events).
    """
    step = NodeStep(
        "goal_dag", catalog, start_term, end_term, completed, config,
        goal=goal, pruners=pruners, obs=obs, cache=cache,
    )
    return _grow_dag(step)


def count_deadline_paths(
    catalog: Catalog,
    start_term: Term,
    end_term: Term,
    completed: AbstractSet[str] = frozenset(),
    config: Optional[ExplorationConfig] = None,
    cache=None,
    obs: Optional[Observability] = None,
) -> int:
    """Exact deadline-driven path count without materializing the tree."""
    return build_deadline_dag(
        catalog, start_term, end_term, completed, config, cache=cache, obs=obs
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
    obs: Optional[Observability] = None,
) -> int:
    """Exact goal-driven path count without materializing the tree."""
    return build_goal_dag(
        catalog, start_term, goal, end_term, completed, config, pruners,
        cache=cache, obs=obs,
    ).path_count
