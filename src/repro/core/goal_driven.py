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

from dataclasses import dataclass
from typing import AbstractSet, Iterator, Optional, Sequence

from ..catalog import Catalog
from ..graph import LearningGraph, LearningPath
from ..obs.runtime import Observability
from ..requirements import Goal
from ..semester import Term
from .config import ExplorationConfig
from .deadline import grow_tree
from .pruning import PrunerFactory, PruningStats
from .stats import ExplorationStats
from .step import NodeStep

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


def generate_goal_driven(
    catalog: Catalog,
    start_term: Term,
    goal: Goal,
    end_term: Term,
    completed: AbstractSet[str] = frozenset(),
    config: Optional[ExplorationConfig] = None,
    pruners: Optional[Sequence[PrunerFactory]] = None,
    obs: Optional[Observability] = None,
) -> GoalDrivenResult:
    """Generate every learning path that satisfies ``goal`` by ``end_term``.

    Parameters
    ----------
    catalog, start_term, end_term, completed, config:
        As in :func:`~repro.core.deadline.generate_deadline_driven`.
    goal:
        The goal requirement (degree rule, course set, boolean expression).
    pruners:
        The pruning strategy stack, as factories the run builds with its
        own goal and :class:`~repro.core.expansion.Expander` (a
        :class:`~repro.core.pruning.Pruner` subclass, or any callable
        ``(goal, expander) -> Pruner``).  ``None`` (default) uses the
        paper's stack — time-based then availability; ``[]`` disables
        pruning (the Table 1 baseline).
    obs:
        Optional :class:`~repro.obs.runtime.Observability` bundle; when
        timed, the run emits a ``run:goal_driven`` span with nested
        ``expand``/``prune``/``goal`` phases and publishes the finished
        stats to the metrics registry.

    Returns
    -------
    GoalDrivenResult
        Graph (output = ``goal`` terminals), run statistics, and
        per-strategy pruning counters.
    """
    step = NodeStep(
        "goal_driven", catalog, start_term, end_term, completed, config,
        goal=goal, pruners=pruners, obs=obs,
    )
    return GoalDrivenResult(
        graph=grow_tree(step), stats=step.stats, pruning_stats=step.pruning_stats
    )
