"""Frontier dynamic-programming path counting: the one counting engine.

The paper cannot materialize deadline-driven graphs beyond 5 semesters
(out of memory) and reports goal-driven runs with 4×10⁷ paths.  Those path
*counts* are still well-defined, and because the expansion of a status
depends only on ``(term, completed)``, two tree nodes with the same key
root identical subtrees.  Path counts can therefore be pushed forward term
by term, keeping only one frontier layer at a time —

    frontier[t] : {completed-set → number of selection sequences reaching it}

Each term, every state either terminates (goal satisfied → its
multiplicity joins the total; deadline reached → dropped) or expands its
selections into the next layer.  Peak memory is the widest single layer
rather than every status ever visited, and per-state storage is one
frozenset and one integer: this fills Table 2's large rows without the
authors' 32 GB server.  Every path count goes through here (benchmarks,
``CourseNavigator.count_*``, planning sessions, ``--count-only``).  It
counts each distinct ``(term, completed)`` status once as a node, each
distinct transition out of it as an edge and each edge into an existing
status as a merge; ``max_nodes`` bounds distinct statuses.  It gives
exactly the tree algorithms' counts (property-tested), including
identical pruning behaviour.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, FrozenSet, List, Optional

from ..catalog import Catalog
from ..obs.runtime import Observability
from ..requirements import Goal
from ..semester import Term
from .config import ExplorationConfig
from .pruning import Pruner, PruningStats
from .step import NodeStep

__all__ = ["FrontierCount", "frontier_count_goal_paths", "frontier_count_deadline_paths"]


@dataclass
class FrontierCount:
    """Result of a frontier-DP counting run."""

    path_count: int
    peak_frontier: int
    total_states: int
    elapsed_seconds: float = 0.0
    pruning_stats: Optional[PruningStats] = None
    layer_widths: List[int] = field(default_factory=list)
    #: Exact number of tree paths ending at each terminal kind
    #: (``goal`` / ``deadline`` / ``dead_end`` / ``pruned``) — the
    #: multiplicity-weighted leaf census of the tree the paper's algorithm
    #: would have built.  ``explored_path_count`` (everything except
    #: ``pruned``) is Table 1's "# of paths" column.
    terminal_path_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def explored_path_count(self) -> int:
        """Tree leaves actually reached (all kinds except ``pruned``)."""
        return sum(
            count
            for kind, count in self.terminal_path_counts.items()
            if kind != "pruned"
        )


def _run_frontier(step: NodeStep, max_frontier: Optional[int]) -> FrontierCount:
    """Layer-merged traversal: one dict of ``completed → multiplicity`` per
    term, each state decided once by ``step`` with its multiplicity.

    Stats count the out-tree with equal statuses merged: one node per
    distinct state, one edge per child and one merge per child already in
    the next layer; ``config.max_nodes`` bounds the distinct states seen.
    """
    expander = step.expander
    end_term = step.end_term
    max_nodes = step.config.max_nodes
    stats = step.stats
    obs = step.obs
    frontier: Dict[FrozenSet[str], int] = {step.completed: 1}
    seen = 1
    term = step.start_term
    widths = [len(frontier)]
    terminal_counts: Dict[str, int] = {}
    # Frontier states are merged, so decision events carry synthetic ids
    # and no parent linkage; ``multiplicity`` says how many tree nodes the
    # one recorded decision stands for.  Expansions are not recorded.
    next_eid = itertools.count()

    def describe(multiplicity: int, kind: str):
        if kind == "expand":
            return None
        return next(next_eid), None, (), {"multiplicity": multiplicity}

    with step.start(describe):
        while frontier and term <= end_term:
            next_frontier: Dict[FrozenSet[str], int] = {}
            for state, multiplicity in frontier.items():
                # One node per decided state, so node budgets count states.
                stats.record_node()
                status = expander.initial_status(term, state)
                kind = step.decide(status, multiplicity, multiplicity)
                if kind is None:
                    with obs.phase("expand"):
                        children = [
                            child.completed
                            for _selection, child in expander.successors(
                                status, required_minimum=step.floor
                            )
                        ]
                    with obs.phase("merge"):
                        for key in children:
                            stats.record_edge()
                            if key in next_frontier:
                                next_frontier[key] += multiplicity
                                stats.record_merge()
                            else:
                                next_frontier[key] = multiplicity
                                seen += 1
                                if max_nodes is not None and seen > max_nodes:
                                    raise step.exceeded("nodes", max_nodes, seen)
                    kind = step.close(status, multiplicity, len(children), None, multiplicity)
                    # Check the budget as the layer grows (not just once it
                    # is complete) so an exploding layer fails fast instead
                    # of exhausting memory first.
                    if max_frontier is not None and len(next_frontier) > max_frontier:
                        raise step.exceeded(
                            "frontier states", max_frontier, len(next_frontier)
                        )
                if kind is not None:
                    terminal_counts[kind] = terminal_counts.get(kind, 0) + multiplicity
            frontier = next_frontier
            term = term + 1
            if obs.progress is not None:
                obs.progress.set_frontier(len(frontier))
            if frontier:
                widths.append(len(frontier))

    step.finish()
    return FrontierCount(
        path_count=sum(terminal_counts.get(kind, 0) for kind in step.outputs),
        peak_frontier=max(widths),
        total_states=sum(widths),
        elapsed_seconds=stats.elapsed_seconds,
        pruning_stats=step.pruning_stats if step.goal is not None else None,
        layer_widths=widths,
        terminal_path_counts=terminal_counts,
    )


def frontier_count_goal_paths(
    catalog: Catalog,
    start_term: Term,
    goal: Goal,
    end_term: Term,
    completed: AbstractSet[str] = frozenset(),
    config: Optional[ExplorationConfig] = None,
    pruners: Optional[List[Pruner]] = None,
    max_frontier: Optional[int] = None,
    obs: Optional[Observability] = None,
) -> FrontierCount:
    """Exact goal-driven path count with one-layer memory.

    Semantics match :func:`~repro.core.goal_driven.generate_goal_driven`
    exactly; ``config.max_nodes`` bounds the distinct states seen and
    ``max_frontier`` the widest layer, raising
    :class:`~repro.errors.BudgetExceededError` beyond either.  ``obs`` is an
    optional :class:`~repro.obs.runtime.Observability` bundle (span
    ``run:frontier_goal`` with ``expand``/``merge``/``prune`` phases).
    """
    step = NodeStep(
        "frontier_goal", catalog, start_term, end_term, completed, config,
        goal=goal, pruners=pruners, obs=obs,
    )
    return _run_frontier(step, max_frontier)


def frontier_count_deadline_paths(
    catalog: Catalog,
    start_term: Term,
    end_term: Term,
    completed: AbstractSet[str] = frozenset(),
    config: Optional[ExplorationConfig] = None,
    max_frontier: Optional[int] = None,
    obs: Optional[Observability] = None,
) -> FrontierCount:
    """Exact deadline-driven path count with one-layer memory.

    Counts match :func:`~repro.core.deadline.generate_deadline_driven`:
    deadline leaves plus dead ends.  Limits, ``obs`` (span
    ``run:frontier_deadline``) as for :func:`frontier_count_goal_paths`.
    """
    step = NodeStep(
        "frontier_deadline", catalog, start_term, end_term, completed, config, obs=obs
    )
    return _run_frontier(step, max_frontier)
