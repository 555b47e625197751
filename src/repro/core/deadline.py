"""Deadline-driven learning paths — the paper's Algorithm 1.

Enumerates **every** learning path from the student's current enrollment
status to the end semester ``d``: all course selection options, for every
upcoming semester, exactly as a student exploring "what could I take over
the next few semesters" would want.  Faithful to the paper, the result is
an out-tree (one node per expansion; nodes with equal completed sets share
one frozenset), so the output grows exponentially in the horizon — Table
2's out-of-memory rows are reproduced here as a
:class:`~repro.errors.BudgetExceededError` governed by
``config.max_nodes``.  :func:`~repro.core.frontier.frontier_count_deadline_paths`
counts the paths without building them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, Iterator, Optional

from ..catalog import Catalog
from ..graph import LearningGraph, LearningPath
from ..obs.runtime import Observability
from ..semester import Term
from .config import ExplorationConfig
from .stats import ExplorationStats
from .step import NodeStep

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
        Optional :class:`~repro.obs.runtime.Observability`; when timed,
        the run emits a ``run:deadline`` span with ``expand`` phases, and
        it records its decisions like the goal-driven run.

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
    step = NodeStep("deadline", catalog, start_term, end_term, completed, config, obs=obs)
    return DeadlineResult(graph=grow_tree(step), stats=step.stats)


def grow_tree(step: NodeStep) -> LearningGraph:
    """Depth-first tree traversal: one :class:`LearningGraph` node per
    expansion, each decided by ``step`` (the deadline- and goal-driven
    engines differ only in their step).  ``config.max_nodes`` bounds the
    tree's size, raising :class:`~repro.errors.BudgetExceededError` with
    ``observed = max_nodes + 1`` (the node it refused).  Nodes with equal
    completed sets share one frozenset (see
    :meth:`~repro.core.expansion.Expander.successors`)."""
    expander = step.expander
    max_nodes = step.config.max_nodes
    stats = step.stats
    obs = step.obs
    graph = LearningGraph(expander.initial_status(step.start_term, step.completed))
    stats.record_node()
    # One frozenset per distinct completed set, shared by every node with
    # that value; freed with the run.
    canonical: Dict[FrozenSet[str], FrozenSet[str]] = {}

    def describe(node_id: int, kind: str):
        selection = tuple(sorted(graph.selection_into(node_id)))
        return node_id, graph.parent(node_id), selection, None

    with step.start(describe):
        stack = [graph.root_id]
        while stack:
            node_id = stack.pop()
            status = graph.status(node_id)
            kind = step.decide(status, node_id)
            if kind is not None:
                graph.mark_terminal(node_id, kind)
                continue
            children = 0
            with obs.phase("expand"):
                for selection, child_status in expander.successors(
                    status, required_minimum=step.floor, canonical=canonical
                ):
                    if max_nodes is not None and graph.num_nodes >= max_nodes:
                        raise step.exceeded("nodes", max_nodes, graph.num_nodes + 1)
                    child_id = graph.add_child(node_id, selection, child_status)
                    stats.record_node()
                    stats.record_edge()
                    stack.append(child_id)
                    children += 1
            if step.close(status, node_id, children, len(stack)) is not None:
                graph.mark_terminal(node_id, "dead_end")
    step.finish()
    return graph
