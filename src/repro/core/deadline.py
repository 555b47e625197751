"""Deadline-driven learning paths — the paper's Algorithm 1.

Enumerates **every** learning path from the student's current enrollment
status to the end semester ``d``: all course selection options, for every
upcoming semester, exactly as a student exploring "what could I take over
the next few semesters" would want.  Faithful to the paper, the result is
an out-tree (one node per expansion), so the output grows exponentially in
the horizon; the run decides each distinct ``(term, X)`` once, and the
nodes that repeat one share its status (see :func:`grow_tree`).  Table
2's out-of-memory rows are reproduced here as a
:class:`~repro.errors.BudgetExceededError` governed by
``config.max_nodes``.  :func:`~repro.core.frontier.frontier_count_deadline_paths`
counts the paths without building them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, Iterator, Optional

from ..catalog import Catalog
from ..errors import BudgetExceededError
from ..graph import EnrollmentStatus, LearningGraph, LearningPath
from ..obs.runtime import Observability
from ..semester import Term
from .config import ExplorationConfig
from .stats import ExplorationStats
from .step import Decision, NodeStep

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


_NO_CHILDREN = range(0)


class _State:
    """One distinct ``(term, X)`` of a tree run.

    ``status`` is the one status every node in the state shares.  The
    state's first node stores its ``decision`` and, when expanded, its
    ``children``: the range of their ids.  ``other`` is the state with the
    same ``X`` at another term, which shares ``X``'s frozenset.
    """

    __slots__ = ("status", "decision", "children", "other")

    def __init__(self, status: EnrollmentStatus):
        self.status = status
        self.decision: Optional[Decision] = None
        self.children = _NO_CHILDREN
        self.other: Optional["_State"] = None


def _join(state: _State, term: Term, expander) -> _State:
    """The state at ``term`` with ``state``'s ``X``, given ``state``, the
    first state with that ``X``; a term not on the chain yet is added to
    it, with the one status it gets."""
    ordinal = term.ordinal
    while state.status.term.ordinal != ordinal:
        if state.other is None:
            state.other = _State(expander.initial_status(term, state.status.completed))
            return state.other
        state = state.other
    return state


def grow_tree(step: NodeStep) -> LearningGraph:
    """Depth-first tree traversal: one :class:`LearningGraph` node per
    expansion, each decided by ``step`` (the deadline- and goal-driven
    engines differ only in their step).  ``config.max_nodes`` bounds the
    tree's size, raising :class:`~repro.errors.BudgetExceededError` with
    ``observed = max_nodes + 1`` (the node it refused).

    Every per-node answer (goal test, pruners, floor, ``Y`` and the moves
    out of it) is a function of the node's ``(term, X)``, so the run
    decides each distinct state once.  Its one table maps each ``X`` to
    its states; every node in a state shares the state's status, and
    every state with one ``X`` shares one frozenset.  A node whose state
    an earlier node (its *twin*) decided replays the twin's decision
    through :meth:`~repro.core.step.NodeStep.replay` and, when the twin
    was expanded, gets copies of the twin's children: the same
    selections and statuses, in the same order.

    The copies reproduce the plain DFS exactly, node ids included.  A
    node's children are created in one loop, so the twin's are one range
    of contiguous ids, kept with its decision.  Every edge advances one
    term, so a node's depth fixes its term, and the stack holds at most
    one node per state: the unexpanded children of the nodes on the
    current path, siblings of one parent having distinct ``X``.  A node
    is created only as a child of the node just popped, deeper than
    everything on the stack, so an earlier node in its state has been
    popped, and with it its whole subtree: the twin's decision and
    children are final before the second node exists.
    """
    expander = step.expander
    max_nodes = step.config.max_nodes
    stats = step.stats
    obs = step.obs
    root = expander.initial_status(step.start_term, step.completed)
    graph = LearningGraph(root)
    stats.record_node()
    states: Dict[FrozenSet[str], _State] = {root.completed: _State(root)}

    def describe(node_id: int, kind: str):
        selection = tuple(sorted(graph.selection_into(node_id)))
        return node_id, graph.parent(node_id), selection, None

    def refuse(first: int) -> BudgetExceededError:
        """The node-limit error, once the children made so far are counted."""
        made = graph.num_nodes - first
        stats.nodes_created += made
        stats.edges_created += made
        return step.exceeded("nodes", max_nodes, graph.num_nodes + 1)

    with step.start(describe):
        # Node ids and, in step, their states.
        stack = [graph.root_id]
        pending = [states[root.completed]]
        while stack:
            node_id = stack.pop()
            state = pending.pop()
            status = state.status
            decision = state.decision
            fresh = decision is None
            if fresh:
                decision = state.decision = step.decide(status, node_id)
                kind = decision.kind
            else:
                kind = step.replay(decision, status, node_id)
            if kind is not None:
                graph.mark_terminal(node_id, kind)
                continue
            first = graph.num_nodes
            with obs.phase("expand"):
                if fresh:
                    child_term = status.term + 1
                    for selection, completed in expander.successors(
                        status, required_minimum=decision.floor
                    ):
                        if max_nodes is not None and graph.num_nodes >= max_nodes:
                            raise refuse(first)
                        child_state = states.get(completed)
                        if child_state is None:
                            child_state = states[completed] = _State(
                                expander.initial_status(child_term, completed)
                            )
                        else:
                            child_state = _join(child_state, child_term, expander)
                        stack.append(graph.add_child(node_id, selection, child_state.status))
                        pending.append(child_state)
                    state.children = range(first, graph.num_nodes)
                else:
                    for selection, child in graph.edges_into(state.children):
                        if max_nodes is not None and graph.num_nodes >= max_nodes:
                            raise refuse(first)
                        stack.append(graph.add_child(node_id, selection, child))
                        child_state = states[child.completed]
                        while child_state.status is not child:
                            child_state = child_state.other
                        pending.append(child_state)
            children = graph.num_nodes - first
            stats.nodes_created += children
            stats.edges_created += children
            if step.close(status, node_id, children, len(stack)) is not None:
                graph.mark_terminal(node_id, "dead_end")
    step.finish()
    return graph
