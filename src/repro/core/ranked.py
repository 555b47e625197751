"""Ranked (top-k) learning paths — best-first search (§4.3.2).

Uniform-cost search over partial paths: a priority queue keyed by path
cost, expanding the cheapest frontier node first.  When a popped node
satisfies the goal, its path is the next-best complete path (edge costs
are non-negative, so no cheaper completion can still be hiding in the
queue — Lemma 2); after ``k`` emissions the search stops without building
the rest of the graph.  The goal-driven pruning strategies run before
every expansion, exactly as the paper prescribes.

A generated node is one heap entry: its priority, its parent, its
selection, its path cost and its explain id.  Its ``X ∪ W``, status and
search node are built only when it is popped, and partial paths are
parent links between popped nodes rather than copies of every prefix.
Most generated nodes are never popped (on a wide catalog, about 120 of
26,564 in 20 expansions).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import AbstractSet, FrozenSet, List, Optional, Sequence, Tuple

from ..catalog import Catalog
from ..errors import ExplorationError
from ..graph.path import LearningPath
from ..graph.status import EnrollmentStatus
from ..obs.runtime import Observability
from ..requirements import Goal
from ..semester import Term
from .config import ExplorationConfig
from .pruning import PrunerFactory, PruningStats
from .ranking import RankingFunction
from .stats import ExplorationStats
from .step import NodeStep

__all__ = ["RankedResult", "generate_ranked"]


class _SearchNode:
    """A popped node: its status plus the parent link that names its path."""

    __slots__ = ("status", "parent", "selection", "cost", "eid")

    def __init__(
        self,
        status: EnrollmentStatus,
        parent: Optional["_SearchNode"],
        selection: FrozenSet[str],
        cost: float,
        eid: Optional[int],
    ):
        self.status = status
        self.parent = parent
        self.selection = selection
        self.cost = cost
        #: Explain-only node id, assigned only when decisions are recorded.
        self.eid = eid

    def describe(self, kind: str):
        """This node's identity in decision events (explain recording)."""
        return (
            self.eid if self.eid is not None else -1,
            self.parent.eid if self.parent is not None else None,
            tuple(sorted(self.selection)),
            {"cost": self.cost} if kind == "goal" else None,
        )

    def materialize(self) -> LearningPath:
        statuses = [self.status]
        selections: List[FrozenSet[str]] = []
        node = self
        while node.parent is not None:
            selections.append(node.selection)
            node = node.parent
            statuses.append(node.status)
        statuses.reverse()
        selections.reverse()
        return LearningPath(statuses, selections)


@dataclass
class RankedResult:
    """Output of a ranked run: up to ``k`` goal paths in cost order."""

    paths: List[LearningPath]
    costs: List[float]
    ranking: RankingFunction
    stats: ExplorationStats
    pruning_stats: PruningStats
    exhausted: bool = field(default=False)

    def __len__(self) -> int:
        return len(self.paths)

    def ranked(self) -> List[Tuple[float, LearningPath]]:
        """``(cost, path)`` pairs, best first."""
        return list(zip(self.costs, self.paths))


def generate_ranked(
    catalog: Catalog,
    start_term: Term,
    goal: Goal,
    end_term: Term,
    k: int,
    ranking: RankingFunction,
    completed: AbstractSet[str] = frozenset(),
    config: Optional[ExplorationConfig] = None,
    pruners: Optional[Sequence[PrunerFactory]] = None,
    obs: Optional[Observability] = None,
) -> RankedResult:
    """The top-``k`` goal paths under ``ranking``, best first.

    Parameters
    ----------
    k:
        How many paths to return (fewer when fewer goal paths exist — then
        ``result.exhausted`` is true).
    ranking:
        Any :class:`~repro.core.ranking.RankingFunction`; the search is
        agnostic to the specific function as long as edge costs are
        non-negative.
    pruners:
        As in goal-driven generation; ``None`` uses the paper's stack.
    obs:
        Optional :class:`~repro.obs.runtime.Observability`; when timed,
        the run emits a ``run:ranked`` span whose ``rank`` phases cover
        edge-cost and admissible-bound evaluation.

    Returns
    -------
    RankedResult
        ``paths[i]`` has cost ``costs[i]``, non-decreasing in ``i``.

    Notes
    -----
    ``config.max_nodes`` bounds the number of search nodes *generated*
    (queue inserts), raising :class:`~repro.errors.BudgetExceededError`
    beyond it.
    """
    if k < 1:
        raise ExplorationError(f"k must be >= 1, got {k}")
    step = NodeStep(
        "ranked", catalog, start_term, end_term, completed, config,
        goal=goal, pruners=pruners, obs=obs,
    )
    goal = step.goal
    config = step.config
    expander = step.expander
    stats = step.stats
    obs = step.obs
    # Edge costs and bounds run once per child: in an untimed run they
    # are called outside any (no-op) ``rank`` scope.
    timed = obs.timed
    scope = step.start(_SearchNode.describe, k=k)
    recording = step.recording
    stats.record_node()
    tiebreak = itertools.count()
    next_eid = itertools.count(1)
    max_nodes = config.max_nodes

    with scope:
        with obs.phase("rank"):
            root_bound = ranking.remaining_cost_bound(step.completed, goal, config)
        # Heap entries are (cost + admissible completion bound, -depth, order,
        # parent, selection, cost, eid): A* ordering with deeper-first
        # tie-breaking, so with unit edge costs the search dives toward
        # completable plans instead of sweeping every shallow node first.
        # Goal paths still emerge in true cost order because the bound never
        # over-estimates (see RankingFunction docs).  ``order`` is unique,
        # so entries never compare past it.
        frontier: List[tuple] = []
        if not math.isinf(root_bound):
            frontier.append(
                (root_bound, 0, next(tiebreak), None, frozenset(), 0.0, 0 if recording else None)
            )

        paths: List[LearningPath] = []
        costs: List[float] = []
        generated = 1

        while frontier and len(paths) < k:
            _f, neg_depth, _order, parent, selection, cost, eid = heapq.heappop(frontier)
            if parent is None:
                status = expander.initial_status(step.start_term, step.completed)
            else:
                parent_status = parent.status
                status = expander.initial_status(
                    parent_status.term + 1, parent_status.completed | selection
                )
            node = _SearchNode(status, parent, selection, cost, eid)
            decision = step.decide(status, node)
            kind = decision.kind
            if kind == "goal":
                paths.append(node.materialize())
                costs.append(cost)
            if kind is not None:
                continue
            children = 0
            term = status.term
            neg_depth -= 1
            with obs.phase("expand"):
                for selection, completed in expander.successors(
                    status, required_minimum=decision.floor
                ):
                    if timed:
                        with obs.phase("rank"):
                            edge_cost = ranking.edge_cost(selection, term)
                    else:
                        edge_cost = ranking.edge_cost(selection, term)
                    if edge_cost < 0:
                        raise ExplorationError(
                            f"ranking {ranking.name!r} produced a negative edge cost "
                            f"({edge_cost}) — best-first ordering would be unsound"
                        )
                    if math.isinf(edge_cost):
                        continue  # impossible edge (e.g. zero offering probability)
                    if timed:
                        with obs.phase("rank"):
                            bound = ranking.remaining_cost_bound(completed, goal, config)
                    else:
                        bound = ranking.remaining_cost_bound(completed, goal, config)
                    if math.isinf(bound):
                        continue  # goal unreachable from the child
                    generated += 1
                    if max_nodes is not None and generated > max_nodes:
                        raise step.exceeded("nodes", max_nodes, generated)
                    stats.record_node()
                    stats.record_edge()
                    child_cost = cost + edge_cost
                    heapq.heappush(
                        frontier,
                        (
                            child_cost + bound, neg_depth, next(tiebreak), node, selection,
                            child_cost, next(next_eid) if recording else None,
                        ),
                    )
                    children += 1
            step.close(status, node, children, len(frontier))
        # Free the open nodes before the run scope closes, so the
        # collector pass it ends with scans what the run returns, not them.
        frontier.clear()

    step.finish()
    return RankedResult(
        paths=paths,
        costs=costs,
        ranking=ranking,
        stats=stats,
        pruning_stats=step.pruning_stats,
        exhausted=len(paths) < k,
    )
