"""Ranked (top-k) learning paths — best-first search (§4.3.2).

Uniform-cost search over partial paths: a priority queue keyed by path
cost, expanding the cheapest frontier node first.  When a popped node
satisfies the goal, its path is the next-best complete path (edge costs
are non-negative, so no cheaper completion can still be hiding in the
queue — Lemma 2); after ``k`` emissions the search stops without building
the rest of the graph.  The goal-driven pruning strategies run before
every expansion, exactly as the paper prescribes.

Partial paths are stored as parent-linked nodes, so memory is one record
per generated node rather than one copy of every prefix.
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
    """A frontier entry: a status plus the parent link that names its path."""

    __slots__ = ("status", "parent", "selection", "cost", "depth", "eid")

    def __init__(
        self,
        status: EnrollmentStatus,
        parent: Optional["_SearchNode"],
        selection: FrozenSet[str],
        cost: float,
        depth: int,
        eid: Optional[int] = None,
    ):
        self.status = status
        self.parent = parent
        self.selection = selection
        self.cost = cost
        self.depth = depth
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
    root_status = expander.initial_status(step.start_term, step.completed)
    root = _SearchNode(root_status, None, frozenset(), 0.0, 0, 0 if recording else None)
    stats.record_node()
    tiebreak = itertools.count()
    next_eid = itertools.count(1)

    with scope:
        with obs.phase("rank"):
            root_bound = ranking.remaining_cost_bound(root.status, goal, config)
        # Heap entries are (cost + admissible completion bound, -depth, order,
        # node): A* ordering with deeper-first tie-breaking, so with unit edge
        # costs the search dives toward completable plans instead of sweeping
        # every shallow node first.  Goal paths still emerge in true cost order
        # because the bound never over-estimates (see RankingFunction docs).
        frontier: List[Tuple[float, int, int, _SearchNode]] = []
        if not math.isinf(root_bound):
            frontier.append((root_bound, 0, next(tiebreak), root))

        paths: List[LearningPath] = []
        costs: List[float] = []
        generated = 1

        while frontier and len(paths) < k:
            node = heapq.heappop(frontier)[3]
            status = node.status
            decision = step.decide(status, node)
            kind = decision.kind
            if kind == "goal":
                paths.append(node.materialize())
                costs.append(node.cost)
            if kind is not None:
                continue
            children = 0
            with obs.phase("expand"):
                for selection, child_status in expander.successors(
                    status, required_minimum=decision.floor
                ):
                    if timed:
                        with obs.phase("rank"):
                            edge_cost = ranking.edge_cost(selection, status.term)
                    else:
                        edge_cost = ranking.edge_cost(selection, status.term)
                    if edge_cost < 0:
                        raise ExplorationError(
                            f"ranking {ranking.name!r} produced a negative edge cost "
                            f"({edge_cost}) — best-first ordering would be unsound"
                        )
                    if math.isinf(edge_cost):
                        continue  # impossible edge (e.g. zero offering probability)
                    if timed:
                        with obs.phase("rank"):
                            bound = ranking.remaining_cost_bound(child_status, goal, config)
                    else:
                        bound = ranking.remaining_cost_bound(child_status, goal, config)
                    if math.isinf(bound):
                        continue  # goal unreachable from the child
                    generated += 1
                    if config.max_nodes is not None and generated > config.max_nodes:
                        raise step.exceeded("nodes", config.max_nodes, generated)
                    child = _SearchNode(
                        child_status,
                        node,
                        selection,
                        node.cost + edge_cost,
                        node.depth + 1,
                        eid=next(next_eid) if recording else None,
                    )
                    stats.record_node()
                    stats.record_edge()
                    heapq.heappush(
                        frontier, (child.cost + bound, -child.depth, next(tiebreak), child)
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
