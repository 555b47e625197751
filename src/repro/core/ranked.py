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
from typing import AbstractSet, FrozenSet, List, Optional, Tuple

from ..catalog import Catalog
from ..errors import ExplorationError
from ..graph.path import LearningPath
from ..graph.status import EnrollmentStatus
from ..obs.explain import DecisionEvent
from ..obs.live import budget_exceeded
from ..obs.runtime import NULL_OBSERVABILITY, Observability
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
    examine_pruners,
    first_firing_pruner,
    suppressed_selection_count,
)
from .ranking import RankingFunction
from .stats import ExplorationStats

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

    def decision(self, kind: str, **kwargs) -> DecisionEvent:
        """The decision event closing this node (explain recording only)."""
        return DecisionEvent(
            kind=kind,
            node_id=self.eid if self.eid is not None else -1,
            parent_id=self.parent.eid if self.parent is not None else None,
            term=str(self.status.term),
            selection=tuple(sorted(self.selection)),
            completed=tuple(sorted(self.status.completed)),
            **kwargs,
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
    pruners: Optional[List[Pruner]] = None,
    obs: Optional[Observability] = None,
    cache=None,
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
        Optional :class:`~repro.obs.runtime.Observability`; when enabled,
        the run emits a ``run:ranked`` span whose ``rank`` phases cover
        edge-cost and admissible-bound evaluation.
    cache:
        Optional :class:`~repro.cache.ExplorationCache`; memoizes goal
        queries (including the rankings' ``remaining_cost_bound`` flow
        solves) and pruning verdicts.  Output-identical.

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
    config = config or ExplorationConfig()
    if k < 1:
        raise ExplorationError(f"k must be >= 1, got {k}")
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

    recorder = obs.decisions
    progress = obs.progress
    budget = obs.budget
    if progress is not None:
        progress.begin_run("ranked", horizon=int(end_term - start_term))
    if budget is not None:
        budget.arm()
    root = _SearchNode(
        expander.initial_status(start_term, completed),
        None,
        frozenset(),
        0.0,
        0,
        eid=0 if recorder is not None else None,
    )
    stats.record_node()
    tiebreak = itertools.count()
    next_eid = itertools.count(1)

    with obs.run("ranked", start=str(start_term), end=str(end_term), k=k):
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
            _priority, _neg_depth, _order, node = heapq.heappop(frontier)
            cost = node.cost
            status = node.status
            if budget is not None:
                budget.tick(stats, progress)

            if goal.is_satisfied(status.completed):
                paths.append(node.materialize())
                costs.append(cost)
                stats.record_terminal("goal")
                if progress is not None:
                    progress.record_terminal("goal", node.depth)
                    progress.record_emit()
                if recorder is not None:
                    recorder.record(node.decision("goal", detail={"cost": cost}))
                continue
            if status.term >= end_term:
                stats.record_terminal("deadline")
                if progress is not None:
                    progress.record_terminal("deadline", node.depth)
                if recorder is not None:
                    recorder.record(node.decision("deadline"))
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
                stats.record_terminal("pruned")
                stats.record_prune(firing_name)
                pruning_stats.record(firing_name)
                if progress is not None:
                    progress.record_pruned(node.depth)
                if recorder is not None:
                    recorder.record(
                        node.decision(
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
                        node.decision(
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
                    with obs.phase("rank"):
                        edge_cost = ranking.edge_cost(selection, status.term)
                    if edge_cost < 0:
                        raise ExplorationError(
                            f"ranking {ranking.name!r} produced a negative edge cost "
                            f"({edge_cost}) — best-first ordering would be unsound"
                        )
                    if math.isinf(edge_cost):
                        continue  # impossible edge (e.g. zero offering probability)
                    with obs.phase("rank"):
                        bound = ranking.remaining_cost_bound(child_status, goal, config)
                    if math.isinf(bound):
                        continue  # goal unreachable from the child
                    generated += 1
                    if config.max_nodes is not None and generated > config.max_nodes:
                        raise budget_exceeded(
                            "nodes", config.max_nodes, generated,
                            stats=stats, progress=progress, budget=budget,
                        )
                    child = _SearchNode(
                        child_status,
                        node,
                        selection,
                        cost + edge_cost,
                        node.depth + 1,
                        eid=next(next_eid) if recorder is not None else None,
                    )
                    stats.record_node()
                    stats.record_edge()
                    heapq.heappush(
                        frontier, (child.cost + bound, -child.depth, next(tiebreak), child)
                    )
                    expanded = True
                    children += 1
            if not expanded:
                stats.record_terminal("dead_end")
                if progress is not None:
                    progress.record_terminal("dead_end", node.depth)
                if recorder is not None:
                    recorder.record(node.decision("dead_end"))
            else:
                if progress is not None:
                    progress.record_expanded(node.depth, children)
                    progress.set_frontier(len(frontier))
                if recorder is not None:
                    recorder.record(
                        node.decision("expand", detail={"children": children})
                    )

    stats.stop_timer()
    obs.record_run_stats("ranked", stats)
    return RankedResult(
        paths=paths,
        costs=costs,
        ranking=ranking,
        stats=stats,
        pruning_stats=pruning_stats,
        exhausted=len(paths) < k,
    )
