"""Ranking functions for learning paths (§4.3.1).

A :class:`RankingFunction` assigns a **non-negative cost** to every edge
(a per-semester selection); a path's cost is the sum of its edge costs.
Non-negativity makes path cost monotone along any prefix, which is the
property Lemma 2's best-first argument needs ("subpaths of p_m must rank
higher than p_m").

The paper's three rankings:

* :class:`TimeRanking` — every edge costs 1, so path cost = number of
  semesters (shortest-completion-time paths first).
* :class:`WorkloadRanking` — an edge costs the sum of its courses' weekly
  workload hours ``w(c)`` ("easiest" paths first).
* :class:`ReliabilityRanking` — the paper defines an edge's cost as the
  *product* of its courses' offering probabilities and ranks by the product
  over edges.  We carry ``−log prob`` instead: additive, non-negative
  (probabilities ≤ 1), and ordering-equivalent to the product — an edge
  with a zero-probability course gets infinite cost, i.e. the branch is
  unreachable.  :meth:`ReliabilityRanking.score` converts a path cost back
  to the paper's probability scale.

Custom rankings: subclass and implement :meth:`edge_cost`; the ranked
generator is agnostic to the specific function, exactly as §4.3 promises.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, AbstractSet, FrozenSet

from ..catalog import Catalog, OfferingModel
from ..graph.path import LearningPath
from ..semester import Term

if TYPE_CHECKING:  # avoid an import cycle; used in type hints only
    from ..requirements import Goal
    from .config import ExplorationConfig

__all__ = [
    "RankingFunction",
    "TimeRanking",
    "WorkloadRanking",
    "ReliabilityRanking",
]


class RankingFunction:
    """Abstract path ranking via additive, non-negative edge costs."""

    #: Short identifier used in results and benchmark labels.
    name: str = "ranking"

    def edge_cost(self, selection: AbstractSet[str], term: Term) -> float:
        """Cost of electing ``selection`` in ``term``.  Must be ≥ 0;
        ``math.inf`` marks an impossible edge."""
        raise NotImplementedError

    def path_cost(self, path: LearningPath) -> float:
        """Total cost of a complete path (sum of its edge costs)."""
        return sum(self.edge_cost(selection, term) for term, selection in path)

    def remaining_cost_bound(
        self,
        completed: FrozenSet[str],
        goal: "Goal",
        config: "ExplorationConfig",
    ) -> float:
        """An *admissible* lower bound on the cost still needed to reach a
        goal node from a status whose completed set is ``completed``
        (never over-estimates).

        Best-first search asks once per generated node, before it builds
        the node's status, so the bound sees ``X`` alone: not the term
        and not the option set ``Y``.

        Best-first search adds this to the accumulated path cost (A*):
        with unit edge costs, pure best-first degenerates into
        breadth-first expansion of every shallow node before the first
        goal depth, which is exactly the explosion the paper's Table 2
        documents.  An admissible bound keeps the top-k result set and
        order identical (the bound for the popped goal is 0, so goals
        still emerge in true cost order) while steering the frontier
        toward completable plans.  ``math.inf`` marks a status from which
        the goal is unreachable.  The default is the trivial bound 0.
        """
        return 0.0

    def describe(self) -> str:
        """Human-readable name."""
        return self.name


class TimeRanking(RankingFunction):
    """Rank by goal-completion time: every semester transition costs 1."""

    name = "time"

    def edge_cost(self, selection: AbstractSet[str], term: Term) -> float:
        return 1.0

    def remaining_cost_bound(self, completed, goal, config) -> float:
        """At least ``⌈left_i / m⌉`` more semesters are needed.

        Consistent: one transition completes at most ``m`` courses, so the
        bound drops by at most 1 (= the edge cost) per edge — A* with this
        bound emits goal paths in exact cost order.
        """
        left = goal.remaining_courses(completed)
        if math.isinf(left):
            return math.inf
        m = config.max_courses_per_term
        return math.ceil(left / m)


class WorkloadRanking(RankingFunction):
    """Rank by total workload: an edge costs the sum of ``w(c)`` over its
    selection (a skipped semester costs 0)."""

    name = "workload"

    def __init__(self, catalog: Catalog):
        self._catalog = catalog

    def edge_cost(self, selection: AbstractSet[str], term: Term) -> float:
        return sum(self._catalog[course_id].workload_hours for course_id in selection)

    def remaining_cost_bound(self, completed, goal, config) -> float:
        """At least ``left_i`` more goal courses must be taken; whatever
        they are, they cost at least the sum of the ``left_i`` *lightest*
        not-yet-completed goal courses (a greedy, admissible bound)."""
        left = goal.remaining_courses(completed)
        if math.isinf(left):
            return math.inf
        left = int(left)
        if left == 0:
            return 0.0
        pending = sorted(
            self._catalog[cid].workload_hours
            for cid in goal.courses() - completed
            if cid in self._catalog
        )
        return sum(pending[:left])


class ReliabilityRanking(RankingFunction):
    """Rank by offering reliability (most likely to materialize first)."""

    name = "reliability"

    def __init__(self, offering_model: OfferingModel):
        self._model = offering_model

    def edge_cost(self, selection: AbstractSet[str], term: Term) -> float:
        probability = self._model.selection_probability(selection, term)
        if probability <= 0.0:
            return math.inf
        return -math.log(probability)

    def score(self, cost: float) -> float:
        """Convert an additive cost back to the paper's probability scale
        (the product of per-edge offering probabilities)."""
        if math.isinf(cost):
            return 0.0
        return math.exp(-cost)

    def path_reliability(self, path: LearningPath) -> float:
        """The path's materialization probability."""
        return path.reliability(self._model)
