"""Additional ranking functions (paper §6: "more complex ranking
functions").

All follow the same contract as the built-in three: non-negative additive
edge costs plus an admissible completion bound, so the ranked generator's
top-k guarantee (Lemma 2) carries over unchanged.
"""

from __future__ import annotations

import math
from typing import AbstractSet, Sequence, Tuple

from ..errors import ExplorationError
from ..semester import Term
from .ranking import RankingFunction

__all__ = ["CompositeRanking", "CourseCountRanking", "SpreadPenaltyRanking"]


class CompositeRanking(RankingFunction):
    """A non-negatively weighted sum of other rankings.

    Example: ``CompositeRanking([(1.0, TimeRanking()), (0.05,
    WorkloadRanking(catalog))])`` prefers fast plans but breaks ties (and
    trades one extra semester) toward lighter ones.

    Admissibility composes: the weighted sum of admissible bounds is an
    admissible bound for the weighted-sum cost.
    """

    name = "composite"

    def __init__(self, components: Sequence[Tuple[float, RankingFunction]]):
        components = tuple(components)
        if not components:
            raise ExplorationError("CompositeRanking needs at least one component")
        for weight, ranking in components:
            if weight < 0:
                raise ExplorationError(
                    f"component weight must be >= 0, got {weight} for {ranking.name!r}"
                )
            if not isinstance(ranking, RankingFunction):
                raise ExplorationError(f"expected RankingFunction, got {ranking!r}")
        self._components = components
        self.name = "+".join(
            f"{weight:g}*{ranking.name}" for weight, ranking in components
        )

    def edge_cost(self, selection: AbstractSet[str], term: Term) -> float:
        return sum(
            weight * ranking.edge_cost(selection, term)
            for weight, ranking in self._components
        )

    def remaining_cost_bound(self, completed, goal, config) -> float:
        return sum(
            weight * ranking.remaining_cost_bound(completed, goal, config)
            for weight, ranking in self._components
        )


class CourseCountRanking(RankingFunction):
    """Rank by *total number of courses taken* — fewest first.

    Useful with degree goals whose groups overlap: the minimum-course
    plans are exactly the ones with no wasted electives.  The admissible
    bound is ``left_i`` itself (every still-needed course costs 1).
    """

    name = "course-count"

    def edge_cost(self, selection: AbstractSet[str], term: Term) -> float:
        return float(len(selection))

    def remaining_cost_bound(self, completed, goal, config) -> float:
        left = goal.remaining_courses(completed)
        return left if not math.isinf(left) else math.inf


class SpreadPenaltyRanking(RankingFunction):
    """Rank by squared deviation of each semester's load from a target.

    An edge with ``h`` workload hours costs ``(h − target)²``, so plans
    whose semesters all sit near the target load rank above plans that
    alternate crunch and idle semesters — an additive stand-in for
    variance minimization (true variance is not edge-decomposable).

    The completion bound is 0 (a future semester could land exactly on
    target), which is trivially admissible.
    """

    name = "spread-penalty"

    def __init__(self, catalog, target_hours: float):
        if target_hours < 0:
            raise ExplorationError(f"target_hours must be >= 0, got {target_hours}")
        self._catalog = catalog
        self._target = target_hours

    def edge_cost(self, selection: AbstractSet[str], term: Term) -> float:
        hours = sum(self._catalog[course_id].workload_hours for course_id in selection)
        return (hours - self._target) ** 2
