"""The paper's primary contribution: learning-path generation algorithms.

Three generators, matching Section 4:

* :func:`~repro.core.deadline.generate_deadline_driven` — Algorithm 1:
  every learning path from the start status to the end semester.
* :func:`~repro.core.goal_driven.generate_goal_driven` — goal-driven paths
  with the time-based and course-availability pruning strategies (§4.2).
* :func:`~repro.core.ranked.generate_ranked` — top-k goal-driven paths
  under a ranking function (time / workload / reliability, §4.3) via
  best-first search.

plus the frontier DP (:mod:`repro.core.frontier`), which counts paths
exactly over merged statuses where the paper's tree explodes.  Every
engine takes its per-node decision from one kernel,
:class:`~repro.core.step.NodeStep`, and differs only in traversal order.
"""

from .config import ExplorationConfig
from .constraints import (
    ForbiddenCombination,
    MaxCoursesInTerm,
    MaxWorkloadPerTerm,
    RequiredCompanions,
    SelectionConstraint,
    TermBlackout,
)
from .deadline import DeadlineResult, generate_deadline_driven
from .goal_driven import GoalDrivenResult, generate_goal_driven
from .pruning import (
    DEFAULT_PRUNERS,
    AvailabilityPruner,
    PruneVerdict,
    Pruner,
    PrunerFactory,
    PruningStats,
    TimeBasedPruner,
    examine_pruners,
    first_firing_pruner,
)
from .ranking import (
    RankingFunction,
    ReliabilityRanking,
    TimeRanking,
    WorkloadRanking,
)
from .rankings_extra import (
    CompositeRanking,
    CourseCountRanking,
    SpreadPenaltyRanking,
)
from .ranked import RankedResult, generate_ranked
from .frontier import (
    FrontierCount,
    frontier_count_deadline_paths,
    frontier_count_goal_paths,
)
from .stats import ExplorationStats

__all__ = [
    "ExplorationConfig",
    "generate_deadline_driven",
    "DeadlineResult",
    "generate_goal_driven",
    "GoalDrivenResult",
    "generate_ranked",
    "RankedResult",
    "Pruner",
    "PrunerFactory",
    "PruneVerdict",
    "PruningStats",
    "TimeBasedPruner",
    "AvailabilityPruner",
    "DEFAULT_PRUNERS",
    "examine_pruners",
    "first_firing_pruner",
    "RankingFunction",
    "TimeRanking",
    "WorkloadRanking",
    "ReliabilityRanking",
    "CompositeRanking",
    "CourseCountRanking",
    "SpreadPenaltyRanking",
    "SelectionConstraint",
    "MaxWorkloadPerTerm",
    "MaxCoursesInTerm",
    "ForbiddenCombination",
    "RequiredCompanions",
    "TermBlackout",
    "FrontierCount",
    "frontier_count_goal_paths",
    "frontier_count_deadline_paths",
    "ExplorationStats",
]
