"""Goal requirements and the machinery that evaluates them.

A *goal requirement* is the paper's condition on a future enrollment status
(Section 2, "Exploration Tasks"): complete a set of interesting courses,
finish a degree (7 core + 5 electives in the evaluation), or any boolean
condition over completed courses.

Beyond a yes/no test, the goal-driven algorithm's time-based pruning
(§4.2.1) needs ``left_i`` — the **minimum number of additional courses**
required to satisfy the goal — defined, per the paper's citation of
Parameswaran et al. (TOIS 2011), by Ford–Fulkerson max-flow.
:class:`DegreeGoal` computes it as a closed form (disjoint groups) or a
bipartite matching (overlapping groups); the max-flow solver lives in
:mod:`repro.requirements.flow`, implemented from scratch (Edmonds–Karp),
cross-checked against networkx and used as the seat counter's oracle in
the test suite.

This layer does not depend on :mod:`repro.obs`: a timed run charges goal
queries to its ``goal`` phase by wrapping the goal it was given.
"""

from .flow import FlowNetwork, max_flow
from .goals import (
    AllOfGoal,
    AnyOfGoal,
    CourseSetGoal,
    DegreeGoal,
    ExpressionGoal,
    Goal,
    RequirementGroup,
)
from .extended import CreditGoal, TagCountGoal
from .progress import GoalProgress, GroupProgress, progress_report

__all__ = [
    "FlowNetwork",
    "max_flow",
    "Goal",
    "CourseSetGoal",
    "ExpressionGoal",
    "RequirementGroup",
    "DegreeGoal",
    "AllOfGoal",
    "AnyOfGoal",
    "CreditGoal",
    "TagCountGoal",
    "GoalProgress",
    "GroupProgress",
    "progress_report",
]
