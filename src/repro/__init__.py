"""CourseNavigator: interactive learning path exploration (reproduction).

A from-scratch Python implementation of *CourseNavigator* (Li,
Papaemmanouil, Koutrika; ExploreDB @ SIGMOD/PODS 2016): given a course
catalog with prerequisite conditions and class schedules, enumerate, prune,
and rank the *learning paths* — per-semester course selections — that meet
a student's educational goal.

Quickstart::

    from repro import CourseNavigator, Term
    from repro.data import brandeis_catalog, brandeis_major_goal

    nav = CourseNavigator(brandeis_catalog())
    top = nav.explore_ranked(
        start_term=Term(2013, "Fall"),
        goal=brandeis_major_goal(),
        end_term=Term(2015, "Fall"),
        k=5,
        ranking="time",
    )
    for cost, path in top.ranked():
        print(cost, path)

Package map (details in DESIGN.md):

- :mod:`repro.semester` — terms and academic calendars
- :mod:`repro.catalog` — courses, prerequisite expressions, schedules
- :mod:`repro.parsing` — registrar-text parsers and catalog JSON I/O
- :mod:`repro.requirements` — goals and the max-flow ``left_i`` substrate
- :mod:`repro.graph` — the learning graph (an out-tree), paths, export
- :mod:`repro.core` — deadline-driven / goal-driven / ranked generation,
  frontier path counting
- :mod:`repro.data` — the synthetic evaluation dataset and generators
- :mod:`repro.system` — the CourseNavigator façade, visualizer, CLI
- :mod:`repro.analysis` — containment checks and path statistics
- :mod:`repro.obs` — span tracing, metrics registry, phase profiling
- :mod:`repro.cache` — the goal memo a navigator applies (library only)
"""

from .semester import AcademicCalendar, SPRING_FALL, Term, term_range
from .errors import (
    BudgetExceededError,
    CatalogError,
    CourseNavigatorError,
    ExplorationError,
    GoalError,
    ParseError,
)
from .catalog import (
    Catalog,
    Course,
    DeterministicOfferings,
    HistoricalOfferingModel,
    OfferingModel,
    Schedule,
)
from .requirements import (
    AllOfGoal,
    AnyOfGoal,
    CourseSetGoal,
    DegreeGoal,
    ExpressionGoal,
    Goal,
    RequirementGroup,
)
from .graph import EnrollmentStatus, LearningGraph, LearningPath
from .core import (
    ExplorationConfig,
    RankedResult,
    RankingFunction,
    ReliabilityRanking,
    TimeRanking,
    WorkloadRanking,
    generate_deadline_driven,
    generate_goal_driven,
    generate_ranked,
)
from .obs import (
    DecisionEvent,
    DecisionRecorder,
    ExplainReport,
    InMemorySink,
    JsonlSink,
    MetricsRegistry,
    Observability,
    Tracer,
)
from .cache import ExplorationCache
from .system import CourseNavigator

__version__ = "1.0.0"

__all__ = [
    # time
    "Term",
    "AcademicCalendar",
    "SPRING_FALL",
    "term_range",
    # errors
    "CourseNavigatorError",
    "CatalogError",
    "ParseError",
    "GoalError",
    "ExplorationError",
    "BudgetExceededError",
    # catalog
    "Course",
    "Catalog",
    "Schedule",
    "OfferingModel",
    "DeterministicOfferings",
    "HistoricalOfferingModel",
    # goals
    "Goal",
    "CourseSetGoal",
    "ExpressionGoal",
    "RequirementGroup",
    "DegreeGoal",
    "AllOfGoal",
    "AnyOfGoal",
    # graph
    "EnrollmentStatus",
    "LearningPath",
    "LearningGraph",
    # core
    "ExplorationConfig",
    "generate_deadline_driven",
    "generate_goal_driven",
    "generate_ranked",
    "RankingFunction",
    "TimeRanking",
    "WorkloadRanking",
    "ReliabilityRanking",
    "RankedResult",
    # observability
    "Tracer",
    "InMemorySink",
    "JsonlSink",
    "MetricsRegistry",
    "Observability",
    "DecisionEvent",
    "DecisionRecorder",
    "ExplainReport",
    # caching
    "ExplorationCache",
    # system
    "CourseNavigator",
    "__version__",
]
