"""Interactive planning sessions — stateful what-if exploration.

The paper's introduction frames the problem interactively: *"which course
selections increase my future course options and number of possible paths
to a CS major?"*.  A :class:`PlanningSession` is that loop as an API:

* it tracks a student's evolving enrollment status term by term,
* :meth:`options` / :meth:`audit` / :meth:`routes_remaining` answer
  "where am I and is the goal still reachable",
* :meth:`preview` scores a candidate selection **before committing**:
  next-term options it would unlock and the exact number of goal routes
  that would remain,
* :meth:`take` / :meth:`skip_term` / :meth:`undo` move through time, and
* :meth:`best_plans` hands the rest of the planning to the ranked
  generator.

Every transition is validated through the same
:class:`~repro.core.expansion.Expander` the generators use, so a session
can never wander into a state the algorithms would not generate.  Route
counts and plans run through the session's navigator, so they use its
cache and report into its observability bundle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, FrozenSet, List, Optional, Tuple

from ..catalog import Catalog
from ..core import ExplorationConfig, RankedResult
from ..core.expansion import Expander
from ..errors import ExplorationError
from ..graph.path import LearningPath
from ..graph.status import EnrollmentStatus
from ..requirements import Goal
from ..requirements.progress import GoalProgress, progress_report
from ..semester import Term
from .navigator import CourseNavigator, RankingSpec

__all__ = ["PlanningSession", "SelectionPreview"]


@dataclass(frozen=True)
class SelectionPreview:
    """What committing to one selection would mean."""

    selection: FrozenSet[str]
    next_term_options: FrozenSet[str]
    routes_remaining: int
    goal_satisfied: bool

    def describe(self) -> str:
        """One line suitable for a pick-list UI."""
        courses = ", ".join(sorted(self.selection)) or "(skip)"
        if self.goal_satisfied:
            return f"{courses}  ->  goal satisfied"
        return (
            f"{courses}  ->  {len(self.next_term_options)} next-term options, "
            f"{self.routes_remaining:,} routes to the goal"
        )


class PlanningSession:
    """One student's interactive exploration toward one goal."""

    def __init__(
        self,
        navigator: CourseNavigator,
        goal: Goal,
        start_term: Term,
        deadline: Term,
        completed: AbstractSet[str] = frozenset(),
        config: Optional[ExplorationConfig] = None,
    ):
        if deadline < start_term:
            raise ExplorationError(f"deadline {deadline} precedes start {start_term}")
        self._navigator = navigator
        self._goal = goal
        self._deadline = deadline
        self._config = config or ExplorationConfig()
        self._expander = Expander(navigator.catalog, deadline, self._config)
        self._status = self._expander.initial_status(start_term, frozenset(completed))
        self._history: List[Tuple[EnrollmentStatus, FrozenSet[str]]] = []

    # -- state ----------------------------------------------------------------

    @property
    def catalog(self) -> Catalog:
        """The catalog being explored."""
        return self._navigator.catalog

    @property
    def goal(self) -> Goal:
        """The session's goal requirement."""
        return self._goal

    @property
    def status(self) -> EnrollmentStatus:
        """The current enrollment status."""
        return self._status

    @property
    def term(self) -> Term:
        """The current semester."""
        return self._status.term

    @property
    def deadline(self) -> Term:
        """The end semester ``d``."""
        return self._deadline

    @property
    def completed(self) -> FrozenSet[str]:
        """Courses completed so far."""
        return self._status.completed

    @property
    def semesters_left(self) -> int:
        """Transitions remaining until the deadline."""
        return self._deadline - self._status.term

    def path_so_far(self) -> LearningPath:
        """The selections committed in this session as a learning path."""
        statuses = [status for status, _sel in self._history] + [self._status]
        selections = [sel for _status, sel in self._history]
        return LearningPath(statuses, selections)

    # -- queries ----------------------------------------------------------------

    def options(self) -> FrozenSet[str]:
        """The option set ``Y`` for the current term."""
        return self._status.options

    def legal_selections(self) -> List[FrozenSet[str]]:
        """Every selection the generators would consider from here."""
        return [selection for selection, _completed in self._expander.successors(self._status)]

    def audit(self) -> GoalProgress:
        """Degree-audit view of the current standing."""
        return progress_report(self._goal, self._status.completed)

    def goal_satisfied(self) -> bool:
        """Whether the goal is already met."""
        return self._goal.is_satisfied(self._status.completed)

    def routes_remaining(self) -> int:
        """Exact number of goal routes from the current status."""
        return self._navigator.count_goal(
            self._status.term,
            self._goal,
            self._deadline,
            completed=self._status.completed,
            config=self._config,
        )

    def preview(self, *course_ids: str) -> SelectionPreview:
        """Score a candidate selection without committing to it.

        Raises :class:`~repro.errors.ExplorationError` when the selection
        is not a legal move from the current status.
        """
        selection = frozenset(course_ids)
        child = self._legal_child(selection)
        satisfied = self._goal.is_satisfied(child.completed)
        routes = 0
        if not satisfied:
            routes = self._navigator.count_goal(
                child.term,
                self._goal,
                self._deadline,
                completed=child.completed,
                config=self._config,
            )
        return SelectionPreview(
            selection=selection,
            next_term_options=child.options,
            routes_remaining=routes,
            goal_satisfied=satisfied,
        )

    def preview_all(self) -> List[SelectionPreview]:
        """Previews for every legal selection, best (most routes) first.

        This is the introduction's question answered wholesale: which
        selection keeps the most doors open.
        """
        previews = [self.preview(*selection) for selection in self.legal_selections()]
        previews.sort(key=lambda p: (not p.goal_satisfied, -p.routes_remaining))
        return previews

    def best_plans(self, k: int = 3, ranking: RankingSpec = "time") -> RankedResult:
        """Top-k complete plans from the current status."""
        return self._navigator.explore_ranked(
            self._status.term,
            self._goal,
            self._deadline,
            k=k,
            ranking=ranking,
            completed=self._status.completed,
            config=self._config,
        )

    # -- transitions -------------------------------------------------------------

    def _legal_child(self, selection: FrozenSet[str]) -> EnrollmentStatus:
        if self._status.term >= self._deadline:
            raise ExplorationError(f"the session has reached its deadline {self._deadline}")
        child = self._expander.successor(self._status, selection)
        if child is None:
            raise ExplorationError(
                f"selection {sorted(selection)} is not a legal move at "
                f"{self._status.term} (options: {sorted(self._status.options)})"
            )
        return child

    def take(self, *course_ids: str) -> EnrollmentStatus:
        """Commit to electing the given courses this term and advance."""
        selection = frozenset(course_ids)
        child = self._legal_child(selection)
        self._history.append((self._status, selection))
        self._status = child
        return child

    def skip_term(self) -> EnrollmentStatus:
        """Commit to an empty selection (when legal) and advance."""
        return self.take()

    def undo(self) -> EnrollmentStatus:
        """Roll back the most recent transition."""
        if not self._history:
            raise ExplorationError("nothing to undo")
        self._status, _selection = self._history.pop()
        return self._status

    def __repr__(self) -> str:
        return (
            f"PlanningSession({self._status.term}, "
            f"{len(self._status.completed)} completed, "
            f"deadline {self._deadline})"
        )
