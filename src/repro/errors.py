"""Exception hierarchy for the CourseNavigator reproduction.

All library-raised exceptions derive from :class:`CourseNavigatorError` so
callers can catch everything the library raises with a single ``except``
clause while still distinguishing failure classes when they need to.
"""

from __future__ import annotations

__all__ = [
    "CourseNavigatorError",
    "CatalogError",
    "UnknownCourseError",
    "DuplicateCourseError",
    "ParseError",
    "PrerequisiteParseError",
    "ScheduleParseError",
    "GoalError",
    "ExplorationError",
    "BudgetExceededError",
    "RunCancelledError",
    "InvalidConfigError",
]


class CourseNavigatorError(Exception):
    """Base class for every exception raised by this library."""


class CatalogError(CourseNavigatorError):
    """A problem with catalog contents (courses, schedules, references)."""


class UnknownCourseError(CatalogError, KeyError):
    """A course id was referenced that the catalog does not contain.

    Inherits from :class:`KeyError` so mapping-style lookups behave naturally.
    """

    def __init__(self, course_id: str, context: str = ""):
        self.course_id = course_id
        self.context = context
        message = f"unknown course {course_id!r}"
        if context:
            message = f"{message} ({context})"
        super().__init__(message)

    def __str__(self) -> str:  # KeyError.__str__ repr-quotes its arg
        return self.args[0]


class DuplicateCourseError(CatalogError):
    """The same course id was added to a catalog twice."""

    def __init__(self, course_id: str):
        self.course_id = course_id
        super().__init__(f"duplicate course {course_id!r}")


class ParseError(CourseNavigatorError, ValueError):
    """Base class for registrar-input parsing failures.

    Carries the offending text and position so front-ends can point at the
    exact spot that failed.
    """

    def __init__(self, message: str, text: str = "", position: int | None = None):
        self.text = text
        self.position = position
        if position is not None:
            message = f"{message} (at position {position} in {text!r})"
        elif text:
            message = f"{message} (in {text!r})"
        super().__init__(message)


class PrerequisiteParseError(ParseError):
    """A prerequisite description string could not be parsed."""


class ScheduleParseError(ParseError):
    """A schedule table row or term name could not be parsed."""


class GoalError(CourseNavigatorError):
    """A goal requirement is malformed or cannot be evaluated."""


class ExplorationError(CourseNavigatorError):
    """A path-generation run was misconfigured or failed."""


class BudgetExceededError(ExplorationError):
    """An exploration exceeded one of its limits.

    The limits are the :class:`~repro.core.config.ExplorationConfig`
    fields ``max_nodes``, ``max_wall_seconds`` and ``max_memory_bytes``
    (kinds ``"nodes"``, ``"wall seconds"``, ``"memory bytes"``) and the
    frontier counters' ``max_frontier`` (``"frontier states"``).  The
    paper's deadline-driven algorithm exhausts memory beyond five
    semesters; this exception is the library's controlled equivalent of that
    failure mode.  Attributes record what was exceeded so harnesses (and the
    Table 2 benchmark) can report ``N/A`` rows faithfully.

    ``partial_stats`` carries the run's
    :class:`~repro.core.stats.ExplorationStats` as of the abort.  When a
    :class:`~repro.obs.live.ProgressTracker` is attached to the run,
    ``progress`` carries its final
    :class:`~repro.obs.live.ProgressSnapshot`, so a supervisor can report
    how far the reaped run got; it is ``None`` on untracked runs.
    """

    def __init__(
        self,
        kind: str,
        limit: float,
        observed: float,
        progress=None,
        partial_stats=None,
    ):
        self.kind = kind
        self.limit = limit
        self.observed = observed
        self.progress = progress
        self.partial_stats = partial_stats
        super().__init__(
            f"exploration budget exceeded: {kind} limit {limit} reached (observed {observed})"
        )


class RunCancelledError(BudgetExceededError):
    """A run was cooperatively cancelled from another thread.

    Raised by the exploration thread at its next node after
    :meth:`~repro.obs.live.ProgressTracker.cancel` was called on the run's
    tracker (by a :class:`~repro.obs.live.Watchdog`, a request handler, an
    operator).  Subclasses
    :class:`BudgetExceededError` so "bounded or reaped" is one except
    clause, and carries the same ``progress``/``partial_stats`` payload.
    """

    def __init__(self, reason: str = "cancelled", progress=None, partial_stats=None):
        self.reason = reason
        # kind/limit/observed keep the parent's contract meaningful:
        # a cancellation is a zero-tolerance budget observed once.
        self.kind = "cancelled"
        self.limit = 0
        self.observed = 1
        self.progress = progress
        self.partial_stats = partial_stats
        Exception.__init__(self, f"exploration cancelled: {reason}")


class InvalidConfigError(ExplorationError, ValueError):
    """An exploration setting is invalid: an
    :class:`~repro.core.config.ExplorationConfig` field (a run limit among
    them), a display truncation limit, a telemetry server port, a horizon
    length or a transcript count."""
