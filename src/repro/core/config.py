"""Exploration configuration — the student's constraints.

The paper's front-end collects, besides the goal itself, the student's
constraints: the maximum number of courses per semester ``m``, courses to
avoid, and so on (Section 3).  :class:`ExplorationConfig` bundles those
knobs plus the reproduction's engineering controls (node, wall-time and
memory limits, empty-selection policy, the strategic-selection
optimization).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, FrozenSet, Optional, Tuple

from ..catalog.schedule import Schedule
from ..errors import InvalidConfigError

if TYPE_CHECKING:
    from .constraints import SelectionConstraint

__all__ = ["ExplorationConfig"]

_EMPTY_POLICIES = ("auto", "always", "never")


@dataclass(frozen=True)
class ExplorationConfig:
    """Constraints and engine knobs for one exploration run.

    Parameters
    ----------
    max_courses_per_term:
        The paper's ``m``: an elected selection ``W`` satisfies
        ``1 ≤ |W| ≤ m`` (empty selections are governed separately).  The
        evaluation uses ``m = 3``.
    avoid_courses:
        Courses the student refuses to take; removed from every option set.
    empty_selection:
        When a semester may be skipped (``W = ∅``):

        * ``"auto"`` (default, paper-faithful): only when the option set is
          empty *and* some not-yet-completed, non-avoided course is offered
          in a later semester within the horizon — this reproduces Fig. 3,
          where ``n4`` (no options, 11A returns next fall) advances on an
          empty edge while ``n6`` (nothing relevant ever again) stops.
        * ``"always"``: skipping is allowed alongside non-empty selections
          (models part-time students / leaves of absence).
        * ``"never"``: a node with an empty option set is always a dead end.
    enforce_min_selection:
        The paper's "strategic course selections" refinement (§4.2.1): when
        time-based pruning computes that at least ``min_i`` courses must be
        taken this semester, skip generating selections smaller than
        ``min_i``.  Provably output-preserving (smaller selections lead to
        children the time pruner rejects anyway); exposed as a switch so the
        ablation benchmark can quantify it.  Only consulted by goal-driven
        generation.
    max_nodes:
        Abort with :class:`~repro.errors.BudgetExceededError` once the
        graph holds this many nodes (``None`` = unbounded).  This is the
        controlled stand-in for the paper's out-of-memory rows in Table 2.
    max_wall_seconds:
        Abort with :class:`~repro.errors.BudgetExceededError` (kind
        ``"wall seconds"``) once the run has taken longer than this; checked
        at every decided node (``None`` = unbounded).
    max_memory_bytes:
        Abort (kind ``"memory bytes"``) once process memory exceeds this;
        probed every :data:`~repro.core.step.MEMORY_PROBE_INTERVAL` decided
        nodes (``None`` = unbounded).  Both limits accept 0 and ``inf``; a
        negative or NaN value raises :class:`~repro.errors.InvalidConfigError`.
    schedule:
        Optional schedule override (e.g. a projected probabilistic schedule
        from an :class:`~repro.catalog.OfferingModel`); defaults to the
        catalog's released schedule.
    constraints:
        Per-semester :class:`~repro.core.constraints.SelectionConstraint`
        objects (workload caps, forbidden pairings, blackout terms …).  A
        candidate selection must satisfy all of them or the transition is
        never generated — equivalent to post-filtering the path set, but
        without building the violating subtrees.
    """

    max_courses_per_term: int = 3
    avoid_courses: FrozenSet[str] = field(default_factory=frozenset)
    empty_selection: str = "auto"
    enforce_min_selection: bool = True
    max_nodes: Optional[int] = None
    max_wall_seconds: Optional[float] = None
    max_memory_bytes: Optional[float] = None
    schedule: Optional[Schedule] = None
    constraints: Tuple["SelectionConstraint", ...] = ()

    def __post_init__(self) -> None:
        if self.max_courses_per_term < 1:
            raise InvalidConfigError(
                f"max_courses_per_term must be >= 1, got {self.max_courses_per_term}"
            )
        if self.empty_selection not in _EMPTY_POLICIES:
            raise InvalidConfigError(
                f"empty_selection must be one of {_EMPTY_POLICIES}, "
                f"got {self.empty_selection!r}"
            )
        if self.max_nodes is not None and self.max_nodes < 1:
            raise InvalidConfigError(f"max_nodes must be >= 1, got {self.max_nodes}")
        for name in ("max_wall_seconds", "max_memory_bytes"):
            limit = getattr(self, name)
            if limit is not None and not limit >= 0:  # NaN fails too
                raise InvalidConfigError(f"{name} must be >= 0, got {limit}")
        if not isinstance(self.avoid_courses, frozenset):
            object.__setattr__(self, "avoid_courses", frozenset(self.avoid_courses))
        if not isinstance(self.constraints, tuple):
            object.__setattr__(self, "constraints", tuple(self.constraints))
