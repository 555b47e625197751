"""Plan repair — recovering from schedule disruptions.

Reliability ranking prices the risk that a planned offering falls
through; this module handles the moment it actually does.  Given the
original plan and the term where reality diverged (a course cancelled, a
section full, a failed class), :func:`replan` rolls the student back to
their true status at that term, re-runs ranked exploration from there —
optionally with the disrupted course excluded — and reports the repaired
plan together with a diff against the original.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import AbstractSet, Optional

from ..catalog import Catalog
from ..core import ExplorationConfig, RankedResult, TimeRanking, generate_ranked
from ..core.ranking import RankingFunction
from ..errors import ExplorationError
from ..graph.path import LearningPath
from ..requirements import Goal
from ..semester import Term
from .compare import PathDiff

__all__ = ["RepairResult", "replan"]


@dataclass(frozen=True)
class RepairResult:
    """Outcome of a re-planning run."""

    original: LearningPath
    repaired: Optional[LearningPath]
    alternatives: RankedResult
    diff: Optional[PathDiff]
    delay_semesters: Optional[int]

    @property
    def recoverable(self) -> bool:
        """Whether any plan still reaches the goal by the deadline."""
        return self.repaired is not None

    def describe(self) -> str:
        if not self.recoverable:
            return "no plan reaches the goal by the deadline anymore"
        delay = self.delay_semesters or 0
        head = (
            "recovered with no delay"
            if delay <= 0
            else f"recovered with a {delay}-semester delay"
        )
        assert self.diff is not None
        return f"{head}; {self.diff.describe()}"


def replan(
    catalog: Catalog,
    goal: Goal,
    original: LearningPath,
    disrupted_term: Term,
    deadline: Term,
    dropped_courses: AbstractSet[str] = frozenset(),
    avoid_dropped: bool = False,
    ranking: Optional[RankingFunction] = None,
    config: Optional[ExplorationConfig] = None,
    k: int = 3,
) -> RepairResult:
    """Re-plan from the point a plan went off the rails.

    Parameters
    ----------
    original:
        The plan being followed.
    disrupted_term:
        The term whose selection did not happen as planned.  Everything
        *before* it is treated as actually completed.
    dropped_courses:
        Courses from the disrupted term's selection that did **not**
        complete (default: the whole selection).  Courses not listed are
        assumed completed as planned.
    avoid_dropped:
        When true, the replacement plans never retake the dropped
        courses (a cancelled seminar that will not return).
    ranking:
        Ranking for the replacement plans (default: time — finish as
        soon as possible).

    Returns
    -------
    RepairResult
        ``repaired`` is the best replacement plan *from the disruption
        point* (prefixed selections are not repeated in it);
        ``delay_semesters`` compares its completion term with the
        original plan's.
    """
    config = config or ExplorationConfig()
    ranking = ranking or TimeRanking()

    # Reconstruct the student's true status entering the disrupted term.
    completed = set(original.start.completed)
    planned_selection: Optional[AbstractSet[str]] = None
    for term, selection in original:
        if term < disrupted_term:
            completed |= selection
        elif term == disrupted_term:
            planned_selection = selection
            break
    if planned_selection is None:
        raise ExplorationError(
            f"{disrupted_term} is not a planned term of the original plan"
        )
    dropped = frozenset(dropped_courses) if dropped_courses else frozenset(planned_selection)
    unknown = dropped - planned_selection
    if unknown:
        raise ExplorationError(
            f"dropped courses {sorted(unknown)} were not planned in {disrupted_term}"
        )
    completed |= planned_selection - dropped

    if avoid_dropped:
        config = replace(config, avoid_courses=config.avoid_courses | dropped)

    # The student lost the disrupted term: re-planning starts next term.
    restart = disrupted_term + 1
    alternatives = generate_ranked(
        catalog,
        restart,
        goal,
        deadline,
        k,
        ranking,
        completed=frozenset(completed),
        config=config,
    )

    if not alternatives.paths:
        return RepairResult(
            original=original,
            repaired=None,
            alternatives=alternatives,
            diff=None,
            delay_semesters=None,
        )

    repaired = alternatives.paths[0]
    delay = repaired.end.term - original.end.term

    # Diff against the original's tail from the same point, re-rooted at
    # the true status (course sets may differ because of the drop).
    diff = None
    if repaired.start.term == restart:
        try:
            original_tail_terms = {
                term: sel for term, sel in original if term >= restart
            }
            diff = _tail_diff(repaired, original_tail_terms)
        except ValueError:
            diff = None

    return RepairResult(
        original=original,
        repaired=repaired,
        alternatives=alternatives,
        diff=diff,
        delay_semesters=delay,
    )


def _tail_diff(repaired: LearningPath, original_tail: dict) -> PathDiff:
    """Diff the repaired plan against the original's remaining terms."""
    repaired_terms = {term: sel for term, sel in repaired}
    changes = []
    for term in sorted(set(repaired_terms) | set(original_tail)):
        sel_new = repaired_terms.get(term, frozenset())
        sel_old = original_tail.get(term, frozenset())
        if sel_new != sel_old:
            changes.append((term, sel_new, sel_old))
    new_courses = frozenset().union(*repaired_terms.values()) if repaired_terms else frozenset()
    old_courses = frozenset().union(*original_tail.values()) if original_tail else frozenset()
    divergence = changes[0][0] if changes else None
    shared = tuple(
        (term, repaired_terms[term])
        for term in sorted(repaired_terms)
        if original_tail.get(term) == repaired_terms[term]
        and (divergence is None or term < divergence)
    )
    return PathDiff(
        shared_prefix=shared,
        divergence_term=divergence,
        only_in_first=new_courses - old_courses,
        only_in_second=old_courses - new_courses,
        per_term_changes=tuple(changes),
    )
