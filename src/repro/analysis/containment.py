"""Path-containment checking (the §5.2 transcript comparison).

The paper compares 83 actual student paths with the generated goal-driven
set and finds all 83 contained.  Enumerating the 4×10⁷-path generated set
to test membership would be absurd; containment is instead decidable by
*replaying* the candidate path against the generation rules — a path is in
the output iff every step is a legal expansion move and the path ends at
its first goal-satisfying status within the deadline.  (Pruning never
removes goal-reaching paths — Lemma 1 — so it cannot affect membership.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..catalog import Catalog
from ..core.config import ExplorationConfig
from ..core.expansion import Expander
from ..graph.path import LearningPath
from ..requirements import Goal
from ..semester import Term

__all__ = ["is_generated_goal_path", "check_containment", "ContainmentReport"]


def is_generated_goal_path(
    catalog: Catalog,
    goal: Goal,
    path: LearningPath,
    end_term: Term,
    config: Optional[ExplorationConfig] = None,
) -> Tuple[bool, str]:
    """Whether ``path`` belongs to the goal-driven output set.

    Returns ``(verdict, reason)``; ``reason`` pinpoints the first violated
    rule when the verdict is false (useful when auditing a registrar
    transcript that claims to complete the degree).
    """
    config = config or ExplorationConfig()
    expander = Expander(catalog, end_term, config)
    status = expander.initial_status(path.start.term, path.start.completed)

    for index, (term, selection) in enumerate(path):
        if goal.is_satisfied(status.completed):
            return False, (
                f"step {index}: the goal is already satisfied at {term} — "
                f"generated paths end at the first goal status"
            )
        if status.term >= end_term:
            return False, f"step {index}: past the end semester {end_term}"
        child = expander.successor(status, frozenset(selection))
        if child is None:
            return False, (
                f"step {index}: selection {sorted(selection)} is not a legal "
                f"move at {term} (options {sorted(status.options)})"
            )
        status = child

    if not goal.is_satisfied(status.completed):
        return False, f"final status at {status.term} does not satisfy the goal"
    if status.term > end_term:
        return False, f"goal reached after the end semester ({status.term} > {end_term})"
    return True, "contained"


@dataclass
class ContainmentReport:
    """Aggregate result of checking many candidate paths."""

    total: int = 0
    contained: int = 0
    failures: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def all_contained(self) -> bool:
        """True when every checked path is in the generated set."""
        return self.contained == self.total

    @property
    def containment_rate(self) -> float:
        """Fraction of paths contained."""
        if self.total == 0:
            return 1.0
        return self.contained / self.total

    def summary(self) -> str:
        """One line, e.g. ``83/83 paths contained``."""
        return f"{self.contained}/{self.total} paths contained"


def check_containment(
    catalog: Catalog,
    goal: Goal,
    paths: Sequence[LearningPath],
    end_term: Term,
    config: Optional[ExplorationConfig] = None,
) -> ContainmentReport:
    """Run :func:`is_generated_goal_path` over a path collection."""
    report = ContainmentReport()
    for index, path in enumerate(paths):
        report.total += 1
        verdict, reason = is_generated_goal_path(catalog, goal, path, end_term, config)
        if verdict:
            report.contained += 1
        else:
            report.failures.append((index, reason))
    return report
