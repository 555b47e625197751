"""Simulated student transcripts (the §5.2 comparison data).

The paper obtained 83 anonymized transcripts of students who completed the
CS major between Fall '12 and Fall '15 and checked that every one of those
real paths appears among the 41.5M generated goal-driven paths.  The
transcripts are private, so this module simulates a student body instead:
each student repeatedly elects a legal selection (via the same
:class:`~repro.core.expansion.Expander` the generators use, so every
simulated move is valid by construction) under a noisy
requirements-seeking policy — core courses first, then missing electives,
with occasional detours — and only students who complete the goal by the
deadline graduate into the sample.

The containment experiment then checks each simulated path with
:func:`repro.analysis.containment.is_generated_goal_path`, exercising the
same invariant as the paper: the goal-driven algorithm generates *every*
constraint-respecting path to the goal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import AbstractSet, List, Optional

from ..catalog import Catalog
from ..core.config import ExplorationConfig
from ..core.expansion import Expander
from ..errors import ExplorationError, InvalidConfigError
from ..graph.path import LearningPath
from ..requirements import Goal
from ..semester import Term
from .policies import RequirementsSeekingPolicy, SelectionPolicy

__all__ = ["SimulatedStudentBody", "simulate_transcripts"]


@dataclass
class SimulatedStudentBody:
    """The outcome of a transcript simulation."""

    paths: List[LearningPath]
    attempts: int
    successes: int

    def __len__(self) -> int:
        return len(self.paths)

    @property
    def success_rate(self) -> float:
        """Fraction of simulated students who completed the goal in time."""
        if self.attempts == 0:
            return 0.0
        return self.successes / self.attempts


def _simulate_one(
    rng: random.Random,
    expander: Expander,
    goal: Goal,
    start_term: Term,
    end_term: Term,
    completed: AbstractSet[str],
    policy: "SelectionPolicy",
) -> Optional[LearningPath]:
    """One student's run; ``None`` when the goal is missed."""
    status = expander.initial_status(start_term, completed)
    statuses = [status]
    selections: List[frozenset] = []
    config = expander.config
    while not goal.is_satisfied(status.completed):
        if status.term >= end_term:
            return None
        legal = dict(expander.successors(status))
        if not legal:
            return None
        if status.options:
            selection = frozenset(
                policy.choose(rng, status, goal, config.max_courses_per_term)
            )
            if selection not in legal:
                # A policy pick is always a non-empty option subset, but a
                # custom config (constraints, selection floors) may still
                # reject it; fall back to any legal move.
                selection = rng.choice(sorted(legal, key=sorted))
        else:
            selection = frozenset()
            if selection not in legal:
                return None
        status = legal[selection]
        statuses.append(status)
        selections.append(selection)
    return LearningPath(statuses, selections)


def simulate_transcripts(
    catalog: Catalog,
    goal: Goal,
    start_term: Term,
    end_term: Term,
    count: int = 83,
    seed: int = 2016,
    config: Optional[ExplorationConfig] = None,
    completed: AbstractSet[str] = frozenset(),
    max_attempts: Optional[int] = None,
    policy: Optional[SelectionPolicy] = None,
) -> SimulatedStudentBody:
    """Simulate students until ``count`` of them complete ``goal`` in time.

    Parameters
    ----------
    count:
        Number of graduating transcripts to collect (paper: 83); a
        negative count raises :class:`~repro.errors.InvalidConfigError`.
    seed:
        RNG seed; the same seed reproduces the same student body.
    max_attempts:
        Give up (raising :class:`~repro.errors.ExplorationError`) after
        this many simulated students; defaults to ``200 × count``.
    policy:
        The behavioural archetype (see :mod:`repro.data.policies`);
        defaults to :class:`RequirementsSeekingPolicy`.

    Returns
    -------
    SimulatedStudentBody
        ``paths`` are the graduating students' learning paths, each ending
        at the first goal-satisfying status (mirroring where the
        goal-driven generator terminates its paths).
    """
    if count < 0:
        raise InvalidConfigError(f"students must be >= 0, got {count}")
    config = config or ExplorationConfig()
    max_attempts = max_attempts if max_attempts is not None else 200 * count
    policy = policy or RequirementsSeekingPolicy()
    rng = random.Random(seed)
    expander = Expander(catalog, end_term, config)

    paths: List[LearningPath] = []
    attempts = 0
    while len(paths) < count:
        if attempts >= max_attempts:
            raise ExplorationError(
                f"only {len(paths)}/{count} simulated students completed the "
                f"goal within {max_attempts} attempts — the horizon or goal "
                f"is likely infeasible"
            )
        attempts += 1
        path = _simulate_one(
            rng, expander, goal, start_term, end_term, completed, policy
        )
        if path is not None:
            paths.append(path)
    return SimulatedStudentBody(paths=paths, attempts=attempts, successes=len(paths))
