"""The goal-driven algorithm's pruning strategies (§4.2.1–4.2.2).

Both strategies answer the same question about a node ``n_i``: *can any
path out of here still satisfy the goal by the end semester?*  Both are
sound (Lemma 1 and the analogous argument for availability pruning): they
only cut subtrees that provably contain no goal path, which the test suite
verifies by comparing pruned and unpruned output path sets.

* :class:`TimeBasedPruner` —
  ``min_i = left_i − m·(d − s_i − 1)``; prune when ``min_i > m``.
  ``left_i`` is the goal's minimum-additional-courses bound, computed by
  the goal itself (max-flow for degree goals, per Parameswaran et al.).
  The pruner also exposes ``min_i`` so the generator can skip selections
  smaller than it ("strategic course selections").

* :class:`AvailabilityPruner` — assume the student takes *every* course
  offered in the remaining semesters (``s_i`` through ``d − 1``; a course
  taken in term ``t`` completes by ``t + 1``); if the goal is still not
  satisfied, prune.  This catches what the time bound's best-case
  assumption misses: courses that simply will not be offered in time
  (Fig. 3's ``n4``).

Strategies are consulted in list order and the **first** one that fires
gets the credit in :class:`PruningStats` — the paper's 82%/18% split is
measured the same way (time-based is listed first).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..graph.status import EnrollmentStatus
from ..requirements import Goal
from .expansion import Expander

__all__ = [
    "PruneVerdict",
    "Pruner",
    "PrunerFactory",
    "TimeBasedPruner",
    "AvailabilityPruner",
    "PruningStats",
    "DEFAULT_PRUNERS",
    "first_firing_pruner",
    "examine_pruners",
]


def _jsonable(value: float) -> Any:
    """Bound values as JSON-strict numbers (``inf`` becomes the string
    ``"inf"`` so verdicts survive any JSON round-trip)."""
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


@dataclass(frozen=True)
class PruneVerdict:
    """One strategy's structured answer for one node — the EXPLAIN record.

    ``detail`` carries the concrete bound values the decision rests on
    (``left_i``, ``min_i``, ``m``, ``semesters_after_this`` = ``d − s_i − 1``
    for the time bound; the availability shortfall courses for the
    availability bound) plus counterfactuals when the strategy fired: what
    ``m`` or ``d`` would have had to be for the node to survive.  Every
    value is JSON-serializable so verdicts flow into decision-audit files
    unchanged.
    """

    strategy: str
    fired: bool
    detail: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """A plain JSON-serializable snapshot (strict: no ``Infinity``)."""
        return {
            "strategy": self.strategy,
            "fired": self.fired,
            "detail": {key: _jsonable(value) for key, value in self.detail.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PruneVerdict":
        """Inverse of :meth:`as_dict` (restores ``"inf"`` bound values)."""
        return cls(
            strategy=data["strategy"],
            fired=bool(data["fired"]),
            detail={
                key: math.inf if value == "inf" else value
                for key, value in data.get("detail", {}).items()
            },
        )


class Pruner:
    """Abstract pruning strategy.

    Subclasses must be *sound*: ``should_prune(status)`` may return true
    only when no expansion of ``status`` can reach a goal node by the end
    semester.  ``examine`` is the structured form of the same answer; the
    built-in strategies override it to expose the actual bound values,
    while ``should_prune`` remains the allocation-free hot path.

    The run builds each strategy as ``cls(goal, expander)``: ``goal`` is
    the goal the run queries (cached and timed like its own queries) and
    ``expander`` its :class:`~repro.core.expansion.Expander` (catalog,
    deadline ``d``, config, schedule and ``offered_from``).
    """

    #: Short identifier used in statistics (``"time"``, ``"availability"``).
    name: str = "pruner"

    def __init__(self, goal: Goal, expander: Expander):
        self.goal = goal
        self.expander = expander

    def should_prune(self, status: EnrollmentStatus) -> bool:
        """Whether the subtree rooted at ``status`` is provably goalless."""
        raise NotImplementedError

    def examine(self, status: EnrollmentStatus) -> PruneVerdict:
        """The same decision as :meth:`should_prune`, with its evidence.

        The default wraps ``should_prune`` with an empty detail dict so
        third-party strategies keep working under explain recording.
        """
        return PruneVerdict(strategy=self.name, fired=self.should_prune(status))


class TimeBasedPruner(Pruner):
    """§4.2.1: not enough semesters remain even in the best case."""

    name = "time"

    def __init__(self, goal: Goal, expander: Expander):
        super().__init__(goal, expander)
        self._m = expander.config.max_courses_per_term
        # ``d − s_i − 1`` is taken on ordinals: a status's term is on the
        # run's calendar.
        self._end_ordinal = expander.end_term.ordinal

    def _bound(self, status: EnrollmentStatus) -> Tuple[float, int, int, float]:
        """``(left_i, m, semesters after this one, min_i)`` at ``status``,
        with ``min_i = left_i − m·(d − s_i − 1)``."""
        left = self.goal.remaining_courses(status.completed)
        m = self._m
        semesters_after = self._end_ordinal - status.term.ordinal - 1
        min_i = math.inf if math.isinf(left) else left - m * semesters_after
        return left, m, semesters_after, min_i

    def min_required_this_term(self, status: EnrollmentStatus) -> float:
        """The paper's ``min_i``: the fewest courses that must be taken in
        this semester for the goal to remain reachable, assuming ``m``
        courses in every later semester.  May be ≤ 0 (no constraint),
        ``> m`` (hopeless), or ``inf`` (goal unsatisfiable outright)."""
        return self._bound(status)[3]

    def should_prune(self, status: EnrollmentStatus) -> bool:
        return self.min_required_this_term(status) > self._m

    def examine(self, status: EnrollmentStatus) -> PruneVerdict:
        left, m, semesters_after, min_i = self._bound(status)
        fired = min_i > m
        detail: Dict[str, Any] = {
            "left_i": _jsonable(left),
            "min_i": _jsonable(min_i),
            "m": m,
            "semesters_after_this": semesters_after,
            # Signed distance to the bound: > 0 means the node was cut,
            # <= 0 is the surviving margin (0 is the nearest near-miss).
            "slack": _jsonable(min_i - m),
        }
        if fired and not math.isinf(left):
            # Counterfactuals: the smallest per-term cap, and the fewest
            # extra semesters, under which this node would have survived.
            semesters_remaining = semesters_after + 1  # includes this term
            detail["required_m"] = int(math.ceil(left / semesters_remaining))
            needed_after = int(math.ceil((left - m) / m))
            detail["extra_semesters"] = needed_after - semesters_after
        return PruneVerdict(strategy=self.name, fired=fired, detail=detail)


class AvailabilityPruner(Pruner):
    """§4.2.2: even taking everything still offered cannot meet the goal."""

    name = "availability"

    def should_prune(self, status: EnrollmentStatus) -> bool:
        # The optimistic end-semester completion set X_e: everything done
        # plus everything that could still be taken (ignoring prerequisites
        # and the per-term cap — both only shrink it, keeping this sound).
        best_case = status.completed | self.expander.offered_from(status.term)
        return not self.goal.is_satisfied(best_case)

    def examine(self, status: EnrollmentStatus) -> PruneVerdict:
        goal = self.goal
        offered = self.expander.offered_from(status.term)
        best_case = status.completed | offered
        fired = not goal.is_satisfied(best_case)
        detail: Dict[str, Any] = {"offered_remaining": len(offered)}
        if fired:
            # How many courses the goal still lacks even in the best case,
            # and which goal courses will never be on offer again — the
            # Fig. 3 n4 evidence ("what exactly is unavailable?").
            detail["shortfall"] = _jsonable(goal.remaining_courses(best_case))
            detail["unavailable_goal_courses"] = sorted(goal.courses() - best_case)
        return PruneVerdict(strategy=self.name, fired=fired, detail=detail)


class PruningStats:
    """Per-strategy prune-event counters for one run.  ``events`` is held,
    not copied: a run's stats share their dict, so each prune is recorded once."""

    __slots__ = ("events",)

    def __init__(self, events: Optional[Dict[str, int]] = None) -> None:
        self.events: Dict[str, int] = events if events is not None else {}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.events == other.events
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"PruningStats(events={self.events!r})"

    def record(self, pruner_name: str, count: int = 1) -> None:
        """Count ``count`` subtrees cut by ``pruner_name``."""
        self.events[pruner_name] = self.events.get(pruner_name, 0) + count

    @property
    def total(self) -> int:
        """Total prune events across strategies."""
        return sum(self.events.values())

    def share(self, pruner_name: str) -> float:
        """Fraction of prune events credited to one strategy."""
        if self.total == 0:
            return 0.0
        return self.events.get(pruner_name, 0) / self.total

    def as_dict(self) -> Dict[str, int]:
        """A plain-dict snapshot."""
        return dict(self.events)


#: Builds one run's strategy: ``factory(goal, expander) -> Pruner``.
PrunerFactory = Callable[[Goal, Expander], Pruner]

#: The paper's strategy stack, in the paper's order: time-based first,
#: then course-availability.
DEFAULT_PRUNERS: Tuple[PrunerFactory, ...] = (TimeBasedPruner, AvailabilityPruner)


def first_firing_pruner(
    pruners: Sequence[Pruner], status: EnrollmentStatus, obs=None
) -> Optional[Pruner]:
    """The first strategy (in list order) that prunes ``status``, if any.

    ``obs`` is an optional :class:`~repro.obs.runtime.Observability`; when
    it is timed, each strategy's check is charged to its own
    ``prune:<name>`` phase (the §5.2 split, but for *time spent* rather
    than subtrees cut).  The plain loop stays untouched so the untimed
    path pays nothing.
    """
    if obs is not None and obs.timed:
        for pruner in pruners:
            with obs.phase("prune:" + pruner.name):
                fired = pruner.should_prune(status)
            if fired:
                return pruner
        return None
    for pruner in pruners:
        if pruner.should_prune(status):
            return pruner
    return None


def examine_pruners(
    pruners: Sequence[Pruner], status: EnrollmentStatus, obs=None
) -> Tuple[Optional[Pruner], List[PruneVerdict]]:
    """Consult the stack like :func:`first_firing_pruner`, keeping evidence.

    Returns the firing strategy (or ``None``) together with the structured
    verdict of **every strategy consulted** — including the non-firing ones
    before it, whose near-miss slack the explain report surfaces.  Same
    first-fires-wins semantics and the same per-strategy phase charging as
    the boolean path; used only when decision recording is on.
    """
    verdicts: List[PruneVerdict] = []
    instrumented = obs is not None and obs.timed
    for pruner in pruners:
        if instrumented:
            with obs.phase("prune:" + pruner.name):
                verdict = pruner.examine(status)
        else:
            verdict = pruner.examine(status)
        verdicts.append(verdict)
        if verdict.fired:
            return pruner, verdicts
    return None, verdicts
