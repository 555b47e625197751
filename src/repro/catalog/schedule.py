"""Class schedules and offering-probability models.

Two concerns live here:

* :class:`Schedule` — the deterministic schedule ``S_i`` of Section 2: for
  each course, the set of terms it is offered.  This is what the
  deadline-driven and goal-driven algorithms consult.
* :class:`OfferingModel` — the probabilistic view of §4.3.1's
  reliability ranking: ``prob(c_i, s)``, the probability that course ``c_i``
  is offered in semester ``s``.  Universities release final schedules only
  one or two terms ahead, so offerings inside that release horizon have
  probability 1 (or 0) while later terms fall back to historical frequency.

:class:`HistoricalOfferingModel` implements exactly that split and can also
*project* a schedule forward (every future term where the probability is
positive), which is how ranked exploration searches beyond the released
horizon.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Tuple,
)

from ..errors import CatalogError, ScheduleParseError
from ..semester import Term, term_range

__all__ = [
    "Schedule",
    "OfferingModel",
    "DeterministicOfferings",
    "HistoricalOfferingModel",
]


class Schedule:
    """Per-course offered-term sets (the paper's ``S_i``).

    A ``Schedule`` is an immutable mapping from course id to a frozenset of
    :class:`~repro.semester.Term`.  Courses absent from the mapping are never
    offered.
    """

    __slots__ = ("_offerings", "_by_term")

    def __init__(self, offerings: Mapping[str, Iterable[Term]] = ()):
        table: Dict[str, FrozenSet[Term]] = {}
        for course_id, terms in dict(offerings).items():
            terms = frozenset(terms)
            for term in terms:
                if not isinstance(term, Term):
                    raise TypeError(f"schedule terms must be Term, got {term!r}")
            table[course_id] = terms
        self._offerings = table
        by_term: Dict[Term, set] = {}
        for course_id, terms in table.items():
            for term in terms:
                by_term.setdefault(term, set()).add(course_id)
        self._by_term = {term: frozenset(ids) for term, ids in by_term.items()}

    # -- queries -------------------------------------------------------------

    def offerings(self, course_id: str) -> FrozenSet[Term]:
        """The set of terms ``course_id`` is offered (empty if unknown)."""
        return self._offerings.get(course_id, frozenset())

    def is_offered(self, course_id: str, term: Term) -> bool:
        """Whether ``course_id`` is offered in ``term``."""
        return term in self._offerings.get(course_id, frozenset())

    def offered_in(self, term: Term) -> FrozenSet[str]:
        """All course ids offered in ``term``."""
        return self._by_term.get(term, frozenset())

    def offered_between(self, start: Term, end: Term) -> FrozenSet[str]:
        """Course ids offered in at least one term of ``[start, end]``.

        This is the ``C_offered`` set of the course-availability pruning
        strategy (§4.2.2).
        """
        result: set = set()
        for term in term_range(start, end):
            result |= self.offered_in(term)
        return frozenset(result)

    def course_ids(self) -> FrozenSet[str]:
        """Every course id the schedule mentions."""
        return frozenset(self._offerings)

    def terms(self) -> FrozenSet[Term]:
        """Every term with at least one offering."""
        return frozenset(self._by_term)

    def span(self) -> Optional[Tuple[Term, Term]]:
        """``(first, last)`` offered terms, or ``None`` when empty."""
        if not self._by_term:
            return None
        ordered = sorted(self._by_term)
        return ordered[0], ordered[-1]

    def __contains__(self, course_id: object) -> bool:
        return course_id in self._offerings

    def __iter__(self) -> Iterator[str]:
        return iter(self._offerings)

    def __len__(self) -> int:
        return len(self._offerings)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Schedule):
            return self._offerings == other._offerings
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset((cid, terms) for cid, terms in self._offerings.items()))

    def __repr__(self) -> str:
        return f"Schedule({len(self._offerings)} courses, {len(self._by_term)} terms)"

    # -- derivation ------------------------------------------------------------

    def merged_with(self, other: "Schedule") -> "Schedule":
        """Union of two schedules (per-course term-set union)."""
        merged: Dict[str, FrozenSet[Term]] = dict(self._offerings)
        for course_id in other.course_ids():
            merged[course_id] = merged.get(course_id, frozenset()) | other.offerings(course_id)
        return Schedule(merged)

    def restricted_to(self, start: Term, end: Term) -> "Schedule":
        """The sub-schedule covering only terms in ``[start, end]``."""
        window = set(term_range(start, end))
        return Schedule(
            {
                course_id: terms & window
                for course_id, terms in self._offerings.items()
                if terms & window
            }
        )

    def without_courses(self, course_ids: AbstractSet[str]) -> "Schedule":
        """A copy with the given courses removed (student avoid-lists)."""
        return Schedule(
            {
                course_id: terms
                for course_id, terms in self._offerings.items()
                if course_id not in course_ids
            }
        )

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation; inverse of :meth:`from_dict`."""
        return {
            course_id: sorted(str(t) for t in terms)
            for course_id, terms in sorted(self._offerings.items())
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Iterable[str]]) -> "Schedule":
        """Rebuild from :meth:`to_dict` output (term names parsed)."""
        offerings = {}
        for course_id, terms in data.items():
            try:
                offerings[course_id] = frozenset(Term.parse(text) for text in terms)
            except ScheduleParseError as exc:
                raise CatalogError(f"schedule entry {course_id!r}: {exc}") from None
        return cls(offerings)


class OfferingModel:
    """Abstract probability model ``prob(c_i, s)`` (§4.3.1)."""

    def probability(self, course_id: str, term: Term) -> float:
        """Probability that ``course_id`` is offered in ``term``."""
        raise NotImplementedError

    def selection_probability(self, course_ids: Iterable[str], term: Term) -> float:
        """Probability that *every* course in a selection is offered —
        the product the paper uses as the reliability edge cost."""
        result = 1.0
        for course_id in course_ids:
            result *= self.probability(course_id, term)
        return result

    def projected_schedule(
        self, course_ids: Iterable[str], start: Term, end: Term, threshold: float = 0.0
    ) -> Schedule:
        """A :class:`Schedule` listing each term in ``[start, end]`` where a
        course's offering probability exceeds ``threshold``.

        Ranked exploration over uncertain future terms runs the ordinary
        algorithms on this projected schedule while the reliability ranking
        discounts the less certain branches.
        """
        offerings: Dict[str, FrozenSet[Term]] = {}
        terms = list(term_range(start, end))
        for course_id in course_ids:
            offered = frozenset(
                term for term in terms if self.probability(course_id, term) > threshold
            )
            if offered:
                offerings[course_id] = offered
        return Schedule(offerings)


class DeterministicOfferings(OfferingModel):
    """An :class:`OfferingModel` wrapping a fixed schedule: 1.0 or 0.0."""

    def __init__(self, schedule: Schedule):
        self._schedule = schedule

    def probability(self, course_id: str, term: Term) -> float:
        return 1.0 if self._schedule.is_offered(course_id, term) else 0.0


class HistoricalOfferingModel(OfferingModel):
    """Released-schedule certainty plus historical frequency beyond it.

    Parameters
    ----------
    released:
        The officially released schedule; offerings in terms up to
        ``release_horizon_end`` have probability 1 (offered) or 0 (not).
    release_horizon_end:
        Last term covered by the released schedule.
    season_frequency:
        ``{(course_id, season): p}`` — historical probability that the
        course is offered in that season of an arbitrary future year.
        Missing entries default to 0.
    """

    def __init__(
        self,
        released: Schedule,
        release_horizon_end: Term,
        season_frequency: Mapping[Tuple[str, str], float],
    ):
        for key, p in season_frequency.items():
            if not 0.0 <= p <= 1.0:
                raise CatalogError(f"probability for {key!r} out of range: {p}")
        self._released = released
        self._horizon_end = release_horizon_end
        self._frequency = dict(season_frequency)

    @property
    def release_horizon_end(self) -> Term:
        """Last term for which the schedule is certain."""
        return self._horizon_end

    def probability(self, course_id: str, term: Term) -> float:
        if term <= self._horizon_end:
            return 1.0 if self._released.is_offered(course_id, term) else 0.0
        return self._frequency.get((course_id, term.season), 0.0)

    @classmethod
    def from_history(
        cls,
        history: Schedule,
        history_start: Term,
        history_end: Term,
        released: Schedule,
        release_horizon_end: Term,
    ) -> "HistoricalOfferingModel":
        """Estimate per-season frequencies from a multi-year history.

        For each ``(course, season)``, the frequency is the fraction of
        years in ``[history_start, history_end]`` containing that season in
        which the course was offered.
        """
        season_years: Dict[str, set] = {}
        for term in term_range(history_start, history_end):
            season_years.setdefault(term.season, set()).add(term.year)
        counts: Dict[Tuple[str, str], int] = {}
        for term in term_range(history_start, history_end):
            for course_id in history.offered_in(term):
                key = (course_id, term.season)
                counts[key] = counts.get(key, 0) + 1
        frequency = {
            (course_id, season): count / len(season_years[season])
            for (course_id, season), count in counts.items()
        }
        return cls(released, release_horizon_end, frequency)
