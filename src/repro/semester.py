"""Academic terms and calendar arithmetic.

The paper models time as a sequence of semesters: ``Fall '11``,
``Spring '12``, ``Fall '12`` … with transitions ``s_{i+1} = s_i + 1``.
This module provides that arithmetic as a small, total, hashable value type:

* :class:`AcademicCalendar` — an ordered cycle of season names within a
  calendar year (default ``Spring, Fall``; a ``Spring, Summer, Fall``
  calendar is provided for schools with summer sessions).
* :class:`Term` — a single academic term, e.g. ``Term(2011, "Fall")``.
  Terms are ordered, support ``term + k`` / ``term - k`` / ``term_b - term_a``
  and parse from the registrar-style strings that appear in the paper
  (``Fall '11``, ``Spring 2012``, ``F11``…).

Terms are compared by their *ordinal*: the number of terms since term 0 of
year 0 of their calendar.  Two terms on different calendars never compare
equal and refuse arithmetic together, which turns calendar mix-ups into
errors instead of silently wrong plans.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterator, Sequence, Tuple, Union

from .errors import ScheduleParseError

__all__ = [
    "AcademicCalendar",
    "SPRING_FALL",
    "SPRING_SUMMER_FALL",
    "Term",
    "term_range",
    "parse_term",
]


class AcademicCalendar:
    """An ordered cycle of season names within a calendar year.

    ``AcademicCalendar(("Spring", "Fall"))`` means that within calendar year
    *Y*, Spring *Y* precedes Fall *Y*, and Fall *Y* precedes Spring *Y+1*.
    That matches the paper's examples (Fall '11 → Spring '12 → Fall '12).

    Calendars are immutable and compared structurally, so two separately
    constructed ``("Spring", "Fall")`` calendars are interchangeable.
    """

    __slots__ = ("_seasons", "_index_of", "_terms")

    #: Interned :class:`Term` instances kept per calendar (see
    #: :meth:`Term.from_ordinal`); the oldest is dropped one at a time.
    _INTERNED_TERMS = 4096

    def __init__(self, seasons: Sequence[str]):
        cleaned = tuple(str(s).strip() for s in seasons)
        if len(cleaned) < 1:
            raise ValueError("a calendar needs at least one season")
        if any(not s for s in cleaned):
            raise ValueError("season names must be non-empty")
        lowered = [s.lower() for s in cleaned]
        if len(set(lowered)) != len(lowered):
            raise ValueError(f"duplicate season names in {cleaned!r}")
        self._seasons = cleaned
        self._index_of = {name.lower(): i for i, name in enumerate(cleaned)}
        self._terms: Dict[int, "Term"] = {}

    @property
    def seasons(self) -> Tuple[str, ...]:
        """The season names, in within-year order."""
        return self._seasons

    def __len__(self) -> int:
        return len(self._seasons)

    def season_index(self, season: str) -> int:
        """Position of ``season`` within the year (case-insensitive)."""
        try:
            return self._index_of[season.strip().lower()]
        except KeyError:
            raise ValueError(
                f"unknown season {season!r}; calendar has {self._seasons}"
            ) from None

    def canonical_season(self, season: str) -> str:
        """The canonical spelling of ``season`` (case-insensitive lookup)."""
        return self._seasons[self.season_index(season)]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AcademicCalendar):
            return self._seasons == other._seasons
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._seasons)

    def __repr__(self) -> str:
        return f"AcademicCalendar({self._seasons!r})"

    def __reduce__(self):
        # The interned-term table is a cache; rebuild it empty.
        return (type(self), (self._seasons,))


#: The default two-season calendar used throughout the paper.
SPRING_FALL = AcademicCalendar(("Spring", "Fall"))

#: A three-season calendar for schools with summer sessions.
SPRING_SUMMER_FALL = AcademicCalendar(("Spring", "Summer", "Fall"))


_TERM_PATTERNS = (
    # "Fall 2011", "Fall '11", "Fall 11", "Fall‘11" (paper uses a left quote)
    re.compile(r"^\s*(?P<season>[A-Za-z]+)\s*[''`‘’]?\s*(?P<year>\d{2,4})\s*$"),
    # "2011 Fall"
    re.compile(r"^\s*(?P<year>\d{2,4})\s+(?P<season>[A-Za-z]+)\s*$"),
)

_SEASON_ABBREVIATIONS = {
    "f": "Fall",
    "fa": "Fall",
    "s": "Spring",
    "sp": "Spring",
    "spr": "Spring",
    "su": "Summer",
    "sum": "Summer",
    "w": "Winter",
    "wi": "Winter",
}


def _expand_year(raw: str) -> int:
    """Turn a 2- or 4-digit year string into a full year (``'11'`` → 2011)."""
    year = int(raw)
    if len(raw) <= 2:
        year += 2000 if year < 70 else 1900
    return year


@dataclass(frozen=True)
class Term:
    """One academic term, e.g. ``Term(2011, "Fall")``.

    ``Term`` is a frozen dataclass: hashable, usable as a dict key and as a
    member of schedule sets.  The season string is canonicalized against the
    calendar at construction time, so ``Term(2011, "fall") == Term(2011,
    "Fall")``.

    The term's ordinal and hash are computed once at construction and kept
    outside the dataclass fields, so comparisons, arithmetic and hashing
    are O(1) while ``repr``, equality and the hash value still see only
    ``year``, ``season`` and ``calendar``.  :attr:`ordinal` (the number of
    terms since season 0 of year 0 on this calendar) is a plain read-only
    attribute, so per-node code compares terms on one calendar as ints
    without a method call.  Each of the four orderings is
    one call: a non-``Term`` operand gets ``NotImplemented`` and a term on
    another calendar raises :class:`ValueError`.
    """

    year: int
    season: str
    calendar: AcademicCalendar = SPRING_FALL

    def __post_init__(self) -> None:
        index = self.calendar.season_index(self.season)
        canonical = self.calendar.seasons[index]
        if canonical != self.season:
            object.__setattr__(self, "season", canonical)
        if not isinstance(self.year, int):
            raise TypeError(f"year must be an int, got {self.year!r}")
        object.__setattr__(self, "ordinal", self.year * len(self.calendar) + index)
        # The value the dataclass hash would compute, paid once: terms are
        # hashed on every status hash and schedule lookup.
        object.__setattr__(self, "_hash", hash((self.year, self.season, self.calendar)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through the constructor: string hashes differ between
        # processes, so a pickled ``_hash`` would be stale.
        return (self.__class__, (self.year, self.season, self.calendar))

    # -- ordinal arithmetic -------------------------------------------------

    @classmethod
    def from_ordinal(cls, ordinal: int, calendar: AcademicCalendar = SPRING_FALL) -> "Term":
        """Inverse of :attr:`ordinal`.

        Plain :class:`Term` results are interned per ``(calendar,
        ordinal)``, so stepping through a horizon builds each term once;
        subclasses are constructed fresh.
        """
        if cls is not Term:
            year, season_index = divmod(ordinal, len(calendar))
            return cls(year, calendar.seasons[season_index], calendar)
        interned = calendar._terms
        term = interned.get(ordinal)
        if term is None:
            year, season_index = divmod(ordinal, len(calendar))
            term = Term(year, calendar.seasons[season_index], calendar)
            if len(interned) >= calendar._INTERNED_TERMS:
                del interned[next(iter(interned))]
            interned[ordinal] = term
        return term

    def _check_same_calendar(self, other: "Term") -> None:
        if self.calendar != other.calendar:
            raise ValueError(
                f"cannot mix terms from different calendars: {self} vs {other}"
            )

    def __add__(self, k: int) -> "Term":
        if not isinstance(k, int):
            return NotImplemented
        return Term.from_ordinal(self.ordinal + k, self.calendar)

    __radd__ = __add__

    def __sub__(self, other: Union[int, "Term"]) -> Union["Term", int]:
        if isinstance(other, int):
            return Term.from_ordinal(self.ordinal - other, self.calendar)
        if isinstance(other, Term):
            if other.calendar is not self.calendar:
                self._check_same_calendar(other)
            return self.ordinal - other.ordinal
        return NotImplemented

    def next(self) -> "Term":
        """The immediately following term (``s + 1`` in the paper)."""
        return self + 1

    def previous(self) -> "Term":
        """The immediately preceding term."""
        return self - 1

    def __lt__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        if other.calendar is not self.calendar:
            self._check_same_calendar(other)
        return self.ordinal < other.ordinal

    def __le__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        if other.calendar is not self.calendar:
            self._check_same_calendar(other)
        return self.ordinal <= other.ordinal

    def __gt__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        if other.calendar is not self.calendar:
            self._check_same_calendar(other)
        return self.ordinal > other.ordinal

    def __ge__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        if other.calendar is not self.calendar:
            self._check_same_calendar(other)
        return self.ordinal >= other.ordinal

    # -- formatting / parsing -------------------------------------------------

    def __str__(self) -> str:
        return f"{self.season} {self.year}"

    @property
    def short(self) -> str:
        """Compact registrar-style name, e.g. ``Fall '11``."""
        return f"{self.season} '{self.year % 100:02d}"

    @classmethod
    def parse(cls, text: str, calendar: AcademicCalendar = SPRING_FALL) -> "Term":
        """Parse registrar-style term names.

        Accepts ``Fall 2011``, ``Fall '11``, ``Fall‘11`` (the paper's
        typography), ``2011 Fall``, and abbreviated forms like ``F11`` /
        ``Sp2012``.  Raises :class:`~repro.errors.ScheduleParseError` on
        anything else.
        """
        for pattern in _TERM_PATTERNS:
            match = pattern.match(text)
            if match:
                season = match.group("season")
                season = _SEASON_ABBREVIATIONS.get(season.lower(), season)
                try:
                    return cls(_expand_year(match.group("year")), season, calendar)
                except ValueError as exc:
                    raise ScheduleParseError(str(exc), text=text) from exc
        raise ScheduleParseError("unrecognized term", text=text)


def parse_term(text: str, calendar: AcademicCalendar = SPRING_FALL) -> Term:
    """Module-level convenience alias for :meth:`Term.parse`."""
    return Term.parse(text, calendar)


def term_range(start: Term, end: Term, inclusive: bool = True) -> Iterator[Term]:
    """Yield terms from ``start`` to ``end`` in order.

    ``inclusive`` controls whether ``end`` itself is yielded.  Yields nothing
    when ``end`` precedes ``start``; raises when the calendars differ.
    """
    if start.calendar != end.calendar:
        raise ValueError(f"cannot mix terms from different calendars: {start} vs {end}")
    stop = end.ordinal + (1 if inclusive else 0)
    for ordinal in range(start.ordinal, stop):
        yield Term.from_ordinal(ordinal, start.calendar)
