"""The :class:`Course` record.

A course in the paper is ``(Q_i, S_i)`` — a prerequisite condition and a
schedule.  The schedule lives on the :class:`~repro.catalog.catalog.Catalog`
(it comes from a different registrar feed and changes every term); the
course record carries everything intrinsic to the course: its prerequisite
condition, title, workload (used by workload-based ranking, §4.3.1),
credits, and free-form tags (used by degree requirements, e.g. ``core`` /
``elective``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable

from ..errors import CatalogError
from .prereq import PrereqExpr, TRUE, from_dict as prereq_from_dict

__all__ = ["Course"]


def _is_amount(value: Any) -> bool:
    """Whether ``value`` is a finite number >= 0: NaN fails both bounds, and
    a value that is no number cannot be compared."""
    try:
        return 0 <= value < math.inf
    except TypeError:
        return False


@dataclass(frozen=True)
class Course:
    """An immutable course record.

    Parameters
    ----------
    course_id:
        Registrar identifier, e.g. ``"COSI 11a"``.  Must be non-empty;
        surrounding whitespace is stripped.
    title:
        Human-readable name.  Defaults to the id.
    prereq:
        The prerequisite condition ``Q_i``; defaults to :data:`TRUE`
        (no prerequisites).
    workload_hours:
        Estimated weekly study hours ``w(c_i)`` — the quantity the paper's
        workload-based ranking sums along a path.  Must be a finite,
        non-negative number.
    credits:
        Credit hours; informational, and available to custom goals.  Must
        be a finite, non-negative number.
    tags:
        Free-form labels (``core``, ``elective``, ``systems`` …) that degree
        goals and workload generators select on.
    description:
        Registrar catalog prose (optional).
    """

    course_id: str
    title: str = ""
    prereq: PrereqExpr = TRUE
    workload_hours: float = 10.0
    credits: int = 4
    tags: FrozenSet[str] = field(default_factory=frozenset)
    description: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.course_id, str) or not self.course_id.strip():
            raise ValueError(f"course_id must be a non-empty string, got {self.course_id!r}")
        object.__setattr__(self, "course_id", self.course_id.strip())
        if not self.title:
            object.__setattr__(self, "title", self.course_id)
        if not isinstance(self.prereq, PrereqExpr):
            raise TypeError(f"prereq must be a PrereqExpr, got {self.prereq!r}")
        # NaN hours would break the workload ranking's cost order.
        if not _is_amount(self.workload_hours):
            raise ValueError(
                f"workload_hours must be a finite number >= 0, got {self.workload_hours!r}"
            )
        if not _is_amount(self.credits):
            raise ValueError(f"credits must be a finite number >= 0, got {self.credits!r}")
        if not isinstance(self.tags, frozenset):
            try:
                tags = None if isinstance(self.tags, str) else frozenset(self.tags)
            except TypeError:
                tags = None
            if tags is None or not all(isinstance(tag, str) for tag in tags):
                raise ValueError(f"tags must be a list of strings, got {self.tags!r}")
            object.__setattr__(self, "tags", tags)
        if self.course_id in self.prereq.courses():
            raise ValueError(f"course {self.course_id!r} lists itself as a prerequisite")

    # -- convenience -------------------------------------------------------

    def has_tag(self, tag: str) -> bool:
        """Whether this course carries ``tag``."""
        return tag in self.tags

    def prerequisite_courses(self) -> FrozenSet[str]:
        """Every course id mentioned in the prerequisite condition."""
        return self.prereq.courses()

    def with_prereq(self, prereq: PrereqExpr) -> "Course":
        """A copy of this course with a different prerequisite condition."""
        return Course(
            course_id=self.course_id,
            title=self.title,
            prereq=prereq,
            workload_hours=self.workload_hours,
            credits=self.credits,
            tags=self.tags,
            description=self.description,
        )

    def with_tags(self, tags: Iterable[str]) -> "Course":
        """A copy of this course with ``tags`` replaced."""
        return Course(
            course_id=self.course_id,
            title=self.title,
            prereq=self.prereq,
            workload_hours=self.workload_hours,
            credits=self.credits,
            tags=frozenset(tags),
            description=self.description,
        )

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation; inverse of :meth:`from_dict`."""
        return {
            "course_id": self.course_id,
            "title": self.title,
            "prereq": self.prereq.to_dict(),
            "workload_hours": self.workload_hours,
            "credits": self.credits,
            "tags": sorted(self.tags),
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Course":
        """Rebuild a course from :meth:`to_dict` output.

        Raises :class:`~repro.errors.CatalogError` naming the entry when it
        has no ``course_id``, a malformed prerequisite or a bad field value.
        """
        if not isinstance(data, dict) or "course_id" not in data:
            raise CatalogError(f"course entry {data!r} lacks 'course_id'")
        try:
            return cls(
                course_id=data["course_id"],
                title=data.get("title", ""),
                prereq=prereq_from_dict(data.get("prereq", {"op": "true"})),
                workload_hours=data.get("workload_hours", 10.0),
                credits=data.get("credits", 4),
                tags=data.get("tags", ()),
                description=data.get("description", ""),
            )
        except (CatalogError, ValueError) as exc:
            raise CatalogError(f"course {data['course_id']!r}: {exc}") from None
