"""Goal requirements: degree rules, course sets, boolean conditions.

A :class:`Goal` answers the two questions the goal-driven algorithm asks of
an enrollment status:

* :meth:`Goal.is_satisfied` — does this completed set meet the requirement?
  (the terminal test, and the heart of availability pruning §4.2.2), and
* :meth:`Goal.remaining_courses` — ``left_i``, the minimum number of
  *additional* courses needed (the quantity inside time-based pruning's
  ``min_i = left_i − m·(d − s_i − 1)``, §4.2.1).

Lemma 1's soundness argument requires ``left_i`` to never **over**-estimate.
:class:`CourseSetGoal`, :class:`ExpressionGoal`, :class:`RequirementGroup`
and :class:`DegreeGoal` compute it exactly; the composite goals return an
admissible lower bound (documented per class), which keeps pruning sound at
the cost of pruning slightly less.

:class:`DegreeGoal` is the paper's evaluation goal ("7 core courses and 5
elective courses"): a set of k-of-group requirements where one course may
satisfy at most one group (no double counting).  The paper computes its
``left_i`` with Ford–Fulkerson max-flow; here it is a closed form when the
groups are disjoint and a bipartite matching when they overlap, and the
max-flow solvers of :mod:`repro.requirements.flow` are its test oracle.
"""

from __future__ import annotations

import functools
import math
from typing import (
    AbstractSet,
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Sequence,
    Tuple,
)

from ..catalog.prereq import PrereqExpr, from_dict as prereq_from_dict, min_courses_in_dnf
from ..errors import GoalError
from ..obs.runtime import current_observability

__all__ = [
    "Goal",
    "CourseSetGoal",
    "ExpressionGoal",
    "RequirementGroup",
    "DegreeGoal",
    "AllOfGoal",
    "AnyOfGoal",
    "goal_from_dict",
]


class Goal:
    """Abstract goal requirement over completed-course sets."""

    def is_satisfied(self, completed: AbstractSet[str]) -> bool:
        """Whether a student with exactly ``completed`` meets the goal."""
        raise NotImplementedError

    def remaining_courses(self, completed: AbstractSet[str]) -> float:
        """``left_i``: minimum additional courses needed (0 when satisfied).

        Must never over-estimate (Lemma 1 soundness); ``math.inf`` means the
        goal is unsatisfiable no matter what is taken.
        """
        raise NotImplementedError

    def courses(self) -> FrozenSet[str]:
        """Every course id that can contribute to satisfying the goal."""
        raise NotImplementedError

    def describe(self) -> str:
        """A one-line human-readable description."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation; inverse of :func:`goal_from_dict`."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.describe()


class CourseSetGoal(Goal):
    """Complete every course in a fixed set.

    This is the paper's "complete a given set of interesting courses" task;
    ``remaining_courses`` is exactly ``|S − X|``.
    """

    def __init__(self, course_ids: Iterable[str]):
        self._course_ids = frozenset(course_ids)
        if not self._course_ids:
            raise GoalError("CourseSetGoal needs at least one course")
        for cid in self._course_ids:
            if not isinstance(cid, str) or not cid:
                raise GoalError(f"bad course id {cid!r}")

    @property
    def course_ids(self) -> FrozenSet[str]:
        """The required courses."""
        return self._course_ids

    def is_satisfied(self, completed: AbstractSet[str]) -> bool:
        return self._course_ids <= completed

    def remaining_courses(self, completed: AbstractSet[str]) -> float:
        return len(self._course_ids - completed)

    def courses(self) -> FrozenSet[str]:
        return self._course_ids

    def describe(self) -> str:
        return f"complete {{{', '.join(sorted(self._course_ids))}}}"

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "course_set", "courses": sorted(self._course_ids)}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CourseSetGoal) and other._course_ids == self._course_ids

    def __hash__(self) -> int:
        return hash(("CourseSetGoal", self._course_ids))


class ExpressionGoal(Goal):
    """A goal given as an arbitrary boolean expression over completions.

    The paper lets users state goal requirements "as a boolean expression on
    the student's enrollment status"; this wraps the same expression AST the
    prerequisite conditions use.  ``remaining_courses`` is exact via DNF,
    converted once on first use.
    """

    def __init__(self, expression: PrereqExpr, label: str = ""):
        if not isinstance(expression, PrereqExpr):
            raise GoalError(f"expected PrereqExpr, got {expression!r}")
        self._expression = expression
        self._label = label
        self._dnf = None

    @property
    def expression(self) -> PrereqExpr:
        """The underlying boolean expression."""
        return self._expression

    def is_satisfied(self, completed: AbstractSet[str]) -> bool:
        return self._expression.evaluate(completed)

    def remaining_courses(self, completed: AbstractSet[str]) -> float:
        if self._dnf is None:
            self._dnf = self._expression.to_dnf()
        return min_courses_in_dnf(self._dnf, completed)

    def courses(self) -> FrozenSet[str]:
        return self._expression.courses()

    def describe(self) -> str:
        return self._label or f"satisfy {self._expression.to_string()}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "expression",
            "expression": self._expression.to_dict(),
            "label": self._label,
        }

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ExpressionGoal) and other._expression == self._expression

    def __hash__(self) -> int:
        return hash(("ExpressionGoal", self._expression))


class RequirementGroup:
    """"At least ``required`` of ``courses``" — one row of a degree rule."""

    __slots__ = ("name", "course_ids", "required")

    def __init__(self, name: str, course_ids: Iterable[str], required: int):
        self.name = name
        self.course_ids = frozenset(course_ids)
        self.required = required
        if required < 0:
            raise GoalError(f"group {name!r}: required must be >= 0, got {required}")
        if required > len(self.course_ids):
            raise GoalError(
                f"group {name!r}: requires {required} of only "
                f"{len(self.course_ids)} courses"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "courses": sorted(self.course_ids),
            "required": self.required,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RequirementGroup":
        missing = [key for key in ("name", "courses", "required") if key not in data]
        if missing:
            raise GoalError(f"requirement group {dict(data)!r} lacks {missing[0]!r}")
        return cls(data["name"], data["courses"], data["required"])

    def __repr__(self) -> str:
        return f"RequirementGroup({self.name!r}, {self.required} of {len(self.course_ids)})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RequirementGroup)
            and other.name == self.name
            and other.course_ids == self.course_ids
            and other.required == self.required
        )

    def __hash__(self) -> int:
        return hash((self.name, self.course_ids, self.required))


def _augment(
    course_id: str,
    memberships: Mapping[str, Tuple[int, ...]],
    capacities: Tuple[int, ...],
    holders: List[List[str]],
    visited: List[bool],
) -> bool:
    """One augmenting-path search of :func:`_match` for ``course_id``; its
    state comes in as arguments, so a search leaves no self-referencing
    closure behind for the cyclic collector."""
    for index in memberships[course_id]:
        if visited[index]:
            continue
        visited[index] = True
        members = holders[index]
        if len(members) < capacities[index]:
            members.append(course_id)
            return True
        for slot, other in enumerate(members):
            if _augment(other, memberships, capacities, holders, visited):
                members[slot] = course_id
                return True
    return False


def _match(
    memberships: Mapping[str, Tuple[int, ...]],
    capacities: Tuple[int, ...],
    relevant: AbstractSet[str],
) -> List[List[str]]:
    """A maximum assignment of ``relevant`` courses to group seats.

    Returns the courses held by each active group.  Each course in sorted
    order gets one augmenting-path search (Kuhn's algorithm with group
    capacities): a group with a free seat takes it; a full group lets one
    of its courses move to another group still unvisited.
    """
    holders: List[List[str]] = [[] for _ in capacities]
    seats = sum(capacities)
    filled = 0
    for course_id in sorted(relevant):
        if filled == seats:
            break
        if course_id in memberships:
            visited = [False] * len(capacities)
            filled += _augment(course_id, memberships, capacities, holders, visited)
    return holders


def _matched_seats(
    memberships: Mapping[str, Tuple[int, ...]],
    capacities: Tuple[int, ...],
    relevant: FrozenSet[str],
) -> int:
    return sum(len(members) for members in _match(memberships, capacities, relevant))


class DegreeGoal(Goal):
    """A degree requirement: several k-of-group rules, no double counting.

    One completed course may be *assigned* to at most one group, so the
    seats a completed set fills are a maximum bipartite assignment of
    courses to groups (group ``G`` takes at most ``k_G`` courses), and
    ``left_i = total seats − filled seats``.  The paper computes this with
    Ford–Fulkerson on the network source → course → group → sink; the
    goal is compiled once so the hot path builds no network:

    * **Disjoint groups** (no course in two groups that require seats, the
      paper's 7-core/5-elective major): the network splits into one star
      per group, so the maximum is ``Σ_G min(|X ∩ G|, k_G)``.
    * **Overlapping groups**: augmenting paths over int group indices,
      visiting courses in sorted order, behind a bounded LRU memo.

    Maximizing seats filled by already-completed courses minimizes the
    additional courses needed (transversal-matroid exchange), so the value
    is exact.  :mod:`repro.requirements.flow` stays the test oracle.
    """

    #: Bound on the LRU memo in front of the overlapping-groups matcher.
    #: Read when a goal is built.
    _MATCH_MEMO_SIZE = 65_536

    def __init__(self, groups: Sequence[RequirementGroup], name: str = "degree"):
        self._groups = tuple(groups)
        self._name = name
        if not self._groups:
            raise GoalError("DegreeGoal needs at least one requirement group")
        names = [g.name for g in self._groups]
        if len(set(names)) != len(names):
            raise GoalError(f"duplicate group names in {names}")
        self._total_required = sum(g.required for g in self._groups)
        self._all_courses = frozenset().union(*(g.course_ids for g in self._groups))
        # Groups with seats, by index; a required-0 group takes no course.
        active = [g for g in self._groups if g.required > 0]
        self._seat_names = tuple(g.name for g in active)
        self._seat_groups = tuple((g.course_ids, g.required) for g in active)
        self._capacities = tuple(g.required for g in active)
        memberships: Dict[str, Tuple[int, ...]] = {}
        for index, group in enumerate(active):
            for course_id in group.course_ids:
                memberships[course_id] = memberships.get(course_id, ()) + (index,)
        self._memberships = memberships
        self._disjoint = all(len(indices) == 1 for indices in memberships.values())
        if not self._disjoint:
            # The memo wraps a function of the compiled groups, not a bound
            # method, so the goal holds no reference cycle and is freed by
            # reference counting alone.
            self._seat_memo = functools.lru_cache(maxsize=self._MATCH_MEMO_SIZE)(
                functools.partial(_matched_seats, memberships, self._capacities)
            )
        # A course set can never fill more seats than it has members, so the
        # goal is unsatisfiable iff even the full course universe cannot.
        self._satisfiable = self._count_seats(self._all_courses) >= self._total_required

    def __reduce__(self):
        # The seat memo is a compiled cache, not state; rebuild it.
        return (type(self), (self._groups, self._name))

    @property
    def groups(self) -> Tuple[RequirementGroup, ...]:
        """The requirement groups."""
        return self._groups

    @property
    def total_required(self) -> int:
        """Total number of seats across all groups."""
        return self._total_required

    @classmethod
    def from_core_electives(
        cls,
        core: Iterable[str],
        electives: Iterable[str],
        electives_required: int,
        name: str = "major",
    ) -> "DegreeGoal":
        """The paper's evaluation goal: all of ``core`` plus
        ``electives_required`` from ``electives``."""
        core = frozenset(core)
        return cls(
            (
                RequirementGroup("core", core, len(core)),
                RequirementGroup("electives", electives, electives_required),
            ),
            name=name,
        )

    def _filled_seats(self, completed: AbstractSet[str]) -> int:
        """Max seats fillable by ``completed`` (one course, one seat)."""
        obs = current_observability()
        if obs is None:
            return self._count_seats(completed)
        method = "closed_form" if self._disjoint else "matching"
        with obs.phase("flow", method=method):
            return self._count_seats(completed)

    def _count_seats(self, completed: AbstractSet[str]) -> int:
        if self._disjoint:
            filled = 0
            for course_ids, required in self._seat_groups:
                taken = len(course_ids.intersection(completed))
                filled += taken if taken < required else required
            return filled
        # The memo key is always a frozenset, whatever set type came in.
        return self._seat_memo(self._all_courses.intersection(completed))

    def is_satisfied(self, completed: AbstractSet[str]) -> bool:
        return self._filled_seats(completed) >= self._total_required

    def remaining_courses(self, completed: AbstractSet[str]) -> float:
        if not self._satisfiable:
            return math.inf
        return self._total_required - self._filled_seats(completed)

    def assignment(self, completed: AbstractSet[str]) -> Dict[str, str]:
        """A maximum ``{course_id: group name}`` assignment — the audit view
        a front-end shows the student.  Courses are matched in sorted
        order, so the answer never depends on set iteration order."""
        holders = _match(
            self._memberships, self._capacities, self._all_courses.intersection(completed)
        )
        return dict(
            sorted(
                (course_id, self._seat_names[index])
                for index, members in enumerate(holders)
                for course_id in members
            )
        )

    def courses(self) -> FrozenSet[str]:
        return self._all_courses

    def describe(self) -> str:
        parts = ", ".join(
            f"{g.required} of {len(g.course_ids)} {g.name}" for g in self._groups
        )
        return f"{self._name}: {parts}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "degree",
            "name": self._name,
            "groups": [g.to_dict() for g in self._groups],
        }

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DegreeGoal) and other._groups == self._groups

    def __hash__(self) -> int:
        return hash(("DegreeGoal", self._groups))


class AllOfGoal(Goal):
    """Conjunction of goals.

    ``remaining_courses`` returns the **maximum** over children — an
    admissible lower bound (a course set satisfying all children must
    satisfy the most demanding one), not necessarily the exact minimum when
    children need disjoint courses.  Pruning stays sound; it just fires a
    little later than an exact bound would allow.
    """

    def __init__(self, goals: Sequence[Goal]):
        self._goals = tuple(goals)
        if not self._goals:
            raise GoalError("AllOfGoal needs at least one goal")

    @property
    def goals(self) -> Tuple[Goal, ...]:
        """The child goals."""
        return self._goals

    def is_satisfied(self, completed: AbstractSet[str]) -> bool:
        return all(g.is_satisfied(completed) for g in self._goals)

    def remaining_courses(self, completed: AbstractSet[str]) -> float:
        return max(g.remaining_courses(completed) for g in self._goals)

    def courses(self) -> FrozenSet[str]:
        return frozenset().union(*(g.courses() for g in self._goals))

    def describe(self) -> str:
        return " and ".join(f"({g.describe()})" for g in self._goals)

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "all_of", "goals": [g.to_dict() for g in self._goals]}


class AnyOfGoal(Goal):
    """Disjunction of goals.

    ``remaining_courses`` is the minimum over children — exact whenever the
    children are exact (satisfying the cheapest child satisfies the
    disjunction).
    """

    def __init__(self, goals: Sequence[Goal]):
        self._goals = tuple(goals)
        if not self._goals:
            raise GoalError("AnyOfGoal needs at least one goal")

    @property
    def goals(self) -> Tuple[Goal, ...]:
        """The child goals."""
        return self._goals

    def is_satisfied(self, completed: AbstractSet[str]) -> bool:
        return any(g.is_satisfied(completed) for g in self._goals)

    def remaining_courses(self, completed: AbstractSet[str]) -> float:
        return min(g.remaining_courses(completed) for g in self._goals)

    def courses(self) -> FrozenSet[str]:
        return frozenset().union(*(g.courses() for g in self._goals))

    def describe(self) -> str:
        return " or ".join(f"({g.describe()})" for g in self._goals)

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "any_of", "goals": [g.to_dict() for g in self._goals]}


#: The key each serialized goal type needs besides ``type``.
_GOAL_FIELDS = {
    "course_set": "courses",
    "expression": "expression",
    "degree": "groups",
    "all_of": "goals",
    "any_of": "goals",
}


def goal_from_dict(data: Mapping[str, Any]) -> Goal:
    """Rebuild a goal from its :meth:`Goal.to_dict` representation.

    Raises :class:`~repro.errors.GoalError` naming the offending entry when
    ``data`` is not an object, has an unknown ``type`` or lacks the key its
    type needs.
    """
    if not isinstance(data, Mapping):
        raise GoalError(f"goal {data!r} is not an object")
    kind = data.get("type")
    field = _GOAL_FIELDS.get(kind) if isinstance(kind, str) else None
    if field is None:
        raise GoalError(f"unknown goal type {kind!r}")
    if field not in data:
        raise GoalError(f"goal {dict(data)!r} lacks {field!r}")
    if kind == "course_set":
        return CourseSetGoal(data["courses"])
    if kind == "expression":
        return ExpressionGoal(prereq_from_dict(data["expression"]), data.get("label", ""))
    if kind == "degree":
        return DegreeGoal(
            [RequirementGroup.from_dict(g) for g in data["groups"]],
            name=data.get("name", "degree"),
        )
    if kind == "all_of":
        return AllOfGoal([goal_from_dict(g) for g in data["goals"]])
    return AnyOfGoal([goal_from_dict(g) for g in data["goals"]])
