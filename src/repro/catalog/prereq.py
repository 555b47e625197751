"""Prerequisite condition expressions.

The paper (Section 2) describes each course's prerequisite condition as a
boolean expression over "course completed" variables:

    Q_i = (x_j ∧ … ∧ x_k) ∨ … ∨ (x_m ∧ … ∧ x_n)

This module implements that expression language as a small immutable AST:

* :data:`TRUE` / :data:`FALSE` — constants (``TRUE`` is the condition of a
  course with no prerequisites).
* :class:`CourseReq` — a single literal ``x_j`` ("course *j* completed").
* :class:`And` / :class:`Or` — n-ary conjunction / disjunction.
* :class:`KOf` — "at least *k* of these", an extension used by degree-style
  prerequisites ("two of the following"); it expands to DNF when needed.

Beyond evaluation, the AST supports the two operations the path-generation
algorithms need:

* :meth:`PrereqExpr.to_dnf` — a canonical disjunctive normal form (a
  frozenset of conjunction course-sets, with absorbed supersets removed),
  used for minimum-cost satisfaction.
* :meth:`PrereqExpr.min_courses_to_satisfy` — the *exact* minimum number of
  additional courses needed to make the condition true given a completed
  set.  Exactness matters: the goal-driven algorithm's time-based pruning is
  only sound when ``left_i`` never over-estimates (Lemma 1).

Expressions compose with ``&`` and ``|``, compare structurally, hash, and
round-trip through :mod:`repro.parsing.prereq_parser` and ``to_dict`` /
``from_dict``.
"""

from __future__ import annotations

import itertools
import math
from typing import AbstractSet, Any, Dict, FrozenSet, Iterable, Tuple

__all__ = [
    "PrereqExpr",
    "TRUE",
    "FALSE",
    "CourseReq",
    "And",
    "Or",
    "KOf",
    "requires",
    "all_of",
    "any_of",
]

#: A DNF: a frozenset of conjunctions, each a frozenset of course ids.
#: ``frozenset({frozenset()})`` is the always-true DNF; ``frozenset()`` is
#: the unsatisfiable DNF.
Dnf = FrozenSet[FrozenSet[str]]


def _prune_absorbed(conjunctions: Iterable[FrozenSet[str]]) -> Dnf:
    """Drop every conjunction that is a strict superset of another.

    Supersets are redundant in a DNF (``a ∨ (a ∧ b) ≡ a``) and pruning them
    keeps both the representation canonical and ``min_courses_to_satisfy``
    fast.
    """
    unique = set(conjunctions)
    kept = {
        conj
        for conj in unique
        if not any(other < conj for other in unique)
    }
    return frozenset(kept)


class PrereqExpr:
    """Abstract base class for prerequisite expressions.

    Subclasses are immutable value objects.  Do not instantiate this class
    directly.
    """

    __slots__ = ()

    # -- core semantics -----------------------------------------------------

    def evaluate(self, completed: AbstractSet[str]) -> bool:
        """``True`` iff the condition holds for a student who completed
        exactly the courses in ``completed``."""
        raise NotImplementedError

    def courses(self) -> FrozenSet[str]:
        """Every course id mentioned anywhere in the expression."""
        raise NotImplementedError

    def to_dnf(self) -> Dnf:
        """Disjunctive normal form with absorbed conjunctions pruned.

        The result is a frozenset of frozensets of course ids: the
        expression is satisfied iff *all* courses of *some* member set are
        completed.
        """
        raise NotImplementedError

    # -- derived operations ---------------------------------------------------

    def min_courses_to_satisfy(self, completed: AbstractSet[str] = frozenset()) -> float:
        """Minimum number of *additional* courses needed to satisfy this.

        Returns ``0`` when already satisfied and ``math.inf`` when the
        expression is unsatisfiable (:data:`FALSE`).  Exact, via DNF.
        """
        dnf = self.to_dnf()
        if not dnf:
            return math.inf
        return min(len(conj - completed) for conj in dnf)

    def is_satisfiable(self) -> bool:
        """Whether any completed-course set satisfies the expression."""
        return bool(self.to_dnf())

    def satisfying_sets(self) -> Tuple[FrozenSet[str], ...]:
        """The minimal satisfying course sets, smallest first."""
        return tuple(sorted(self.to_dnf(), key=lambda s: (len(s), sorted(s))))

    # -- composition ------------------------------------------------------------

    def __and__(self, other: "PrereqExpr") -> "PrereqExpr":
        if not isinstance(other, PrereqExpr):
            return NotImplemented
        return And(self, other)

    def __or__(self, other: "PrereqExpr") -> "PrereqExpr":
        if not isinstance(other, PrereqExpr):
            return NotImplemented
        return Or(self, other)

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation; inverse of :func:`from_dict`."""
        raise NotImplementedError

    def to_string(self) -> str:
        """Registrar-style text that the prerequisite parser accepts."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_string()


class _TruePrereq(PrereqExpr):
    """The always-satisfied condition (a course with no prerequisites)."""

    __slots__ = ()

    def evaluate(self, completed: AbstractSet[str]) -> bool:
        return True

    def courses(self) -> FrozenSet[str]:
        return frozenset()

    def to_dnf(self) -> Dnf:
        return frozenset({frozenset()})

    def to_dict(self) -> Dict[str, Any]:
        return {"op": "true"}

    def to_string(self) -> str:
        return "NONE"

    def __repr__(self) -> str:
        return "TRUE"

    def __reduce__(self):
        return "TRUE"  # the module-level singleton

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _TruePrereq)

    def __hash__(self) -> int:
        return hash("_TruePrereq")


class _FalsePrereq(PrereqExpr):
    """The never-satisfied condition.

    Not produced by the parser; exists so the expression algebra is closed
    (e.g. simplifying an :class:`Or` with no children) and so tests can
    exercise unsatisfiable goals.
    """

    __slots__ = ()

    def evaluate(self, completed: AbstractSet[str]) -> bool:
        return False

    def courses(self) -> FrozenSet[str]:
        return frozenset()

    def to_dnf(self) -> Dnf:
        return frozenset()

    def to_dict(self) -> Dict[str, Any]:
        return {"op": "false"}

    def to_string(self) -> str:
        return "NEVER"

    def __repr__(self) -> str:
        return "FALSE"

    def __reduce__(self):
        return "FALSE"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _FalsePrereq)

    def __hash__(self) -> int:
        return hash("_FalsePrereq")


#: Singleton instances of the constant conditions.
TRUE = _TruePrereq()
FALSE = _FalsePrereq()


class CourseReq(PrereqExpr):
    """A single "course completed" literal (``x_j`` in the paper)."""

    __slots__ = ("course_id",)

    def __init__(self, course_id: str):
        if not isinstance(course_id, str) or not course_id.strip():
            raise ValueError(f"course id must be a non-empty string, got {course_id!r}")
        object.__setattr__(self, "course_id", course_id.strip())

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("CourseReq is immutable")

    def __reduce__(self):
        # __setattr__ is blocked, so pickling and copying go back through
        # __init__ instead of restoring slots one by one.
        return (CourseReq, (self.course_id,))

    def evaluate(self, completed: AbstractSet[str]) -> bool:
        return self.course_id in completed

    def courses(self) -> FrozenSet[str]:
        return frozenset({self.course_id})

    def to_dnf(self) -> Dnf:
        return frozenset({frozenset({self.course_id})})

    def to_dict(self) -> Dict[str, Any]:
        return {"op": "course", "id": self.course_id}

    def to_string(self) -> str:
        return self.course_id

    def __repr__(self) -> str:
        return f"CourseReq({self.course_id!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CourseReq) and other.course_id == self.course_id

    def __hash__(self) -> int:
        return hash(("CourseReq", self.course_id))


def _flatten(cls: type, children: Iterable[PrereqExpr]) -> Tuple[PrereqExpr, ...]:
    """Flatten nested same-type nodes and drop duplicates, keeping order."""
    flat = []
    seen = set()
    for child in children:
        if not isinstance(child, PrereqExpr):
            raise TypeError(f"expected PrereqExpr, got {child!r}")
        parts = child.children if isinstance(child, cls) else (child,)
        for part in parts:
            if part not in seen:
                seen.add(part)
                flat.append(part)
    return tuple(flat)


class And(PrereqExpr):
    """Conjunction: every child condition must hold.

    Construction normalizes: nested ``And`` children are flattened,
    duplicates removed, :data:`TRUE` children dropped.  An ``And`` with no
    effective children equals :data:`TRUE` — use the :func:`all_of` factory
    (or the constructor, which returns the simplified node via ``__new__``
    tricks being deliberately avoided; call :func:`all_of` for simplification).
    """

    __slots__ = ("children",)

    def __init__(self, *children: PrereqExpr):
        object.__setattr__(self, "children", _flatten(And, children))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("And is immutable")

    def __reduce__(self):
        return (And, self.children)

    def evaluate(self, completed: AbstractSet[str]) -> bool:
        return all(child.evaluate(completed) for child in self.children)

    def courses(self) -> FrozenSet[str]:
        return frozenset().union(*(c.courses() for c in self.children)) if self.children else frozenset()

    def to_dnf(self) -> Dnf:
        result: Iterable[FrozenSet[str]] = [frozenset()]
        for child in self.children:
            child_dnf = child.to_dnf()
            if not child_dnf:
                return frozenset()  # an unsatisfiable conjunct
            result = [a | b for a in result for b in child_dnf]
            result = _prune_absorbed(result)
        return frozenset(result)

    def to_dict(self) -> Dict[str, Any]:
        return {"op": "and", "children": [c.to_dict() for c in self.children]}

    def to_string(self) -> str:
        if not self.children:
            return TRUE.to_string()
        parts = []
        for child in self.children:
            text = child.to_string()
            if isinstance(child, (Or, KOf)):
                text = f"({text})"
            parts.append(text)
        return " AND ".join(parts)

    def __repr__(self) -> str:
        return f"And{self.children!r}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, And) and frozenset(other.children) == frozenset(self.children)

    def __hash__(self) -> int:
        return hash(("And", frozenset(self.children)))


class Or(PrereqExpr):
    """Disjunction: at least one child condition must hold."""

    __slots__ = ("children",)

    def __init__(self, *children: PrereqExpr):
        object.__setattr__(self, "children", _flatten(Or, children))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Or is immutable")

    def __reduce__(self):
        return (Or, self.children)

    def evaluate(self, completed: AbstractSet[str]) -> bool:
        return any(child.evaluate(completed) for child in self.children)

    def courses(self) -> FrozenSet[str]:
        return frozenset().union(*(c.courses() for c in self.children)) if self.children else frozenset()

    def to_dnf(self) -> Dnf:
        conjunctions: set = set()
        for child in self.children:
            conjunctions |= child.to_dnf()
        return _prune_absorbed(conjunctions)

    def to_dict(self) -> Dict[str, Any]:
        return {"op": "or", "children": [c.to_dict() for c in self.children]}

    def to_string(self) -> str:
        if not self.children:
            return FALSE.to_string()
        parts = []
        for child in self.children:
            text = child.to_string()
            if isinstance(child, KOf):
                text = f"({text})"
            parts.append(text)
        return " OR ".join(parts)

    def __repr__(self) -> str:
        return f"Or{self.children!r}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Or) and frozenset(other.children) == frozenset(self.children)

    def __hash__(self) -> int:
        return hash(("Or", frozenset(self.children)))


class KOf(PrereqExpr):
    """"At least *k* of the listed conditions hold."

    ``KOf(0, …)`` is always true; ``KOf(k, …)`` with ``k`` greater than the
    number of children is never true.  ``to_dnf`` expands combinatorially —
    fine for the handful-of-children shapes registrar text produces.
    """

    __slots__ = ("k", "children")

    def __init__(self, k: int, children: Iterable[PrereqExpr]):
        children = tuple(children)
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"k must be a non-negative int, got {k!r}")
        for child in children:
            if not isinstance(child, PrereqExpr):
                raise TypeError(f"expected PrereqExpr, got {child!r}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "children", children)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("KOf is immutable")

    def __reduce__(self):
        return (KOf, (self.k, self.children))

    def evaluate(self, completed: AbstractSet[str]) -> bool:
        satisfied = sum(1 for child in self.children if child.evaluate(completed))
        return satisfied >= self.k

    def courses(self) -> FrozenSet[str]:
        return frozenset().union(*(c.courses() for c in self.children)) if self.children else frozenset()

    def to_dnf(self) -> Dnf:
        if self.k == 0:
            return TRUE.to_dnf()
        if self.k > len(self.children):
            return frozenset()
        conjunctions: set = set()
        for subset in itertools.combinations(self.children, self.k):
            conjunctions |= And(*subset).to_dnf()
        return _prune_absorbed(conjunctions)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "op": "kof",
            "k": self.k,
            "children": [c.to_dict() for c in self.children],
        }

    def to_string(self) -> str:
        inner = ", ".join(child.to_string() for child in self.children)
        return f"{self.k} OF [{inner}]"

    def __repr__(self) -> str:
        return f"KOf({self.k}, {list(self.children)!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, KOf)
            and other.k == self.k
            and other.children == self.children
        )

    def __hash__(self) -> int:
        return hash(("KOf", self.k, self.children))


# -- factories ---------------------------------------------------------------


def requires(*course_ids: str) -> PrereqExpr:
    """Conjunction of course literals: ``requires("11A", "21A")``.

    With a single id, returns the bare :class:`CourseReq`; with none,
    :data:`TRUE`.
    """
    literals = [CourseReq(cid) for cid in course_ids]
    return all_of(literals)


def all_of(exprs: Iterable[PrereqExpr]) -> PrereqExpr:
    """Simplifying conjunction: drops TRUE, collapses to FALSE, unwraps singletons."""
    kept = []
    for expr in _flatten(And, exprs):
        if expr == TRUE:
            continue
        if expr == FALSE:
            return FALSE
        kept.append(expr)
    if not kept:
        return TRUE
    if len(kept) == 1:
        return kept[0]
    return And(*kept)


def any_of(exprs: Iterable[PrereqExpr]) -> PrereqExpr:
    """Simplifying disjunction: drops FALSE, collapses to TRUE, unwraps singletons."""
    kept = []
    for expr in _flatten(Or, exprs):
        if expr == FALSE:
            continue
        if expr == TRUE:
            return TRUE
        kept.append(expr)
    if not kept:
        return FALSE
    if len(kept) == 1:
        return kept[0]
    return Or(*kept)


def from_dict(data: Dict[str, Any]) -> PrereqExpr:
    """Rebuild an expression from :meth:`PrereqExpr.to_dict` output."""
    op = data.get("op")
    if op == "true":
        return TRUE
    if op == "false":
        return FALSE
    if op == "course":
        return CourseReq(data["id"])
    if op == "and":
        return And(*(from_dict(child) for child in data["children"]))
    if op == "or":
        return Or(*(from_dict(child) for child in data["children"]))
    if op == "kof":
        return KOf(data["k"], [from_dict(child) for child in data["children"]])
    raise ValueError(f"unknown prerequisite op {op!r}")
