"""The in-memory memo layers: flow results, evaluation results, goals.

Three cooperating pieces:

* :class:`FlowMemo` — memoizes what the pruning strategies ask of a goal:
  ``remaining_courses`` (the max-flow-backed ``left_i`` of §4.2.1) and
  ``is_satisfied`` (the terminal test and availability pruning's §4.2.2
  best-case check), keyed by ``(goal fingerprint, completed)``.  Keying on
  the *fingerprint* rather than the object means a degree goal rebuilt
  per query still reuses every prior answer, and lets the persistent
  store replay entries across processes.

* :class:`EvalMemo` — memoizes catalog-level evaluation: the
  availability pruner's offered-in-remaining-semesters window and
  prerequisite-expression DNF conversion.  Option sets are not held here:
  :meth:`~repro.catalog.Catalog.eligible_courses` compiles ``Y`` to
  prerequisite clause masks and memoises it exactly on the slice of the
  completed set each term can read, cache or no cache.  Keys use
  *identity tokens* for schedule objects: hashing a schedule's full
  offering map on every lookup would cost more than the lookup saves, so
  each distinct object is assigned a small integer token once (a strong
  reference is kept so tokens can never be recycled onto a different
  object).

* :class:`CachedGoal` — a transparent :class:`~repro.requirements.Goal`
  wrapper that routes ``is_satisfied``/``remaining_courses`` through a
  :class:`FlowMemo`.  Satisfaction and remaining-count are memoized
  *separately*: for the composite goals, ``remaining_courses`` is an
  admissible bound rather than an exact count, so neither answer may be
  derived from the other without changing results.
"""

from __future__ import annotations

import itertools
import math
from typing import (
    AbstractSet,
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Tuple,
)

from ..requirements import Goal
from ..semester import Term
from .fingerprint import goal_fingerprint
from .memo import LRUMemo

__all__ = ["FlowMemo", "EvalMemo", "CachedGoal"]

#: Default entry bounds: generous enough that the paper-scale workloads
#: (Table 2 tops out well under a million distinct completed-sets) never
#: evict, small enough to bound memory on runaway horizons.
DEFAULT_FLOW_CAPACITY = 200_000
#: Offered windows and DNFs are tiny key spaces (one entry per term window
#: / per distinct expression), so the eval layer's bound is small.
DEFAULT_EVAL_CAPACITY = 4096


class FlowMemo:
    """Memoized goal queries, keyed by ``(kind, goal fingerprint, completed)``."""

    __slots__ = ("memo",)

    #: Entry kinds (also the persistent store's ``kind`` field).
    REMAINING = "left"
    SATISFIED = "sat"

    def __init__(self, capacity: Optional[int] = DEFAULT_FLOW_CAPACITY):
        self.memo = LRUMemo("flow", capacity)

    def lookup_remaining(
        self, fingerprint: str, completed: FrozenSet[str]
    ) -> Tuple[bool, Any]:
        """Cached ``remaining_courses`` answer, if any."""
        return self.memo.lookup((self.REMAINING, fingerprint, completed))

    def store_remaining(
        self, fingerprint: str, completed: FrozenSet[str], value: float
    ) -> None:
        self.memo.store((self.REMAINING, fingerprint, completed), value)

    def lookup_satisfied(
        self, fingerprint: str, completed: FrozenSet[str]
    ) -> Tuple[bool, Any]:
        """Cached ``is_satisfied`` answer, if any."""
        return self.memo.lookup((self.SATISFIED, fingerprint, completed))

    def store_satisfied(
        self, fingerprint: str, completed: FrozenSet[str], value: bool
    ) -> None:
        self.memo.store((self.SATISFIED, fingerprint, completed), value)

    # -- persistence hooks ---------------------------------------------------

    def export_entries(self) -> Iterator[Dict[str, Any]]:
        """JSON-serializable entries, LRU first (the store's line format)."""
        for key, value in self.memo.items():
            kind, fingerprint, completed = key
            if isinstance(value, float) and math.isinf(value):
                value = "inf"
            yield {
                "kind": kind,
                "goal": fingerprint,
                "completed": sorted(completed),
                "value": value,
            }

    def preload(self, entry: Dict[str, Any]) -> bool:
        """Insert one exported entry; returns whether it was well-formed.

        Preloads never count as hits or misses, so a warm start does not
        inflate the reported hit rate.
        """
        kind = entry.get("kind")
        fingerprint = entry.get("goal")
        completed = entry.get("completed")
        value = entry.get("value")
        if not isinstance(fingerprint, str) or not isinstance(completed, list):
            return False
        if value == "inf":
            value = math.inf
        if kind == self.REMAINING:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                return False
        elif kind == self.SATISFIED:
            if not isinstance(value, bool):
                return False
        else:
            return False
        self.memo.store((kind, fingerprint, frozenset(completed)), value)
        return True


class EvalMemo:
    """Shared catalog-level evaluation caches (one per exploration cache).

    Every pruner instance built against the same
    :class:`~repro.cache.ExplorationCache` routes through this object, so
    goal and ranked runs over the same catalog compute each offered-window
    exactly once between them.
    """

    __slots__ = ("offered_memo", "dnf_memo", "_tokens", "_next_token")

    def __init__(self, capacity: Optional[int] = DEFAULT_EVAL_CAPACITY):
        self.offered_memo = LRUMemo("eval_offered", capacity)
        self.dnf_memo = LRUMemo("eval_dnf", capacity)
        self._tokens: Dict[int, Tuple[int, Any]] = {}
        self._next_token = itertools.count()

    @property
    def memos(self) -> List[LRUMemo]:
        """The constituent memos (for metrics binding and stats)."""
        return [self.offered_memo, self.dnf_memo]

    def token(self, obj: Any) -> int:
        """A stable small-integer identity token for ``obj``.

        Tokens replace expensive content hashes (``Schedule.__hash__``
        rebuilds a frozenset of its whole offering map) in memo keys.  The
        table keeps a strong reference, so an object's id can never be
        reused for a different token while this memo is alive.
        """
        entry = self._tokens.get(id(obj))
        if entry is not None:
            return entry[0]
        token = next(self._next_token)
        self._tokens[id(obj)] = (token, obj)
        return token

    def offered_window(
        self, schedule, first_term: Term, last_term: Term, avoid: FrozenSet[str]
    ) -> FrozenSet[str]:
        """Memoized availability window: everything offered in
        ``[first_term, last_term]`` minus the avoid-list (§4.2.2's
        best-case completion pool)."""
        if last_term < first_term:
            return frozenset()
        key = (self.token(schedule), first_term, last_term, avoid)
        found, value = self.offered_memo.lookup(key)
        if found:
            return value
        value = schedule.offered_between(first_term, last_term) - avoid
        self.offered_memo.store(key, value)
        return value

    def dnf(self, expression) -> FrozenSet[FrozenSet[str]]:
        """Memoized :meth:`~repro.catalog.prereq.PrereqExpr.to_dnf`."""
        key = self.token(expression)
        found, value = self.dnf_memo.lookup(key)
        if found:
            return value
        value = expression.to_dnf()
        self.dnf_memo.store(key, value)
        return value


class CachedGoal(Goal):
    """A goal whose queries are served through a :class:`FlowMemo`.

    Pure delegation otherwise: ``courses``/``describe``/``to_dict`` and
    equality/hash forward to the wrapped goal, so a cached goal is
    indistinguishable from the original everywhere except speed.  For
    :class:`~repro.requirements.ExpressionGoal` the wrapper may carry the
    expression's pre-converted DNF and compute ``remaining_courses`` with
    the exact formula of ``PrereqExpr.min_courses_to_satisfy`` — same
    values, minus the per-call DNF conversion.
    """

    def __init__(
        self,
        goal: Goal,
        flow: FlowMemo,
        fingerprint: Optional[str] = None,
        dnf: Optional[FrozenSet[FrozenSet[str]]] = None,
    ):
        if isinstance(goal, CachedGoal):
            goal = goal.inner
        self._inner = goal
        self._flow = flow
        self._fingerprint = fingerprint or goal_fingerprint(goal)
        self._dnf = dnf

    @property
    def inner(self) -> Goal:
        """The wrapped goal."""
        return self._inner

    @property
    def fingerprint(self) -> str:
        """The wrapped goal's content fingerprint (the memo key prefix)."""
        return self._fingerprint

    @property
    def flow_memo(self) -> FlowMemo:
        """The memo serving this wrapper."""
        return self._flow

    def is_satisfied(self, completed: AbstractSet[str]) -> bool:
        completed = frozenset(completed)
        found, value = self._flow.lookup_satisfied(self._fingerprint, completed)
        if found:
            return value
        value = self._inner.is_satisfied(completed)
        self._flow.store_satisfied(self._fingerprint, completed, value)
        return value

    def remaining_courses(self, completed: AbstractSet[str]) -> float:
        completed = frozenset(completed)
        found, value = self._flow.lookup_remaining(self._fingerprint, completed)
        if found:
            return value
        if self._dnf is not None:
            # min_courses_to_satisfy, verbatim, over the pre-converted DNF.
            if self._dnf:
                value = min(len(conjunction - completed) for conjunction in self._dnf)
            else:
                value = math.inf
        else:
            value = self._inner.remaining_courses(completed)
        self._flow.store_remaining(self._fingerprint, completed, value)
        return value

    def courses(self) -> FrozenSet[str]:
        return self._inner.courses()

    def describe(self) -> str:
        return self._inner.describe()

    def to_dict(self) -> Dict[str, Any]:
        return self._inner.to_dict()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CachedGoal):
            other = other.inner
        return self._inner == other

    def __hash__(self) -> int:
        return hash(self._inner)

    def __repr__(self) -> str:
        return f"CachedGoal({self._inner!r})"
