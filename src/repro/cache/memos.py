"""The goal memo: :class:`CachedGoal` and the :class:`ExplorationCache`
that hands it out.

The goal-driven search asks its goal two questions per node (§4.2):
``is_satisfied`` (the terminal test and availability pruning's §4.2.2
best-case check) and ``remaining_courses`` (``left_i`` of §4.2.1).
:class:`CachedGoal` answers both from one bounded :class:`LRUMemo`, keyed
by ``(question, goal fingerprint, completed)``.  Keying on the content
*fingerprint* rather than the object means a degree goal rebuilt per
query still reuses every prior answer.  The two questions are memoized
separately: for the composite goals ``remaining_courses`` is an
admissible bound rather than an exact count, so neither answer may be
derived from the other without changing results.

The engines never see the cache: :class:`~repro.system.CourseNavigator`
wraps the goal once per query, and a library caller passes
``cache.wrap_goal(goal)`` as the goal.
"""

from __future__ import annotations

import hashlib
import json
from typing import AbstractSet, Any, Dict, FrozenSet, Optional

from ..requirements import Goal
from .memo import LRUMemo

__all__ = ["CachedGoal", "ExplorationCache", "goal_fingerprint"]

#: Default entry bound: generous enough that the paper-scale workloads
#: (Table 2 tops out well under a million distinct completed-sets) never
#: evict, small enough to bound memory on runaway horizons.
DEFAULT_FLOW_CAPACITY = 200_000


def goal_fingerprint(goal: Goal) -> str:
    """SHA-256 of ``goal``'s canonical JSON form (sorted keys, no
    whitespace), so structurally identical goals share one digest."""
    canonical = json.dumps(goal.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class CachedGoal(Goal):
    """A goal whose queries are served through a shared :class:`LRUMemo`.

    Pure delegation otherwise: ``courses``/``describe``/``to_dict`` and
    equality/hash forward to the wrapped goal, so a cached goal is
    indistinguishable from the original everywhere except speed.
    """

    def __init__(self, goal: Goal, memo: LRUMemo):
        if isinstance(goal, CachedGoal):
            goal = goal.inner
        self._inner = goal
        self._memo = memo
        self._fingerprint = goal_fingerprint(goal)

    @property
    def inner(self) -> Goal:
        """The wrapped goal."""
        return self._inner

    @property
    def memo(self) -> LRUMemo:
        """The memo serving this wrapper."""
        return self._memo

    def is_satisfied(self, completed: AbstractSet[str]) -> bool:
        key = ("sat", self._fingerprint, frozenset(completed))
        found, value = self._memo.lookup(key)
        if not found:
            value = self._inner.is_satisfied(key[2])
            self._memo.store(key, value)
        return value

    def remaining_courses(self, completed: AbstractSet[str]) -> float:
        key = ("left", self._fingerprint, frozenset(completed))
        found, value = self._memo.lookup(key)
        if not found:
            value = self._inner.remaining_courses(key[2])
            self._memo.store(key, value)
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


class ExplorationCache:
    """One goal memo shared by every query over one catalog.

    Parameters
    ----------
    flow_capacity:
        LRU entry bound of the memo (``None`` = unbounded).

    Guarantee: caching is *output-invisible*.  The memo replays a
    previously computed pure function of its key, so path sets, counts,
    statistics and decision streams are identical with the cache on or
    off (``tests/test_cache.py`` and ``tests/test_golden.py`` enforce
    this).  Like the engine itself, a cache is written from the single
    exploration thread.
    """

    def __init__(self, flow_capacity: Optional[int] = DEFAULT_FLOW_CAPACITY):
        self.flow = LRUMemo("flow", flow_capacity)
        self._metrics = None

    def wrap_goal(self, goal: Goal) -> Goal:
        """A :class:`CachedGoal` over ``goal`` backed by this cache's memo.

        Idempotent: wrapping a wrap returns it unchanged.  Each call
        otherwise builds a new wrapper, and the cache keeps none of them,
        so a goal is freed with its last wrapper; every wrapper of equal
        goals shares answers, because the memo keys on the fingerprint.
        """
        if isinstance(goal, CachedGoal) and goal.memo is self.flow:
            return goal
        return CachedGoal(goal, self.flow)

    def bind_metrics(self, registry) -> None:
        """Emit hit/miss/eviction counters, labelled ``layer="flow"``, into
        a :class:`~repro.obs.MetricsRegistry` (idempotent per registry).

        Counts accumulated before binding are flushed in, so totals are
        complete.
        """
        if registry is None or registry is self._metrics:
            return
        self._metrics = registry
        labels = {"layer": "flow"}
        self.flow.bind_counters(
            registry.counter(
                "repro_cache_hits_total", "cache lookups served from memory", labels
            ),
            registry.counter(
                "repro_cache_misses_total", "cache lookups that had to compute", labels
            ),
            registry.counter(
                "repro_cache_evictions_total", "cache entries dropped by the LRU bound", labels
            ),
        )

    def counter_totals(self) -> Dict[str, Dict[str, int]]:
        """Per-layer ``{hits, misses, evictions}`` totals, read from the
        memo itself, so they are available without a bound registry.

        The ``eval`` and ``transposition`` layers are gone; their keys stay,
        always zero, for readers that still report them.
        """
        flow = self.flow
        zero = {"hits": 0, "misses": 0, "evictions": 0}
        return {
            "flow": {"hits": flow.hits, "misses": flow.misses, "evictions": flow.evictions},
            "eval": dict(zero),
            "transposition": dict(zero),
        }

    def stats(self) -> Dict[str, Any]:
        """A plain-dict snapshot of the memo."""
        return {"flow": self.flow.stats()}
