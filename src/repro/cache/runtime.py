"""The :class:`ExplorationCache` bundle — one object the engine threads.

Mirrors the shape of :class:`~repro.obs.runtime.Observability`: the
generators and the :class:`~repro.system.CourseNavigator` take one
optional ``cache`` argument, and everything — flow memo, eval memo,
transposition table, metrics binding — hangs off it.
``cache=None`` (the default for the library API) is the seed engine,
untouched.

Sharing model: one cache per catalog, held for the life of a process.
Every goal-driven engine but the merged DAG (tree, ranked, frontier), every
pruner instance, and repeated queries through one navigator reuse the
same memos; nothing is global, so two navigators over different catalogs
never interfere.  Deadline-driven runs have no goal and never touch it.
Like the engine itself, a cache is written from the single exploration
thread.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..requirements import Goal
from ..requirements.goals import ExpressionGoal
from .fingerprint import goal_fingerprint
from .memo import LRUMemo
from .memos import (
    DEFAULT_EVAL_CAPACITY,
    DEFAULT_FLOW_CAPACITY,
    CachedGoal,
    EvalMemo,
    FlowMemo,
)
from .transposition import (
    DEFAULT_TRANSPOSITION_CAPACITY,
    TranspositionTable,
    TranspositionView,
    pruner_signature,
)

__all__ = ["ExplorationCache"]


class ExplorationCache:
    """Query acceleration for one catalog: memos + transpositions.

    Parameters
    ----------
    flow_capacity, eval_capacity, transposition_capacity:
        LRU entry bounds per layer (``None`` = unbounded).

    Guarantee: caching is *output-invisible*.  Every layer replays a
    previously computed pure function of its key, so path sets, counts,
    statistics and decision streams are identical with the cache on or
    off (the equivalence suite in ``tests/test_cache.py`` enforces this).
    """

    def __init__(
        self,
        flow_capacity: Optional[int] = DEFAULT_FLOW_CAPACITY,
        eval_capacity: Optional[int] = DEFAULT_EVAL_CAPACITY,
        transposition_capacity: Optional[int] = DEFAULT_TRANSPOSITION_CAPACITY,
    ):
        self.flow = FlowMemo(flow_capacity)
        self.eval = EvalMemo(eval_capacity)
        self.transposition = TranspositionTable(transposition_capacity)
        self._metrics = None
        self._wrapped: Dict[int, CachedGoal] = {}
        self._fingerprints: Dict[int, Any] = {}  # id -> (fingerprint, goal ref)

    # -- goal plumbing -------------------------------------------------------

    def fingerprint_for(self, goal: Goal) -> str:
        """``goal``'s content fingerprint, computed once per object."""
        if isinstance(goal, CachedGoal):
            return goal.fingerprint
        entry = self._fingerprints.get(id(goal))
        if entry is not None:
            return entry[0]
        fingerprint = goal_fingerprint(goal)
        # Keep a strong reference so the id cannot be recycled.
        self._fingerprints[id(goal)] = (fingerprint, goal)
        return fingerprint

    def wrap_goal(self, goal: Goal) -> Goal:
        """A :class:`CachedGoal` over ``goal`` backed by this cache's memo.

        Idempotent (wrapping a wrap returns it unchanged) and stable per
        goal object, so repeated queries reuse one wrapper.
        """
        if isinstance(goal, CachedGoal) and goal.flow_memo is self.flow:
            return goal
        wrapped = self._wrapped.get(id(goal))
        if wrapped is not None:
            return wrapped
        dnf = None
        if isinstance(goal, ExpressionGoal):
            dnf = self.eval.dnf(goal.expression)
        wrapped = CachedGoal(goal, self.flow, fingerprint=self.fingerprint_for(goal), dnf=dnf)
        self._wrapped[id(goal)] = wrapped
        return wrapped

    def transposition_view(
        self, goal: Goal, end_term, config, pruners: Sequence
    ) -> TranspositionView:
        """A per-run view of the transposition table.

        The run key covers everything a prune verdict depends on besides
        the status itself: the goal's content, the deadline, the config,
        and the pruner stack (class + order).  An unhashable config
        (exotic constraint objects) falls back to identity keying —
        strictly less reuse, never a wrong answer.
        """
        try:
            hash(config)
            config_key: Any = config
        except TypeError:
            config_key = self.eval.token(config)
        run_key = (
            self.fingerprint_for(goal),
            end_term,
            config_key,
            pruner_signature(pruners),
        )
        return self.transposition.view(run_key)

    # -- observability -------------------------------------------------------

    def _layers(self):
        """``(layer label, memos)`` pairs, the unit of every report."""
        return (
            ("flow", [self.flow.memo]),
            ("eval", self.eval.memos),
            ("transposition", [self.transposition.memo]),
        )

    def bind_metrics(self, registry) -> None:
        """Emit hit/miss/eviction counters into a
        :class:`~repro.obs.MetricsRegistry` (idempotent per registry).

        One counter triple per layer, labelled ``layer="flow"`` /
        ``"eval"`` / ``"transposition"``; counts accumulated before
        binding are flushed in so totals are complete.
        """
        if registry is None or registry is self._metrics:
            return
        self._metrics = registry
        for layer, memos in self._layers():
            labels = {"layer": layer}
            hits = registry.counter(
                "repro_cache_hits_total", "cache lookups served from memory", labels
            )
            misses = registry.counter(
                "repro_cache_misses_total", "cache lookups that had to compute", labels
            )
            evictions = registry.counter(
                "repro_cache_evictions_total", "cache entries dropped by the LRU bound", labels
            )
            for memo in memos:
                memo.bind_counters(hits, misses, evictions)

    def counter_totals(self) -> Dict[str, Dict[str, int]]:
        """Per-layer ``{hits, misses, evictions}`` totals, read from the
        memos themselves, so they are available without a bound registry."""
        totals: Dict[str, Dict[str, int]] = {}
        for layer, memos in self._layers():
            totals[layer] = {
                "hits": sum(memo.hits for memo in memos),
                "misses": sum(memo.misses for memo in memos),
                "evictions": sum(memo.evictions for memo in memos),
            }
        return totals

    # -- reporting -----------------------------------------------------------

    @property
    def memos(self) -> List[LRUMemo]:
        """Every constituent memo (flow, eval×2, transposition)."""
        return [self.flow.memo] + self.eval.memos + [self.transposition.memo]

    def stats(self) -> Dict[str, Any]:
        """A plain-dict snapshot across all layers."""
        return {
            "flow": self.flow.memo.stats(),
            "eval": [memo.stats() for memo in self.eval.memos],
            "transposition": self.transposition.memo.stats(),
        }
