"""The :class:`ExplorationCache` bundle — one object the engine threads.

Mirrors the shape of :class:`~repro.obs.runtime.Observability`: the
generators and the :class:`~repro.system.CourseNavigator` take one
optional ``cache`` argument, and everything — flow memo, eval memo,
transposition table, persistent store, metrics binding — hangs off it.
``cache=None`` (the default for the library API) is the seed engine,
untouched.

Sharing model: one cache per catalog.  All four generators, every pruner
instance, and repeated queries through one navigator reuse the same
memos; nothing is global, so two navigators over different catalogs
never interfere.  Like the engine itself, a cache is written from the
single exploration thread.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..requirements import Goal
from ..requirements.goals import ExpressionGoal
from .fingerprint import catalog_fingerprint, goal_fingerprint
from .memo import LRUMemo
from .memos import (
    DEFAULT_EVAL_CAPACITY,
    DEFAULT_FLOW_CAPACITY,
    CachedGoal,
    EvalMemo,
    FlowMemo,
)
from .store import CacheStore
from .transposition import (
    DEFAULT_TRANSPOSITION_CAPACITY,
    TranspositionTable,
    TranspositionView,
    pruner_signature,
)

__all__ = ["ExplorationCache"]


class ExplorationCache:
    """Query acceleration for one catalog: memos + transpositions + store.

    Parameters
    ----------
    flow_capacity, eval_capacity, transposition_capacity:
        LRU entry bounds per layer (``None`` = unbounded).
    store:
        Optional :class:`~repro.cache.CacheStore`; its entries warm-start
        the flow memo immediately, and :meth:`save` writes the memo back.

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
        store: Optional[CacheStore] = None,
    ):
        self.flow = FlowMemo(flow_capacity)
        self.eval = EvalMemo(eval_capacity)
        self.transposition = TranspositionTable(transposition_capacity)
        self.store = store
        self._metrics = None
        self._wrapped: Dict[int, CachedGoal] = {}
        self._fingerprints: Dict[int, Any] = {}  # id -> (fingerprint, goal ref)
        if store is not None:
            store.load_into(self.flow)

    @classmethod
    def with_store(cls, catalog, cache_dir: str, **kwargs) -> "ExplorationCache":
        """A cache whose flow memo persists under ``cache_dir``.

        The store file is keyed by ``catalog``'s content fingerprint, so
        editing the catalog automatically cold-starts (the old file is
        simply never opened).
        """
        store = CacheStore(cache_dir, catalog_fingerprint(catalog))
        return cls(store=store, **kwargs)

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
        layers = (
            ("flow", [self.flow.memo]),
            ("eval", self.eval.memos),
            ("transposition", [self.transposition.memo]),
        )
        for layer, memos in layers:
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
        if self.store is not None:
            registry.gauge(
                "repro_cache_store_entries_loaded",
                "flow entries warm-started from the persistent store",
            ).set(self.store.loaded_entries)

    def counter_totals(self) -> Dict[str, Dict[str, int]]:
        """Per-layer ``{hits, misses, evictions}`` totals, read from the
        memos themselves, so they are available without a bound registry."""
        totals: Dict[str, Dict[str, int]] = {}
        for layer, memos in (
            ("flow", [self.flow.memo]),
            ("eval", self.eval.memos),
            ("transposition", [self.transposition.memo]),
        ):
            totals[layer] = {
                "hits": sum(memo.hits for memo in memos),
                "misses": sum(memo.misses for memo in memos),
                "evictions": sum(memo.evictions for memo in memos),
            }
        return totals

    # -- persistence ---------------------------------------------------------

    def save(self) -> int:
        """Write the flow memo back to the store; 0 when storeless."""
        if self.store is None:
            return 0
        return self.store.save_from(self.flow)

    # -- reporting -----------------------------------------------------------

    @property
    def memos(self) -> List[LRUMemo]:
        """Every constituent memo (flow, eval×3, transposition)."""
        return [self.flow.memo] + self.eval.memos + [self.transposition.memo]

    def stats(self) -> Dict[str, Any]:
        """A plain-dict snapshot across all layers (plus store, if any)."""
        snapshot: Dict[str, Any] = {
            "flow": self.flow.memo.stats(),
            "eval": [memo.stats() for memo in self.eval.memos],
            "transposition": self.transposition.memo.stats(),
        }
        if self.store is not None:
            snapshot["store"] = self.store.stats()
        return snapshot

    def describe_line(self) -> str:
        """A one-line summary for CLI stderr reporting."""
        parts = []
        for label, memos in (
            ("flow", [self.flow.memo]),
            ("eval", self.eval.memos),
            ("transposition", [self.transposition.memo]),
        ):
            hits = sum(memo.hits for memo in memos)
            misses = sum(memo.misses for memo in memos)
            total = hits + misses
            rate = f" ({hits / total:.0%})" if total else ""
            parts.append(f"{label} {hits}/{total}{rate}")
        line = "cache hits: " + ", ".join(parts)
        if self.store is not None and self.store.warm_start:
            line += f"; warm-started {self.store.loaded_entries} flow entries"
        return line
