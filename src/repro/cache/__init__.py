"""Query acceleration: memoization, transposition tables, persistence.

The exploration engine's hot loop repeats itself at every scale — the
same max-flow ``left_i`` solve for thousands of tree nodes sharing a
completed-set, the same verdicts when one student re-runs a query against
an unchanged catalog.  This package removes the repetition without
changing a single output (path sets, counts, statistics and explain
streams are identical with caching on or off — property-tested).
Option sets are not among its layers:
:meth:`~repro.catalog.Catalog.eligible_courses` compiles ``Y`` to clause
masks with an exact projected memo of its own.  The layers:

* :class:`FlowMemo` — ``remaining_courses`` / ``is_satisfied`` results
  keyed by ``(goal fingerprint, completed)`` (:mod:`repro.cache.memos`);
* :class:`EvalMemo` — availability windows and prereq DNFs shared
  across pruners and generators (:mod:`repro.cache.memos`);
* :class:`TranspositionTable` — recorded pruning outcomes per distinct
  ``(term, completed)`` status (:mod:`repro.cache.transposition`);
* :class:`CacheStore` — a JSONL store under ``--cache-dir``, keyed by
  catalog content fingerprint, warm-starting the flow memo across
  processes and invalidating on any catalog change
  (:mod:`repro.cache.store`).

Entry point: build one :class:`ExplorationCache` per catalog and pass it
as the ``cache=`` argument to :class:`~repro.system.CourseNavigator` or
any generator, or use the CLI's ``--cache/--no-cache`` / ``--cache-dir``
flags.  See ``docs/caching.md``.
"""

from .fingerprint import (
    catalog_fingerprint,
    fingerprint_payload,
    goal_fingerprint,
    schedule_fingerprint,
)
from .memo import LRUMemo
from .memos import CachedGoal, EvalMemo, FlowMemo
from .runtime import ExplorationCache
from .store import CacheStore
from .transposition import TranspositionTable, TranspositionView, pruner_signature

__all__ = [
    "ExplorationCache",
    "FlowMemo",
    "EvalMemo",
    "CachedGoal",
    "TranspositionTable",
    "TranspositionView",
    "CacheStore",
    "LRUMemo",
    "catalog_fingerprint",
    "goal_fingerprint",
    "schedule_fingerprint",
    "fingerprint_payload",
    "pruner_signature",
]
