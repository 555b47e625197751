"""Query acceleration: memoization and transposition tables.

A goal-driven exploration repeats itself: the same ``left_i`` seat count
for thousands of tree nodes sharing a completed-set, the same prune
verdicts when one process runs related queries over one catalog.  This
package is a library-side, in-memory cache that removes that repetition
without changing a single output (path sets, counts, statistics and
explain streams are identical with caching on or off — property-tested
and pinned by ``tests/test_golden.py``).  Option sets are not among its
layers: :meth:`~repro.catalog.Catalog.eligible_courses` compiles ``Y`` to
clause masks with an exact projected memo of its own.  The layers:

* :class:`FlowMemo` — ``remaining_courses`` / ``is_satisfied`` results
  keyed by ``(goal fingerprint, completed)`` (:mod:`repro.cache.memos`);
* :class:`EvalMemo` — availability windows and prereq DNFs shared
  across pruners and generators (:mod:`repro.cache.memos`);
* :class:`TranspositionTable` — recorded pruning outcomes per distinct
  ``(term, completed)`` status (:mod:`repro.cache.transposition`).

Entry point: build one :class:`ExplorationCache` per catalog and pass it
as the ``cache=`` argument to :class:`~repro.system.CourseNavigator` or
to any goal-driven generator.  Nothing persists across processes, and
the CLI always runs uncached: each CLI command is one query, which a
cold cache only slows down.  See ``docs/caching.md``.
"""

from .fingerprint import fingerprint_payload, goal_fingerprint
from .memo import LRUMemo
from .memos import CachedGoal, EvalMemo, FlowMemo
from .runtime import ExplorationCache
from .transposition import TranspositionTable, TranspositionView, pruner_signature

__all__ = [
    "ExplorationCache",
    "FlowMemo",
    "EvalMemo",
    "CachedGoal",
    "TranspositionTable",
    "TranspositionView",
    "LRUMemo",
    "goal_fingerprint",
    "fingerprint_payload",
    "pruner_signature",
]
