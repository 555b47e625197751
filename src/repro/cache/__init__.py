"""Query acceleration: one memo of goal answers.

A goal-driven exploration asks its goal the same questions again and
again: ``left_i`` and the satisfaction test for thousands of tree nodes
that share a completed set, and for related queries a process runs over
one catalog.  An :class:`ExplorationCache` memoizes those answers in one
bounded :class:`LRUMemo` behind a :class:`CachedGoal` wrapper, without
changing a single output (path sets, counts, statistics and explain
streams are identical with caching on or off — property-tested and
pinned by ``tests/test_golden.py``).

The engines never see it.  Build one cache per catalog and pass it as
the ``cache=`` argument of :class:`~repro.system.CourseNavigator`, which
wraps each query's goal; a library caller of the generators passes
``cache.wrap_goal(goal)`` as the goal.  Nothing persists across
processes, and the CLI always runs uncached: each CLI command is one
query, which a cold cache only slows down.  See ``docs/caching.md``.
"""

from .memo import LRUMemo
from .memos import CachedGoal, ExplorationCache, goal_fingerprint

__all__ = ["ExplorationCache", "CachedGoal", "LRUMemo", "goal_fingerprint"]
