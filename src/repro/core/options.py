"""Course-combination enumeration (the ``W ⊆ Y`` loop of Algorithm 1).

Given an option set ``Y`` and the per-term cap ``m``, Algorithm 1 iterates
every course combination ``W`` with ``|W| ≤ m``.  The paper's combination
count ``Σ_{i=1..m} C(|Y|, i)`` excludes the empty set; empty transitions
are a separate, policy-controlled move (see
:class:`~repro.core.config.ExplorationConfig.empty_selection`).

Enumeration order is deterministic — sizes ascending, lexicographic within
a size — so graphs, path order, and benchmark results are reproducible
run-to-run.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import AbstractSet, FrozenSet, Iterator

__all__ = ["iter_selections", "selection_count"]


def iter_selections(
    options: AbstractSet[str],
    max_per_term: int,
    min_per_term: int = 1,
) -> Iterator[FrozenSet[str]]:
    """Yield every selection ``W ⊆ options`` with
    ``min_per_term ≤ |W| ≤ max_per_term``, deterministically ordered.

    ``min_per_term`` implements the strategic-selection refinement: when the
    time-based pruner proves at least ``min_i`` courses are needed this
    semester, smaller selections are skipped.  Pass ``min_per_term=0`` to
    include the empty selection.
    """
    ordered = sorted(options)
    lower = max(min_per_term, 0)
    upper = min(max_per_term, len(ordered))
    for size in range(lower, upper + 1):
        for combo in itertools.combinations(ordered, size):
            yield frozenset(combo)


def selection_count(option_count: int, max_per_term: int) -> int:
    """The paper's per-node branching factor ``Σ_{i=1..m} C(|Y|, i)``."""
    return sum(comb(option_count, size) for size in range(1, max_per_term + 1))
