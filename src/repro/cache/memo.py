"""The bounded LRU memo behind the goal cache.

One deliberately small primitive: an :class:`collections.OrderedDict`
used as an LRU map, with hit/miss/eviction accounting that can be wired
live into :mod:`repro.obs` counters.  Keys are whatever hashable the
caller chooses; values are the memoized results.

Like the rest of the engine, a memo is written by the single exploration
thread; other threads only ever read the counters (via the metrics
registry or :meth:`stats`), which is safe because the counts are plain
ints updated atomically enough for monitoring purposes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Tuple

__all__ = ["LRUMemo"]


class LRUMemo:
    """A bounded least-recently-used memoization map with accounting.

    Parameters
    ----------
    name:
        Identifier used in :meth:`stats` output.
    capacity:
        Maximum number of entries; the least recently *used* entry is
        evicted when a store would exceed it.  ``None`` means unbounded.
    """

    __slots__ = (
        "name",
        "capacity",
        "_data",
        "hits",
        "misses",
        "evictions",
        "_hit_counter",
        "_miss_counter",
        "_eviction_counter",
    )

    def __init__(self, name: str, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"memo {name!r} capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._hit_counter = None
        self._miss_counter = None
        self._eviction_counter = None

    def bind_counters(self, hits=None, misses=None, evictions=None) -> None:
        """Mirror accounting into :mod:`repro.obs` counters from now on.

        Counts accumulated *before* binding are flushed into the counters
        first, so a registry attached mid-run still sees the full totals.
        """
        if hits is not None and hits is not self._hit_counter:
            hits.inc(self.hits)
            self._hit_counter = hits
        if misses is not None and misses is not self._miss_counter:
            misses.inc(self.misses)
            self._miss_counter = misses
        if evictions is not None and evictions is not self._eviction_counter:
            evictions.inc(self.evictions)
            self._eviction_counter = evictions

    # -- the memo protocol ---------------------------------------------------

    def lookup(self, key: Hashable) -> Tuple[bool, Any]:
        """``(found, value)`` for ``key``, counting a hit or a miss.

        A hit refreshes the entry's recency.
        """
        data = self._data
        if key in data:
            data.move_to_end(key)
            self.hits += 1
            if self._hit_counter is not None:
                self._hit_counter.inc()
            return True, data[key]
        self.misses += 1
        if self._miss_counter is not None:
            self._miss_counter.inc()
        return False, None

    def store(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) ``key``, evicting the LRU entry if full.

        Does **not** count a hit or a miss: only :meth:`lookup` does.
        """
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        if self.capacity is not None and len(data) > self.capacity:
            data.popitem(last=False)
            self.evictions += 1
            if self._eviction_counter is not None:
                self._eviction_counter.inc()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def clear(self) -> None:
        """Drop every entry (counters keep accumulating)."""
        self._data.clear()

    # -- reporting -----------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Hits over lookups, 0.0 before the first lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        """A plain-dict accounting snapshot."""
        return {
            "name": self.name,
            "size": len(self._data),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }
