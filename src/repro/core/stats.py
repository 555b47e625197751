"""Exploration run statistics.

Every generator fills an :class:`ExplorationStats` while it runs: counts
of the nodes and edges it generated (a ranked run counts every node it
pushes, built or not), terminal-kind tallies, per-strategy prune events,
elapsed time.  The evaluation section's tables are assembled from these counters
(Table 1's pruned-path percentages, §5.2's 82%/18% time-vs-availability
split), so they are part of the public result API rather than debug-only
instrumentation.

The class is a hand-rolled ``__slots__`` holder rather than a dataclass:
the engines update these counters on every node, where slot access is
cheaper than an instance dict.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

__all__ = ["ExplorationStats"]


class ExplorationStats:
    """Mutable counters for one generation run."""

    __slots__ = (
        "nodes_created",
        "edges_created",
        "terminals",
        "prune_events",
        "merged_hits",
        "elapsed_seconds",
        "_started_at",
    )

    def __init__(
        self,
        nodes_created: int = 0,
        edges_created: int = 0,
        terminals: Optional[Dict[str, int]] = None,
        prune_events: Optional[Dict[str, int]] = None,
        merged_hits: int = 0,
        elapsed_seconds: float = 0.0,
    ):
        self.nodes_created = nodes_created
        self.edges_created = edges_created
        self.terminals: Dict[str, int] = dict(terminals) if terminals else {}
        self.prune_events: Dict[str, int] = dict(prune_events) if prune_events else {}
        self.merged_hits = merged_hits
        self.elapsed_seconds = elapsed_seconds
        # None = not currently timing.  A sentinel rather than 0.0:
        # perf_counter may legitimately return 0.0 at its epoch, which must
        # still count as "started".
        self._started_at: Optional[float] = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (
                self.nodes_created,
                self.edges_created,
                self.terminals,
                self.prune_events,
                self.merged_hits,
                self.elapsed_seconds,
            ) == (
                other.nodes_created,
                other.edges_created,
                other.terminals,
                other.prune_events,
                other.merged_hits,
                other.elapsed_seconds,
            )
        return NotImplemented

    __hash__ = None  # mutable, like the dataclass it replaced

    def __repr__(self) -> str:
        return (
            f"ExplorationStats(nodes_created={self.nodes_created!r}, "
            f"edges_created={self.edges_created!r}, "
            f"terminals={self.terminals!r}, "
            f"prune_events={self.prune_events!r}, "
            f"merged_hits={self.merged_hits!r}, "
            f"elapsed_seconds={self.elapsed_seconds!r})"
        )

    # -- recording -----------------------------------------------------------

    def start_timer(self) -> None:
        """Begin (or resume) timing; pair with :meth:`stop_timer`.

        Repeated start/stop pairs *accumulate* into ``elapsed_seconds``,
        so a run that is interrupted and resumed reports its total time.
        """
        self._started_at = time.perf_counter()

    def stop_timer(self) -> None:
        """Accumulate wall time since the matching :meth:`start_timer`.

        A no-op when the timer is not running, so the limit-abort paths
        (which stop before raising) and the normal epilogue compose.
        """
        if self._started_at is not None:
            self.elapsed_seconds += time.perf_counter() - self._started_at
            self._started_at = None

    def record_node(self) -> None:
        """Count one node creation."""
        self.nodes_created += 1

    def record_edge(self) -> None:
        """Count one edge creation."""
        self.edges_created += 1

    def record_terminal(self, kind: str) -> None:
        """Count one terminal node of ``kind``."""
        self.terminals[kind] = self.terminals.get(kind, 0) + 1

    def record_prune(self, pruner_name: str, count: int = 1) -> None:
        """Count ``count`` subtrees cut by the named pruning strategy."""
        self.prune_events[pruner_name] = self.prune_events.get(pruner_name, 0) + count

    def record_merge(self) -> None:
        """Count one status-merge hit (frontier only)."""
        self.merged_hits += 1

    def merge(self, other: "ExplorationStats") -> "ExplorationStats":
        """Fold another run's counters into this one; returns self.

        Sums every counter, unions the terminal/prune tallies, and adds
        elapsed time — the aggregation multi-run benchmarks need when
        reporting totals over several horizons or repeats.
        """
        self.nodes_created += other.nodes_created
        self.edges_created += other.edges_created
        for kind, count in other.terminals.items():
            self.terminals[kind] = self.terminals.get(kind, 0) + count
        for name, count in other.prune_events.items():
            self.prune_events[name] = self.prune_events.get(name, 0) + count
        self.merged_hits += other.merged_hits
        self.elapsed_seconds += other.elapsed_seconds
        return self

    # -- reporting -------------------------------------------------------------

    @property
    def total_prunes(self) -> int:
        """Total prune events across all strategies."""
        return sum(self.prune_events.values())

    def prune_share(self, pruner_name: str) -> float:
        """Fraction of prune events attributed to one strategy
        (the §5.2 82%/18% split)."""
        total = self.total_prunes
        if total == 0:
            return 0.0
        return self.prune_events.get(pruner_name, 0) / total

    def terminal_count(self, kind: str) -> int:
        """Number of terminals of ``kind``."""
        return self.terminals.get(kind, 0)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable snapshot."""
        return {
            "nodes_created": self.nodes_created,
            "edges_created": self.edges_created,
            "terminals": dict(self.terminals),
            "prune_events": dict(self.prune_events),
            "merged_hits": self.merged_hits,
            "elapsed_seconds": self.elapsed_seconds,
        }

    def summary(self) -> str:
        """A one-line human-readable summary."""
        terminals = ", ".join(f"{k}={v}" for k, v in sorted(self.terminals.items()))
        prunes = ", ".join(f"{k}={v}" for k, v in sorted(self.prune_events.items()))
        return (
            f"{self.nodes_created} nodes, {self.edges_created} edges, "
            f"terminals[{terminals or '-'}], prunes[{prunes or '-'}], "
            f"{self.elapsed_seconds:.3f}s"
        )
