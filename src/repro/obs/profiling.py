"""Profiling hooks: per-phase time breakdown and peak-memory capture.

The engine charges wall time to named **phases** while a timed run goes
(a tracer or a metrics registry attached):

========================  ====================================================
``expand``                successor generation + node/edge insertion
``prune``                 the whole pruning-strategy consultation for a node
``prune:time``            the time-based bound alone (inside ``prune``)
``prune:availability``    the availability bound alone (inside ``prune``)
``goal``                  every query of the run's goal: terminal test,
                          ``left_i`` and best-case checks (inside whatever
                          phase asked)
``rank``                  edge-cost + admissible-bound evaluation (ranked runs)
``merge``                 frontier-layer state merging (frontier DP runs)
========================  ====================================================

Phase times are **inclusive** — ``prune`` contains its ``prune:*`` and any
``goal`` time spent inside it — so sub-phases explain their parent rather
than summing with it.  :class:`PhaseBreakdown` is the cheap accumulator
(one dict entry per phase).  Each phase entry is measured once (by its
span when tracing is on), and that one value also feeds the
``repro_phase_duration_seconds{phase}`` histogram when a metrics registry
is attached, so the breakdown, the histogram and the span durations agree.

:func:`capture_peak_memory` wraps ``tracemalloc`` for optional per-run
peak-RSS-style accounting (allocation tracking costs 2-4x run time, so it
is opt-in and off by default).
"""

from __future__ import annotations

import tracemalloc
from typing import Dict, List, Optional, Tuple

__all__ = [
    "PhaseBreakdown",
    "MemoryProfile",
    "capture_peak_memory",
    "PHASE_METRIC_NAME",
]

#: Histogram family every phase duration is observed into (label ``phase``).
PHASE_METRIC_NAME = "repro_phase_duration_seconds"


class PhaseBreakdown:
    """Accumulated inclusive seconds + entry counts per phase name."""

    __slots__ = ("_seconds", "_counts")

    def __init__(self) -> None:
        self._seconds: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}

    def add(self, phase: str, seconds: float, count: int = 1) -> None:
        """Charge ``seconds`` (and ``count`` entries) to ``phase``."""
        self._seconds[phase] = self._seconds.get(phase, 0.0) + seconds
        self._counts[phase] = self._counts.get(phase, 0) + count

    def seconds(self, phase: str) -> float:
        """Total inclusive seconds charged to ``phase``."""
        return self._seconds.get(phase, 0.0)

    def count(self, phase: str) -> int:
        """How many times ``phase`` was entered."""
        return self._counts.get(phase, 0)

    @property
    def phases(self) -> List[str]:
        """Phase names seen so far, most expensive first."""
        return sorted(self._seconds, key=self._seconds.get, reverse=True)

    def __bool__(self) -> bool:
        return bool(self._seconds)

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """JSON-serializable ``{phase: {seconds, count}}`` snapshot."""
        return {
            phase: {"seconds": self._seconds[phase], "count": self._counts[phase]}
            for phase in self._seconds
        }

    def render(self, indent: str = "") -> str:
        """A small text table, most expensive phase first."""
        if not self._seconds:
            return indent + "(no phases recorded)"
        width = max(len(p) for p in self._seconds)
        lines = [
            f"{indent}{phase.ljust(width)}  {self._seconds[phase]:9.4f}s"
            f"  x{self._counts[phase]:,}"
            for phase in self.phases
        ]
        return "\n".join(lines)


class MemoryProfile:
    """Result of one :func:`capture_peak_memory` window."""

    __slots__ = ("peak_bytes", "current_bytes")

    def __init__(self) -> None:
        self.peak_bytes = 0
        self.current_bytes = 0

    @property
    def peak_kib(self) -> float:
        """Peak traced allocation during the window, in KiB."""
        return self.peak_bytes / 1024.0


class capture_peak_memory:
    """Context manager: tracemalloc peak allocations inside the block.

    Starts ``tracemalloc`` if it is not already running (and stops it
    again on exit in that case); resets the peak counter on entry either
    way, so nested captures each see their own window's peak.

        with capture_peak_memory() as profile:
            run_exploration()
        print(profile.peak_kib)
    """

    __slots__ = ("profile", "_started_here")

    def __enter__(self) -> MemoryProfile:
        self._started_here = not tracemalloc.is_tracing()
        if self._started_here:
            tracemalloc.start()
        else:
            tracemalloc.reset_peak()
        self.profile = MemoryProfile()
        return self.profile

    def __exit__(self, exc_type, exc_val, exc_tb) -> bool:
        current, peak = tracemalloc.get_traced_memory()
        self.profile.current_bytes = current
        self.profile.peak_bytes = peak
        if self._started_here:
            tracemalloc.stop()
        return False
