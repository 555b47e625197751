"""Live exploration telemetry: progress, ETA, cancellation, watchdog.

The spans/metrics/EXPLAIN layers all report *after* a run finishes.  This
module is the online half: a :class:`ProgressTracker` the generators feed
incrementally while they walk the learning graph, an optimistic ETA
derived from the branching observed so far, and cooperative cancellation
(:meth:`ProgressTracker.cancel`, or a :class:`Watchdog` timer) that the
run observes at its next node.  A run's limits are
:class:`~repro.core.config.ExplorationConfig` fields; when one fires, or
the run is cancelled, the error carries the tracker's final snapshot so a
serving layer can report how far the reaped run got.

Threading model
---------------

The tracker is **single-writer, many-reader**: exactly one exploration
thread records into it, while any number of other threads (a scrape
handler, a progress printer, a watchdog) call :meth:`ProgressTracker.snapshot`
concurrently.  All mutation and snapshot assembly happen under one lock,
so snapshots are internally consistent and counters never appear to move
backwards.  :meth:`ProgressTracker.cancel` may be called from any thread;
the exploration thread reads :attr:`ProgressTracker.cancelled` on every
node without the lock (one attribute read).

ETA semantics (and why it is "optimistic")
------------------------------------------

The tracker predicts the total search-space size by extrapolating the
*observed* per-depth branching factor over the remaining semesters,
tightened by the observed prune/terminal rates at each depth.  Early in a
run the observed branching comes from the first few expansions only, and
exhaustive generators expand the cheapest subtrees first, so the estimate
is a lower bound more often than not — treat the ETA as "no sooner than",
not as a promise.  Once every depth has real observations the estimate
converges on the truth.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, TextIO

__all__ = [
    "ProgressSnapshot",
    "ProgressTracker",
    "Watchdog",
    "ProgressPrinter",
    "PROGRESS_GAUGE_PREFIX",
]

#: Every gauge the tracker publishes starts with this prefix.
PROGRESS_GAUGE_PREFIX = "repro_progress"


@dataclass(frozen=True)
class ProgressSnapshot:
    """One consistent point-in-time view of a running exploration.

    ``nodes_seen`` counts every node the generator finished deciding about
    (expanded + pruned + terminal); ``estimated_total_nodes``,
    ``progress_fraction``, and ``eta_seconds`` are ``None`` until the run
    has a horizon and at least one expansion to extrapolate from.
    ``budget`` holds the run's limits (``max_nodes``, ``max_wall_seconds``,
    ``max_memory_bytes``), or ``None`` for a run with none.
    """

    run: str
    generation: int
    elapsed_seconds: float
    horizon: Optional[int]
    depth: int
    nodes_seen: int
    nodes_expanded: int
    nodes_pruned: int
    terminals: Dict[str, int]
    paths_emitted: int
    frontier_size: int
    per_depth: Dict[int, Dict[str, int]]
    estimated_total_nodes: Optional[float] = None
    progress_fraction: Optional[float] = None
    eta_seconds: Optional[float] = None
    finished: bool = False
    cancelled: Optional[str] = None
    budget: Optional[Dict[str, Any]] = field(default=None)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (``/progress`` serves exactly this)."""
        return {
            "run": self.run,
            "generation": self.generation,
            "elapsed_seconds": self.elapsed_seconds,
            "horizon": self.horizon,
            "depth": self.depth,
            "nodes_seen": self.nodes_seen,
            "nodes_expanded": self.nodes_expanded,
            "nodes_pruned": self.nodes_pruned,
            "terminals": dict(self.terminals),
            "paths_emitted": self.paths_emitted,
            "frontier_size": self.frontier_size,
            "per_depth": {
                str(depth): dict(counts) for depth, counts in self.per_depth.items()
            },
            "estimated_total_nodes": self.estimated_total_nodes,
            "progress_fraction": self.progress_fraction,
            "eta_seconds": self.eta_seconds,
            "finished": self.finished,
            "cancelled": self.cancelled,
            "budget": self.budget,
        }

    def render_line(self) -> str:
        """A one-line TTY progress report."""
        parts = [
            f"[{self.run or 'idle'}]",
            f"{self.elapsed_seconds:6.1f}s",
            f"{self.nodes_seen} nodes",
            f"({self.nodes_expanded} expanded, {self.nodes_pruned} pruned)",
        ]
        if self.horizon is not None:
            parts.append(f"depth {self.depth}/{self.horizon}")
        if self.frontier_size:
            parts.append(f"frontier {self.frontier_size}")
        if self.paths_emitted:
            parts.append(f"paths {self.paths_emitted}")
        if self.progress_fraction is not None:
            parts.append(f"~{self.progress_fraction:.0%}")
        if self.eta_seconds is not None:
            parts.append(f"eta {self.eta_seconds:.0f}s")
        if self.finished:
            parts.append("done")
        if self.cancelled:
            parts.append(f"cancelled: {self.cancelled}")
        return " ".join(parts)


class ProgressTracker:
    """Incremental progress counters with thread-safe snapshots.

    The exploration thread calls the ``record_*`` mutators (one lock
    acquisition each — only paid when live telemetry is on); any thread
    may call :meth:`snapshot` or :meth:`publish_gauges` at any time.
    ``generation`` increments on every mutation, so readers can cheaply
    detect "did anything happen since my last look".
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._lock = threading.Lock()
        self._clock = clock
        self._cancelled: Optional[str] = None
        self._reset_locked(run="", horizon=None, budget=None)

    # -- run lifecycle -------------------------------------------------------

    def _reset_locked(
        self, run: str, horizon: Optional[int], budget: Optional[Dict[str, Any]]
    ) -> None:
        self._run = run
        self._horizon = horizon
        self._budget = budget
        self._started_at = self._clock()
        self._generation = 0
        self._terminals: Dict[str, int] = {}
        self._paths_emitted = 0
        self._frontier_size = 0
        self._expanded_by_depth: Dict[int, int] = {}
        self._children_by_depth: Dict[int, int] = {}
        self._pruned_by_depth: Dict[int, int] = {}
        self._terminal_by_depth: Dict[int, int] = {}
        self._finished = False

    def begin_run(
        self,
        run: str,
        horizon: Optional[int] = None,
        budget: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Reset all counters for a fresh run of ``run`` over ``horizon``
        semesters (``end - start``; ``None`` disables the ETA estimate).
        ``budget`` is the run's limits, shown in snapshots.  A cancellation
        is not reset: a cancelled tracker stops every later run too."""
        with self._lock:
            self._reset_locked(run=run, horizon=horizon, budget=budget)

    def finish_run(self) -> None:
        """Mark the current run complete (pins ``progress_fraction`` at 1)."""
        with self._lock:
            self._finished = True
            self._generation += 1

    def cancel(self, reason: str = "cancelled") -> None:
        """Ask the run to stop at its next node (any thread); the run raises
        :class:`~repro.errors.RunCancelledError` and snapshots show ``reason``."""
        with self._lock:
            self._cancelled = reason
            self._generation += 1

    # -- mutators (exploration thread only) ----------------------------------

    def record_expanded(self, depth: int, children: int) -> None:
        """One node at ``depth`` expanded into ``children`` successors."""
        with self._lock:
            self._expanded_by_depth[depth] = self._expanded_by_depth.get(depth, 0) + 1
            self._children_by_depth[depth] = (
                self._children_by_depth.get(depth, 0) + children
            )
            self._generation += 1

    def record_pruned(self, depth: int) -> None:
        """One node at ``depth`` cut by a pruning strategy."""
        with self._lock:
            self._pruned_by_depth[depth] = self._pruned_by_depth.get(depth, 0) + 1
            self._generation += 1

    def record_terminal(self, kind: str, depth: int, emitted: int = 0) -> None:
        """One terminal node of ``kind`` at ``depth``; a positive
        ``emitted`` also records that many output paths, under the same lock
        and advancing :attr:`generation` as :meth:`record_emit` would."""
        with self._lock:
            self._terminals[kind] = self._terminals.get(kind, 0) + 1
            self._terminal_by_depth[depth] = self._terminal_by_depth.get(depth, 0) + 1
            self._generation += 1
            if emitted:
                self._paths_emitted += emitted
                self._generation += 1

    def record_emit(self, count: int = 1) -> None:
        """``count`` output paths emitted."""
        with self._lock:
            self._paths_emitted += count
            self._generation += 1

    def set_frontier(self, size: int) -> None:
        """Current frontier width (stack/heap/layer size)."""
        with self._lock:
            self._frontier_size = size
            self._generation += 1

    # -- readers (any thread) ------------------------------------------------

    @property
    def generation(self) -> int:
        """Mutation counter; strictly increases while the run records."""
        with self._lock:
            return self._generation

    @property
    def cancelled(self) -> Optional[str]:
        """The cancellation reason, or ``None``.  Read without the lock: the
        exploration thread checks it on every node."""
        return self._cancelled

    @property
    def nodes_seen(self) -> int:
        """Nodes fully decided so far (expanded + pruned + terminal)."""
        with self._lock:
            return (
                sum(self._expanded_by_depth.values())
                + sum(self._pruned_by_depth.values())
                + sum(self._terminal_by_depth.values())
            )

    def snapshot(self) -> ProgressSnapshot:
        """A consistent snapshot of the current run; its totals and depth
        are derived from the per-depth counters."""
        with self._lock:
            expanded = self._expanded_by_depth
            pruned = self._pruned_by_depth
            terminal = self._terminal_by_depth
            nodes_expanded = sum(expanded.values())
            nodes_pruned = sum(pruned.values())
            nodes_seen = nodes_expanded + nodes_pruned + sum(terminal.values())
            estimate = self._estimate_total_locked()
            elapsed = self._clock() - self._started_at
            fraction: Optional[float] = None
            eta: Optional[float] = None
            if self._finished:
                fraction = 1.0
                eta = 0.0
            elif estimate is not None and estimate > 0:
                fraction = min(1.0, nodes_seen / estimate)
                if fraction > 0:
                    eta = elapsed * (1.0 - fraction) / fraction
            per_depth: Dict[int, Dict[str, int]] = {}
            for source, key in (
                (expanded, "expanded"),
                (pruned, "pruned"),
                (terminal, "terminal"),
                (self._children_by_depth, "children"),
            ):
                for depth, count in source.items():
                    per_depth.setdefault(depth, {})[key] = count
            return ProgressSnapshot(
                run=self._run,
                generation=self._generation,
                elapsed_seconds=elapsed,
                horizon=self._horizon,
                depth=max(per_depth, default=0),
                nodes_seen=nodes_seen,
                nodes_expanded=nodes_expanded,
                nodes_pruned=nodes_pruned,
                terminals=dict(self._terminals),
                paths_emitted=self._paths_emitted,
                frontier_size=self._frontier_size,
                per_depth=per_depth,
                estimated_total_nodes=estimate,
                progress_fraction=fraction,
                eta_seconds=eta,
                finished=self._finished,
                cancelled=self._cancelled,
                budget=self._budget,
            )

    def _estimate_total_locked(self) -> Optional[float]:
        """Optimistic search-space size: observed branching per depth,
        extrapolated over the remaining semesters and tightened by the
        observed prune/terminal rates (see the module docstring caveat)."""
        if self._horizon is None or not self._expanded_by_depth:
            return None
        last_branching = 1.0
        last_survival = 1.0
        layer = 1.0
        total = 1.0
        for depth in range(self._horizon):
            expanded = self._expanded_by_depth.get(depth, 0)
            if expanded:
                branching = self._children_by_depth.get(depth, 0) / expanded
                visited = (
                    expanded
                    + self._pruned_by_depth.get(depth, 0)
                    + self._terminal_by_depth.get(depth, 0)
                )
                survival = expanded / visited if visited else 1.0
                last_branching, last_survival = branching, survival
            else:
                # No observations at this depth yet: extrapolate the last
                # observed rates (this is where the optimism lives).
                branching, survival = last_branching, last_survival
            layer *= branching * survival
            if layer < 1.0:
                layer = 0.0
            total += layer
            if layer == 0.0:
                break
        return total

    def publish_gauges(self, registry) -> None:
        """Mirror the current snapshot into ``registry`` as gauges.

        Called by the exporter on every ``/metrics`` scrape and by
        :meth:`~repro.obs.runtime.Observability.record_run_stats` at the
        end of each run, so Prometheus sees live values mid-run and final
        values afterwards.
        """
        snap = self.snapshot()
        gauges = {
            "nodes_seen": snap.nodes_seen,
            "nodes_expanded": snap.nodes_expanded,
            "nodes_pruned": snap.nodes_pruned,
            "paths_emitted": snap.paths_emitted,
            "frontier_size": snap.frontier_size,
            "depth": snap.depth,
            "elapsed_seconds": snap.elapsed_seconds,
        }
        for suffix, value in gauges.items():
            registry.gauge(
                f"{PROGRESS_GAUGE_PREFIX}_{suffix}",
                "live exploration progress (see docs/observability.md)",
            ).set(value)
        if snap.progress_fraction is not None:
            registry.gauge(
                f"{PROGRESS_GAUGE_PREFIX}_fraction",
                "optimistic completed fraction of the current run",
            ).set(snap.progress_fraction)
        if snap.eta_seconds is not None:
            registry.gauge(
                f"{PROGRESS_GAUGE_PREFIX}_eta_seconds",
                "optimistic seconds remaining in the current run",
            ).set(snap.eta_seconds)


class Watchdog:
    """A daemon timer that cancels a tracker's run after ``timeout`` seconds.

    ``ExplorationConfig.max_wall_seconds`` bounds a run from the inside;
    the watchdog is the *outside* bound — a supervisor arms one per
    request and the exploration dies at its next node even if its own
    limit was configured too generously (or not at all).

        tracker = ProgressTracker()
        navigator = CourseNavigator(catalog, obs=Observability(progress=tracker))
        with Watchdog(tracker, timeout=30.0):
            navigator.explore_goal(...)
    """

    def __init__(
        self,
        tracker: ProgressTracker,
        timeout: float,
        reason: Optional[str] = None,
    ):
        self.tracker = tracker
        self.timeout = timeout
        self.reason = reason or f"watchdog timeout after {timeout:g}s"
        self._timer = threading.Timer(timeout, tracker.cancel, args=(self.reason,))
        self._timer.daemon = True

    def start(self) -> "Watchdog":
        """Arm the timer; returns self for chaining."""
        self._timer.start()
        return self

    def close(self) -> None:
        """Disarm the timer (a completed run no longer needs reaping)."""
        self._timer.cancel()

    def __enter__(self) -> "Watchdog":
        return self.start()

    def __exit__(self, exc_type, exc_val, exc_tb) -> bool:
        self.close()
        return False


class ProgressPrinter:
    """A daemon thread that writes the tracker's progress line periodically.

    On a TTY the line rewrites itself in place (``\\r``); on a plain
    stream (CI logs, files) each sample is its own line.  ``close()``
    writes one final line and joins the thread.
    """

    def __init__(
        self,
        tracker: ProgressTracker,
        stream: Optional[TextIO] = None,
        interval: float = 1.0,
    ):
        self.tracker = tracker
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="repro-progress", daemon=True
        )
        self._isatty = bool(getattr(self.stream, "isatty", lambda: False)())

    def start(self) -> "ProgressPrinter":
        """Begin printing; returns self for chaining."""
        self._thread.start()
        return self

    def _write(self, line: str, final: bool = False) -> None:
        try:
            if self._isatty and not final:
                self.stream.write("\r\x1b[2K" + line)
            else:
                if self._isatty:
                    self.stream.write("\r\x1b[2K")
                self.stream.write(line + "\n")
            self.stream.flush()
        except ValueError:  # stream closed under us (interpreter teardown)
            self._stop.set()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._write(self.tracker.snapshot().render_line())

    def close(self) -> None:
        """Stop the thread and print one final line."""
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._write(self.tracker.snapshot().render_line(), final=True)

    def __enter__(self) -> "ProgressPrinter":
        return self.start()

    def __exit__(self, exc_type, exc_val, exc_tb) -> bool:
        self.close()
        return False
