"""The engine-facing observability bundle.

Generators take one optional :class:`Observability` object instead of
separate tracer/metrics/profiler arguments.  Each backend turns on only
the work it reads (``docs/observability.md`` has the table).  A bundle is
**timed** (:attr:`Observability.timed`) when a tracer is enabled or a
metrics registry is attached: only then does ``phase()`` measure
anything, feeding the tracer's spans, the
``repro_phase_duration_seconds{phase}`` histogram and the in-process
:class:`~repro.obs.profiling.PhaseBreakdown`.  Decision recording,
progress and memory capture alone time nothing.  The engine decides once
per run whether it is timed.

Each phase entry is timed **once**: with tracing on, the span's own
duration is the measurement; otherwise one ``perf_counter`` pair is.  All
three consumers receive that one value, so a phase's span durations,
histogram and breakdown agree exactly.  Run durations live in the
``run:*`` spans and ``repro_exploration_seconds_total``.

``Observability()`` with no arguments is **disabled**
(``enabled == False``): ``phase()`` and ``run()`` return a shared no-op
context manager.  Nothing is published ambiently: a timed run charges its
goal queries to the ``goal`` phase by wrapping the goal it was given (see
:class:`~repro.core.step.NodeStep`).
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from .explain import DecisionRecorder
from .live import ProgressTracker
from .metrics import Histogram, MetricsRegistry
from .profiling import PHASE_METRIC_NAME, PhaseBreakdown, capture_peak_memory
from .tracing import NULL_SPAN, NULL_TRACER, Tracer

__all__ = ["Observability", "NULL_OBSERVABILITY"]


class _PhaseScope:
    """Times one phase entry and fans it out to span/histogram/breakdown.

    The entry is timed once: by the span when tracing is on (its
    ``duration_seconds`` is the elapsed time), else by one
    ``perf_counter`` pair.  The breakdown and histogram get that value.
    """

    __slots__ = ("_obs", "_name", "_attributes", "_span", "_started_at")

    def __init__(self, obs: "Observability", name: str, attributes: Dict[str, Any]):
        self._obs = obs
        self._name = name
        self._attributes = attributes

    def __enter__(self):
        obs = self._obs
        if obs.tracer.enabled:
            span = self._span = obs.tracer.span(self._name, **self._attributes)
            return span.__enter__()
        self._span = None
        self._started_at = time.perf_counter()
        return NULL_SPAN

    def __exit__(self, exc_type, exc_val, exc_tb) -> bool:
        span = self._span
        if span is None:
            elapsed = time.perf_counter() - self._started_at
        else:
            span.__exit__(exc_type, exc_val, exc_tb)
            elapsed = span.duration_seconds
        obs = self._obs
        obs.phases.add(self._name, elapsed)
        histogram = obs._phase_histogram(self._name)
        if histogram is not None:
            histogram.observe(elapsed)
        return False


class _RunScope:
    """Root span + optional memory capture."""

    __slots__ = ("_obs", "_name", "_attributes", "_span", "_memory")

    def __init__(self, obs: "Observability", name: str, attributes: Dict[str, Any]):
        self._obs = obs
        self._name = name
        self._attributes = attributes

    def __enter__(self):
        obs = self._obs
        self._span = obs.tracer.span("run:" + self._name, **self._attributes)
        self._span.__enter__()
        self._memory = capture_peak_memory() if obs.capture_memory else None
        if self._memory is not None:
            self._memory.__enter__()
        return self._span

    def __exit__(self, exc_type, exc_val, exc_tb) -> bool:
        obs = self._obs
        if self._memory is not None:
            self._memory.__exit__(exc_type, exc_val, exc_tb)
            profile = self._memory.profile
            obs.last_memory = profile
            self._span.annotate(peak_memory_bytes=profile.peak_bytes)
            if obs.metrics is not None:
                obs.metrics.gauge(
                    "repro_run_peak_memory_bytes",
                    "tracemalloc peak allocation of the last observed run",
                    labels={"run": self._name},
                ).set(profile.peak_bytes)
        self._span.__exit__(exc_type, exc_val, exc_tb)
        if exc_type is None and obs.progress is not None:
            obs.progress.finish_run()
        return False


class Observability:
    """Tracer + metrics registry + phase breakdown, threaded as one object.

    Parameters
    ----------
    tracer:
        A :class:`~repro.obs.tracing.Tracer`, or ``None`` for no tracing.
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry`, or ``None``.
    capture_memory:
        When true, every ``run()`` scope measures its ``tracemalloc``
        allocation peak (slows runs measurably; off by default).
    decisions:
        A :class:`~repro.obs.explain.DecisionRecorder`, or ``None``.  When
        attached, the generators record every expansion/prune/terminal
        decision as a typed event (the EXPLAIN layer); the hot loops pay a
        single ``is not None`` check when it is absent.
    progress:
        A :class:`~repro.obs.live.ProgressTracker`, or ``None``.  When
        attached, the generators feed it incrementally (expansion, prune,
        terminal, frontier width, emitted paths) so other threads can
        watch the run mid-flight via snapshots, gauges, or the HTTP
        exporter (:mod:`repro.obs.server`).  A run that stops early
        (a config limit, or :meth:`~repro.obs.live.ProgressTracker.cancel`
        from another thread) attaches the tracker's final snapshot to its
        :class:`~repro.errors.BudgetExceededError`.

    With no backend at all the bundle is ``enabled == False`` and every
    hook degrades to a shared no-op.  Phases are timed only when the
    bundle is :attr:`timed`.
    """

    __slots__ = (
        "tracer",
        "metrics",
        "capture_memory",
        "decisions",
        "progress",
        "phases",
        "enabled",
        "_timed",
        "last_memory",
        "_histograms",
    )

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        capture_memory: bool = False,
        decisions: Optional[DecisionRecorder] = None,
        progress: Optional[ProgressTracker] = None,
    ):
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.capture_memory = capture_memory
        self.decisions = decisions
        self.progress = progress
        self.phases = PhaseBreakdown()
        self._timed = bool(self.tracer.enabled or metrics is not None)
        self.enabled = bool(
            self._timed
            or capture_memory
            or decisions is not None
            or progress is not None
        )
        self.last_memory = None
        self._histograms: Dict[str, Optional[Histogram]] = {}

    @property
    def timed(self) -> bool:
        """Whether phases are timed: a tracer is enabled or a metrics
        registry is attached.  Progress, decisions and memory capture
        alone time nothing."""
        return self._timed

    # -- scopes --------------------------------------------------------------

    def run(self, name: str, **attributes: Any):
        """Root scope for one exploration run (span ``run:<name>``)."""
        if not self.enabled:
            return NULL_SPAN
        return _RunScope(self, name, attributes)

    def phase(self, name: str, **attributes: Any):
        """Scope for one engine phase entry (span named after the phase);
        a no-op unless the bundle is :attr:`timed`."""
        if not self._timed:
            return NULL_SPAN
        return _PhaseScope(self, name, attributes)

    # -- counters ------------------------------------------------------------

    def record_run_stats(self, kind: str, stats) -> None:
        """Publish an :class:`~repro.core.stats.ExplorationStats` to metrics.

        Called once per finished run — counters accumulate across runs on
        the same registry, the per-run granularity lives in the trace.
        """
        registry = self.metrics
        if registry is None:
            return
        if self.progress is not None:
            self.progress.publish_gauges(registry)
        registry.counter(
            "repro_runs_total", "exploration runs observed", labels={"kind": kind}
        ).inc()
        registry.counter(
            "repro_nodes_created_total", "nodes generated by the engines"
        ).inc(stats.nodes_created)
        registry.counter(
            "repro_edges_created_total", "selection edges generated"
        ).inc(stats.edges_created)
        registry.counter("repro_merged_hits_total", "DAG/frontier status merges").inc(
            stats.merged_hits
        )
        for kind_name, count in stats.terminals.items():
            registry.counter(
                "repro_terminals_total",
                "terminal nodes by kind",
                labels={"kind": kind_name},
            ).inc(count)
        for strategy, count in stats.prune_events.items():
            registry.counter(
                "repro_prune_events_total",
                "subtrees cut, by pruning strategy",
                labels={"strategy": strategy},
            ).inc(count)
        registry.counter(
            "repro_exploration_seconds_total", "wall seconds inside exploration runs"
        ).inc(stats.elapsed_seconds)

    # -- plumbing ------------------------------------------------------------

    def _phase_histogram(self, name: str) -> Optional[Histogram]:
        try:
            return self._histograms[name]
        except KeyError:
            histogram = (
                self.metrics.histogram(
                    PHASE_METRIC_NAME,
                    "inclusive wall seconds per engine phase entry",
                    labels={"phase": name},
                )
                if self.metrics is not None
                else None
            )
            self._histograms[name] = histogram
            return histogram


#: Shared disabled bundle — what the engine uses when callers pass nothing.
NULL_OBSERVABILITY = Observability()
