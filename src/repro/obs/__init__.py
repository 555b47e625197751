"""Observability for the exploration engine: tracing, metrics, profiling.

Three layers, usable separately or bundled:

* :mod:`repro.obs.tracing` — span-based tracing (:class:`Tracer`,
  :class:`Span`) with pluggable sinks: :class:`InMemorySink` for tests,
  :class:`JsonlSink` for offline analysis.
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of
  :class:`Counter` / :class:`Gauge` / :class:`Histogram` instruments with
  Prometheus text exposition and a JSON snapshot.
* :mod:`repro.obs.profiling` — the per-phase time breakdown
  (:class:`PhaseBreakdown`) and opt-in ``tracemalloc`` peak-memory capture.
* :mod:`repro.obs.explain` — the decision-level EXPLAIN layer: typed
  :class:`DecisionEvent` records for every expansion/prune/terminal
  decision, collected by a :class:`DecisionRecorder` and analysed by
  :class:`ExplainReport` ("why was this subtree cut?").
* :mod:`repro.obs.live` — the *online* layer: a :class:`ProgressTracker`
  the generators feed while they run (thread-safe snapshots, optimistic
  ETA, cooperative cancellation), a :class:`Watchdog` timer that cancels
  a run, and a TTY :class:`ProgressPrinter`.
* :mod:`repro.obs.server` — a :class:`MetricsServer` daemon-thread HTTP
  exporter serving Prometheus text at ``/metrics`` and live progress
  JSON at ``/progress``.

:class:`Observability` ties them together for the engine; every generator
and :class:`~repro.system.navigator.CourseNavigator` accept one.  The
default is :data:`NULL_OBSERVABILITY` — a no-op whose hot-path cost is a
couple of attribute reads, so uninstrumented runs stay full speed.  See
``docs/observability.md`` for span naming conventions and usage.
"""

from .explain import (
    DECISION_KINDS,
    DecisionEvent,
    DecisionRecorder,
    ExplainReport,
    WhyNotAnswer,
    describe_verdict,
    load_decision_events,
)
from .live import (
    PROGRESS_GAUGE_PREFIX,
    ProgressPrinter,
    ProgressSnapshot,
    ProgressTracker,
    Watchdog,
)
from .metrics import (
    DEFAULT_DURATION_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .profiling import (
    PHASE_METRIC_NAME,
    MemoryProfile,
    PhaseBreakdown,
    capture_peak_memory,
)
from .runtime import NULL_OBSERVABILITY, Observability
from .server import PROMETHEUS_CONTENT_TYPE, MetricsServer
from .tracing import (
    NULL_TRACER,
    InMemorySink,
    JsonlSink,
    NullTracer,
    Span,
    SpanSink,
    Tracer,
)

__all__ = [
    # tracing
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "SpanSink",
    "InMemorySink",
    "JsonlSink",
    # metrics
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_DURATION_BUCKETS",
    # profiling
    "PhaseBreakdown",
    "MemoryProfile",
    "capture_peak_memory",
    "PHASE_METRIC_NAME",
    # live telemetry
    "ProgressTracker",
    "ProgressSnapshot",
    "ProgressPrinter",
    "Watchdog",
    "PROGRESS_GAUGE_PREFIX",
    # exporter
    "MetricsServer",
    "PROMETHEUS_CONTENT_TYPE",
    # explain
    "DECISION_KINDS",
    "DecisionEvent",
    "DecisionRecorder",
    "ExplainReport",
    "WhyNotAnswer",
    "describe_verdict",
    "load_decision_events",
    # bundle
    "Observability",
    "NULL_OBSERVABILITY",
]
