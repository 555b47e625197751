"""The engine-facing observability bundle.

Generators take one optional :class:`Observability` object instead of
separate tracer/metrics/profiler arguments.  It fans each phase out to
whichever backends are attached:

* a span per phase on the tracer (when tracing is enabled),
* an observation in the per-phase duration histogram
  ``repro_phase_duration_seconds{phase}`` (when a metrics registry is
  attached),
* an entry in the in-process :class:`~repro.obs.profiling.PhaseBreakdown`
  (always, when the bundle is enabled at all).

Each phase entry is timed **once**: with tracing on, the span's own
duration is the measurement; otherwise one ``perf_counter`` pair is.  All
three backends receive that one value, so a phase's span durations,
histogram and breakdown agree exactly.  Run durations live in the
``run:*`` spans and ``repro_exploration_seconds_total``.

``Observability()`` with no arguments is **disabled**: ``phase()`` and
``run()`` return a shared no-op context manager and the engine's hot
loops pay only a couple of attribute reads.  The engine never checks
*which* backend is on — it just calls ``obs.phase("expand")``.

A run scope (``with obs.run("goal_driven")``) additionally publishes the
bundle through a :mod:`contextvars` variable so deeply nested code that
the engine cannot thread arguments into — the max-flow solver inside
:class:`~repro.requirements.goals.DegreeGoal` — can pick it up with
:func:`current_observability` and charge its time to the ``flow`` phase.

**Thread visibility.**  A run scope entered in one thread is *not*
visible from another: each ``threading.Thread`` starts with a fresh
:mod:`contextvars` context, so :func:`current_observability` answers
``None`` there — by design, because the publication token, the tracer's
span stack, and the phase breakdown are all single-thread state.  A
worker thread that should report into an existing bundle must opt in
explicitly with :meth:`Observability.activate`::

    def worker():
        with obs.activate():           # publish in *this* thread only
            goal.remaining_courses(x)  # flow time now lands in the bundle
"""

from __future__ import annotations

import time
from contextvars import ContextVar
from typing import Any, Dict, Optional

from .explain import DecisionRecorder
from .live import ProgressTracker
from .metrics import Histogram, MetricsRegistry
from .profiling import PHASE_METRIC_NAME, PhaseBreakdown, capture_peak_memory
from .tracing import NULL_SPAN, NULL_TRACER, Tracer

__all__ = [
    "Observability",
    "NULL_OBSERVABILITY",
    "current_observability",
]

_ACTIVE: "ContextVar[Optional[Observability]]" = ContextVar(
    "repro_active_observability", default=None
)


def current_observability() -> "Optional[Observability]":
    """The bundle of the innermost active ``run()`` scope, if any.

    Only enabled bundles publish themselves, so a ``None`` answer is the
    common (and cheapest) case; callers should fall straight through to
    the uninstrumented path on it.
    """
    return _ACTIVE.get()


class _Activation:
    """Context manager for :meth:`Observability.activate` (thread handoff)."""

    __slots__ = ("_obs", "_token")

    def __init__(self, obs: "Observability"):
        self._obs = obs
        self._token = None

    def __enter__(self) -> "Observability":
        self._token = _ACTIVE.set(self._obs)
        return self._obs

    def __exit__(self, exc_type, exc_val, exc_tb) -> bool:
        _ACTIVE.reset(self._token)
        return False


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
    """Root span + contextvar publication + optional memory capture."""

    __slots__ = ("_obs", "_name", "_attributes", "_span", "_token", "_memory")

    def __init__(self, obs: "Observability", name: str, attributes: Dict[str, Any]):
        self._obs = obs
        self._name = name
        self._attributes = attributes

    def __enter__(self):
        obs = self._obs
        self._token = _ACTIVE.set(obs)
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
        _ACTIVE.reset(self._token)
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
    hook degrades to a shared no-op.
    """

    __slots__ = (
        "tracer",
        "metrics",
        "capture_memory",
        "decisions",
        "progress",
        "phases",
        "enabled",
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
        self.enabled = bool(
            self.tracer.enabled
            or metrics is not None
            or capture_memory
            or decisions is not None
            or progress is not None
        )
        self.last_memory = None
        self._histograms: Dict[str, Optional[Histogram]] = {}

    # -- scopes --------------------------------------------------------------

    def run(self, name: str, **attributes: Any):
        """Root scope for one exploration run (span ``run:<name>``)."""
        if not self.enabled:
            return NULL_SPAN
        return _RunScope(self, name, attributes)

    def phase(self, name: str, **attributes: Any):
        """Scope for one engine phase entry (span named after the phase)."""
        if not self.enabled:
            return NULL_SPAN
        return _PhaseScope(self, name, attributes)

    def activate(self):
        """Publish this bundle via :func:`current_observability` in the
        *calling* thread.

        Run scopes do this implicitly, but :mod:`contextvars` state never
        crosses thread boundaries — a worker thread spawned inside a run
        sees ``None``.  ``activate()`` is the explicit handoff: enter it at
        the top of the worker so nested code (e.g. the flow solver) finds
        the bundle there too.  The scope must be exited in the same thread
        it was entered in.
        """
        return _Activation(self)

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
            "repro_nodes_created_total", "statuses materialized by the generators"
        ).inc(stats.nodes_created)
        registry.counter(
            "repro_edges_created_total", "selection edges materialized"
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
