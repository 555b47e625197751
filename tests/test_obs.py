"""Tests for the observability subsystem (repro.obs).

Covers the tracer (nesting, sinks, error annotation), the metrics
registry (instruments, Prometheus exposition, JSON snapshot round-trip),
the profiling helpers (PhaseBreakdown, peak-memory capture),
the Observability bundle, and the engine integration: a traced run emits
the expected span forest and the disabled path changes nothing about the
results.
"""

import ast
import io
import json
import math
from pathlib import Path

import pytest

from repro.core import generate_goal_driven, generate_ranked
from repro.core.frontier import frontier_count_goal_paths
from repro.core.ranking import TimeRanking
from repro.data import brandeis_catalog, brandeis_major_goal
from repro.obs import (
    DEFAULT_DURATION_BUCKETS,
    DecisionRecorder,
    NULL_OBSERVABILITY,
    NULL_TRACER,
    InMemorySink,
    JsonlSink,
    MetricsRegistry,
    Observability,
    PhaseBreakdown,
    ProgressTracker,
    Tracer,
    capture_peak_memory,
)
from repro.requirements import Goal
from repro.semester import Term
from repro.system.navigator import CourseNavigator


# ---------------------------------------------------------------------------
# tracing


class TestTracer:
    def test_span_records_to_sink(self):
        sink = InMemorySink()
        tracer = Tracer(sinks=[sink])
        with tracer.span("work", size=3):
            pass
        assert len(sink.records) == 1
        record = sink.records[0]
        assert record["name"] == "work"
        assert record["parent_id"] is None
        assert record["depth"] == 0
        assert record["attrs"] == {"size": 3}
        assert record["end"] >= record["start"] >= 0.0
        assert record["duration"] == pytest.approx(record["end"] - record["start"])

    def test_nesting_assigns_parents_and_depths(self):
        sink = InMemorySink()
        tracer = Tracer(sinks=[sink])
        with tracer.span("outer") as outer:
            with tracer.span("middle") as middle:
                with tracer.span("inner") as inner:
                    pass
        assert inner.parent_id == middle.span_id
        assert middle.parent_id == outer.span_id
        assert outer.parent_id is None
        assert (outer.depth, middle.depth, inner.depth) == (0, 1, 2)
        # Records are emitted on exit: children before parents.
        assert [r["name"] for r in sink.records] == ["inner", "middle", "outer"]

    def test_siblings_share_parent(self):
        sink = InMemorySink()
        tracer = Tracer(sinks=[sink])
        with tracer.span("parent") as parent:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b = sink.spans("a")[0], sink.spans("b")[0]
        assert a["parent_id"] == b["parent_id"] == parent.span_id
        assert a["depth"] == b["depth"] == 1

    def test_current_span_tracks_stack(self):
        tracer = Tracer()
        assert tracer.current_span is None
        with tracer.span("s") as span:
            assert tracer.current_span is span
        assert tracer.current_span is None

    def test_exception_annotated_and_reraised(self):
        sink = InMemorySink()
        tracer = Tracer(sinks=[sink])
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        assert sink.records[0]["attrs"]["error"] == "ValueError"

    def test_annotate_chains(self):
        sink = InMemorySink()
        tracer = Tracer(sinks=[sink])
        with tracer.span("s") as span:
            span.annotate(k=1).annotate(j="x")
        assert sink.records[0]["attrs"] == {"k": 1, "j": "x"}

    def test_timestamps_are_monotonic_per_tracer(self):
        sink = InMemorySink()
        tracer = Tracer(sinks=[sink])
        for _ in range(3):
            with tracer.span("tick"):
                pass
        starts = [r["start"] for r in sink.records]
        assert starts == sorted(starts)

    def test_jsonl_sink_round_trips(self):
        buffer = io.StringIO()
        tracer = Tracer(sinks=[JsonlSink(buffer)])
        with tracer.span("outer"):
            with tracer.span("inner", n=1):
                pass
        tracer.close()
        lines = buffer.getvalue().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["name"] for r in records] == ["inner", "outer"]
        assert records[0]["parent_id"] == records[1]["span_id"]

    def test_jsonl_sink_owns_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        tracer = Tracer(sinks=[sink])
        with tracer.span("s"):
            pass
        tracer.close()
        assert json.loads(path.read_text())["name"] == "s"

    def test_null_tracer_is_free_and_shared(self):
        span1 = NULL_TRACER.span("anything", key="value")
        span2 = NULL_TRACER.span("other")
        assert span1 is span2  # one shared no-op, zero allocations
        with span1:
            pass
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.current_span is None
        with pytest.raises(ValueError):
            NULL_TRACER.add_sink(InMemorySink())


# ---------------------------------------------------------------------------
# metrics


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_things_total", "things")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        # get-or-create returns the same instrument
        assert registry.counter("repro_things_total", "things") is counter

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("c_total", "c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g", "g")
        gauge.set(10)
        gauge.inc(2.5)
        gauge.dec(0.5)
        assert gauge.value == 12.0

    def test_histogram_buckets_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", "h", buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 1.5, 1.5, 10.0):
            histogram.observe(value)
        cumulative = dict(histogram.cumulative_buckets())
        assert cumulative[1.0] == 1
        assert cumulative[2.0] == 3
        assert cumulative[5.0] == 3
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(13.5)

    def test_histogram_upper_bounds_inclusive(self):
        histogram = MetricsRegistry().histogram("h", "h", buckets=(1.0, 2.0))
        histogram.observe(1.0)  # le="1.0" must include it
        assert dict(histogram.cumulative_buckets())[1.0] == 1

    def test_labels_create_distinct_series(self):
        registry = MetricsRegistry()
        a = registry.counter("runs_total", "runs", labels={"kind": "a"})
        b = registry.counter("runs_total", "runs", labels={"kind": "b"})
        assert a is not b
        a.inc()
        assert a.value == 1 and b.value == 0

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x", "x")
        with pytest.raises(ValueError):
            registry.gauge("x", "x")

    def test_invalid_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad name!", "nope")

    def test_prometheus_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("repro_runs_total", "runs", labels={"kind": "goal"}).inc(2)
        registry.gauge("repro_depth", "depth").set(3)
        registry.histogram("repro_secs", "secs", buckets=(0.1, 1.0)).observe(0.05)
        text = registry.render_prometheus()
        assert "# HELP repro_runs_total runs" in text
        assert "# TYPE repro_runs_total counter" in text
        assert 'repro_runs_total{kind="goal"} 2' in text
        assert "repro_depth 3" in text
        assert 'repro_secs_bucket{le="0.1"} 1' in text
        assert 'repro_secs_bucket{le="+Inf"} 1' in text
        assert "repro_secs_count 1" in text
        # families are grouped: HELP appears once per family
        assert text.count("# HELP repro_runs_total") == 1

    def test_snapshot_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "a").inc(7)
        registry.histogram("b_seconds", "b").observe(0.003)
        parsed = json.loads(json.dumps(registry.snapshot()))
        assert parsed == registry.snapshot()
        by_name = {m["name"]: m for m in parsed["metrics"]}
        assert by_name["a_total"]["value"] == 7
        assert by_name["b_seconds"]["count"] == 1

    def test_default_buckets_strictly_ascending(self):
        assert list(DEFAULT_DURATION_BUCKETS) == sorted(DEFAULT_DURATION_BUCKETS)
        assert len(set(DEFAULT_DURATION_BUCKETS)) == len(DEFAULT_DURATION_BUCKETS)


# ---------------------------------------------------------------------------
# profiling


class TestPhaseBreakdown:
    def test_add_and_query(self):
        phases = PhaseBreakdown()
        assert not phases
        phases.add("expand", 0.5)
        phases.add("expand", 0.25)
        phases.add("prune", 2.0)
        assert phases
        assert phases.seconds("expand") == pytest.approx(0.75)
        assert phases.count("expand") == 2
        assert phases.phases == ["prune", "expand"]  # most expensive first

    def test_as_dict_round_trips_through_json(self):
        phases = PhaseBreakdown()
        phases.add("expand", 0.5)
        phases.add("goal", 0.125, count=4)
        parsed = json.loads(json.dumps(phases.as_dict()))
        assert parsed == {
            "expand": {"seconds": 0.5, "count": 1},
            "goal": {"seconds": 0.125, "count": 4},
        }

    def test_render(self):
        phases = PhaseBreakdown()
        assert "no phases" in phases.render()
        phases.add("expand", 0.5)
        rendered = phases.render(indent="  ")
        assert "expand" in rendered
        assert rendered.startswith("  ")


class TestCapturePeakMemory:
    def test_measures_allocation(self):
        with capture_peak_memory() as profile:
            blob = [bytearray(256 * 1024) for _ in range(4)]
        assert profile.peak_bytes > 512 * 1024
        assert profile.peak_kib == pytest.approx(profile.peak_bytes / 1024.0)
        del blob

    def test_nested_windows_each_see_own_peak(self):
        with capture_peak_memory() as outer:
            first = bytearray(1024 * 1024)
            with capture_peak_memory() as inner:
                pass  # nothing allocated inside
            del first
        assert inner.peak_bytes < outer.peak_bytes


# ---------------------------------------------------------------------------
# the bundle


class TestObservability:
    def test_disabled_bundle_is_noop(self):
        obs = Observability()
        assert not obs.enabled and not obs.timed
        first = obs.phase("expand")
        second = obs.run("anything")
        assert first is second  # the one shared null span
        with first:
            pass
        assert not obs.phases
        assert NULL_OBSERVABILITY.enabled is False

    def test_phase_times_accumulate(self):
        obs = Observability(metrics=MetricsRegistry())
        assert obs.enabled
        with obs.phase("expand"):
            pass
        with obs.phase("expand"):
            pass
        assert obs.phases.count("expand") == 2
        assert obs.phases.seconds("expand") >= 0.0
        histogram = obs.metrics.get(
            "repro_phase_duration_seconds", labels={"phase": "expand"}
        )
        assert histogram.count == 2

    def test_capture_memory_records_gauge(self):
        obs = Observability(metrics=MetricsRegistry(), capture_memory=True)
        with obs.run("probe"):
            blob = bytearray(512 * 1024)
            del blob
        assert obs.last_memory is not None
        gauge = obs.metrics.get(
            "repro_run_peak_memory_bytes", labels={"run": "probe"}
        )
        assert gauge.value == obs.last_memory.peak_bytes
        assert gauge.value > 0

    def test_shared_tracer_publishes_only_into_its_registry(self):
        tracer = Tracer(sinks=[InMemorySink()])
        idle, used = MetricsRegistry(), MetricsRegistry()
        Observability(tracer=tracer, metrics=idle)
        obs = Observability(tracer=tracer, metrics=used)
        generate_goal_driven(
            brandeis_catalog(), START, brandeis_major_goal(), END, obs=obs
        )
        assert len(idle) == 0
        assert used.get("repro_runs_total", labels={"kind": "goal_driven"}).value == 1

    def test_record_run_stats_publishes_counters(self):
        from repro.core import ExplorationStats

        registry = MetricsRegistry()
        obs = Observability(metrics=registry)
        stats = ExplorationStats()
        stats.record_node()
        stats.record_node()
        stats.record_edge()
        stats.record_terminal("goal")
        stats.record_prune("time", 3)
        stats.elapsed_seconds = 0.5
        obs.record_run_stats("goal_driven", stats)
        text = registry.render_prometheus()
        assert "repro_nodes_created_total 2" in text
        assert "repro_edges_created_total 1" in text
        assert 'repro_terminals_total{kind="goal"} 1' in text
        assert 'repro_prune_events_total{strategy="time"} 3' in text
        assert 'repro_runs_total{kind="goal_driven"} 1' in text


# ---------------------------------------------------------------------------
# engine integration


@pytest.fixture(scope="module")
def catalog():
    return brandeis_catalog()


# Function-scoped: each test gets its own goal, so no state left by one
# test can change which "goal" spans another one sees.
@pytest.fixture
def major_goal():
    return brandeis_major_goal()


START = Term(2013, "Fall")
END = Term(2015, "Fall")


class TestEngineIntegration:
    def test_goal_driven_trace_has_nested_phases(self, catalog, major_goal):
        sink = InMemorySink()
        obs = Observability(tracer=Tracer(sinks=[sink]))
        generate_goal_driven(catalog, START, major_goal, END, obs=obs)
        names = {record["name"] for record in sink.records}
        assert {"run:goal_driven", "expand", "prune", "prune:time",
                "prune:availability", "goal"} <= names
        roots = [r for r in sink.records if r["parent_id"] is None]
        assert [r["name"] for r in roots] == ["run:goal_driven"]
        by_id = {r["span_id"]: r for r in sink.records}
        # every phase span sits under the run root
        for record in sink.records:
            if record["parent_id"] is not None:
                assert record["parent_id"] in by_id
        # prune:* spans are children of prune spans
        for record in sink.records:
            if record["name"].startswith("prune:"):
                assert by_id[record["parent_id"]]["name"] == "prune"

    def test_ranked_trace_covers_all_engine_phases(self, catalog, major_goal):
        sink = InMemorySink()
        obs = Observability(tracer=Tracer(sinks=[sink]))
        generate_ranked(
            catalog, START, major_goal, END, k=2, ranking=TimeRanking(), obs=obs
        )
        names = {record["name"] for record in sink.records}
        assert {"run:ranked", "expand", "prune", "goal", "rank"} <= names

    def test_frontier_trace_has_merge_phase(self, catalog, major_goal):
        sink = InMemorySink()
        obs = Observability(tracer=Tracer(sinks=[sink]))
        count = frontier_count_goal_paths(
            catalog, START, major_goal, END, obs=obs
        )
        names = {record["name"] for record in sink.records}
        assert {"run:frontier_goal", "expand", "merge", "prune"} <= names
        assert count.path_count > 0

    def test_phase_timings_agree_across_backends(self, catalog, major_goal):
        sink = InMemorySink()
        registry = MetricsRegistry()
        obs = Observability(tracer=Tracer(sinks=[sink]), metrics=registry)
        generate_goal_driven(catalog, START, major_goal, END, obs=obs)
        spans = [r for r in sink.records if not r["name"].startswith("run:")]
        names = {r["name"] for r in spans}
        assert {"expand", "prune", "goal"} <= names
        assert set(obs.phases.phases) == names
        for name in names:
            durations = [r["duration"] for r in spans if r["name"] == name]
            histogram = registry.get(
                "repro_phase_duration_seconds", labels={"phase": name}
            )
            assert histogram.count == len(durations) == obs.phases.count(name)
            total = sum(durations)
            assert math.isclose(histogram.sum, total, rel_tol=1e-9)
            assert math.isclose(obs.phases.seconds(name), total, rel_tol=1e-9)

    def test_metrics_capture_run_counters(self, catalog, major_goal):
        registry = MetricsRegistry()
        obs = Observability(metrics=registry)
        result = generate_goal_driven(catalog, START, major_goal, END, obs=obs)
        nodes = registry.get("repro_nodes_created_total")
        assert nodes.value == result.stats.nodes_created
        prunes = registry.get(
            "repro_prune_events_total", labels={"strategy": "time"}
        )
        assert prunes.value == result.stats.prune_events["time"]
        histogram = registry.get(
            "repro_phase_duration_seconds", labels={"phase": "expand"}
        )
        assert histogram.count > 0

    def test_instrumented_results_match_untraced(self, catalog, major_goal):
        plain = generate_goal_driven(catalog, START, major_goal, END)
        obs = Observability(
            tracer=Tracer(sinks=[InMemorySink()]), metrics=MetricsRegistry()
        )
        traced = generate_goal_driven(catalog, START, major_goal, END, obs=obs)
        assert {p.selections for p in plain.paths()} == {
            p.selections for p in traced.paths()
        }
        plain_dict = plain.stats.as_dict()
        traced_dict = traced.stats.as_dict()
        plain_dict.pop("elapsed_seconds")
        traced_dict.pop("elapsed_seconds")
        assert plain_dict == traced_dict
        assert plain.pruning_stats.as_dict() == traced.pruning_stats.as_dict()

    def test_disabled_observability_is_inert(self, catalog, major_goal):
        plain = generate_goal_driven(catalog, START, major_goal, END)
        nulled = generate_goal_driven(
            catalog, START, major_goal, END, obs=NULL_OBSERVABILITY
        )
        assert plain.path_count == nulled.path_count
        assert not NULL_OBSERVABILITY.phases

    def test_flow_solver_untraced_without_run_scope(self):
        # The solver charges no phase, even inside a timed run's scope:
        # only the goal a timed run wraps is timed.
        from repro.requirements.flow import FlowNetwork

        obs = Observability(metrics=MetricsRegistry())
        network = FlowNetwork()
        network.add_edge("s", "t", 3)
        with obs.run("probe"):
            assert network.max_flow("s", "t") == 3
        assert not obs.phases

    def test_navigator_threads_observability(self, catalog, major_goal):
        sink = InMemorySink()
        registry = MetricsRegistry()
        obs = Observability(tracer=Tracer(sinks=[sink]), metrics=registry)
        navigator = CourseNavigator(catalog, obs=obs)
        assert navigator.observability is obs
        navigator.explore_ranked(START, major_goal, END, k=1)
        assert any(r["name"] == "run:ranked" for r in sink.records)
        assert registry.get("repro_runs_total", labels={"kind": "ranked"}).value == 1
        assert navigator.observability.phases.seconds("rank") >= 0.0

    def test_navigator_without_observability(self, catalog):
        assert CourseNavigator(catalog).observability is None

    def test_report_includes_phase_section(self, catalog, major_goal):
        from repro.system.report import build_goal_report

        obs = Observability(metrics=MetricsRegistry())
        result = generate_goal_driven(catalog, START, major_goal, END, obs=obs)
        report = build_goal_report(
            catalog, major_goal, START, END, result, obs=obs
        )
        assert "phase timing" in report
        assert "expand" in report

    def test_report_omits_phase_section_without_obs(self, catalog, major_goal):
        from repro.system.report import build_goal_report

        result = generate_goal_driven(catalog, START, major_goal, END)
        report = build_goal_report(catalog, major_goal, START, END, result)
        assert "phase timing" not in report

    def test_report_shows_memory_captured_without_phases(self, catalog, major_goal):
        from repro.system.report import build_goal_report

        obs = Observability(capture_memory=True)
        result = generate_goal_driven(catalog, START, major_goal, END, obs=obs)
        assert not obs.phases and obs.last_memory is not None
        report = build_goal_report(
            catalog, major_goal, START, END, result, obs=obs
        )
        assert "(no phases recorded)" in report
        assert f"peak memory     {obs.last_memory.peak_kib:,.0f} KiB" in report


# ---------------------------------------------------------------------------
# which backends time phases


class _CountingGoal(Goal):
    """Counts every query the engine asks of the wrapped goal."""

    def __init__(self, inner: Goal):
        self.inner = inner
        self.queries = 0

    def is_satisfied(self, completed):
        self.queries += 1
        return self.inner.is_satisfied(completed)

    def remaining_courses(self, completed):
        self.queries += 1
        return self.inner.remaining_courses(completed)

    def courses(self):
        return self.inner.courses()

    def describe(self):
        return self.inner.describe()

    def to_dict(self):
        return self.inner.to_dict()


def _goal_run(catalog, goal, obs):
    result = generate_goal_driven(catalog, START, goal, END, obs=obs)
    stats = result.stats.as_dict()
    stats.pop("elapsed_seconds")
    return sorted(p.selections for p in result.paths()), stats


def _ranked_run(catalog, goal, obs):
    result = generate_ranked(
        catalog, START, goal, END, k=5, ranking=TimeRanking(), obs=obs
    )
    stats = result.stats.as_dict()
    stats.pop("elapsed_seconds")
    return [p.selections for p in result.paths], result.costs, stats


def _frontier_run(catalog, goal, obs):
    result = frontier_count_goal_paths(catalog, START, goal, END, obs=obs)
    return result.path_count, result.terminal_path_counts, result.layer_widths


_RUNS = {"goal": _goal_run, "ranked": _ranked_run, "frontier": _frontier_run}
_PRUNE_PHASES = {"goal", "expand", "prune", "prune:time", "prune:availability"}
_OWN_PHASES = {"goal": set(), "ranked": {"rank"}, "frontier": {"merge"}}
_UNTIMED = {
    "progress": lambda: Observability(progress=ProgressTracker()),
    "decisions": lambda: Observability(decisions=DecisionRecorder()),
    "memory": lambda: Observability(capture_memory=True),
}
_TIMED = {
    "tracer": lambda: Observability(tracer=Tracer(sinks=[InMemorySink()])),
    "metrics": lambda: Observability(metrics=MetricsRegistry()),
}


class TestBackendGate:
    @pytest.mark.parametrize("run", sorted(_RUNS))
    @pytest.mark.parametrize("backend", sorted(_UNTIMED))
    def test_untimed_backends_record_no_phase(self, catalog, run, backend):
        obs = _UNTIMED[backend]()
        assert obs.enabled and not obs.timed
        plain = _RUNS[run](catalog, brandeis_major_goal(), None)
        observed = _RUNS[run](catalog, brandeis_major_goal(), obs)
        assert observed == plain
        assert not obs.phases

    @pytest.mark.parametrize("run", sorted(_RUNS))
    @pytest.mark.parametrize("backend", sorted(_TIMED))
    def test_timed_backends_record_every_phase(self, catalog, run, backend):
        obs = _TIMED[backend]()
        assert obs.timed
        plain = _RUNS[run](catalog, brandeis_major_goal(), None)
        observed = _RUNS[run](catalog, brandeis_major_goal(), obs)
        assert observed == plain
        assert set(obs.phases.phases) == _PRUNE_PHASES | _OWN_PHASES[run]

    @pytest.mark.parametrize("run", sorted(_RUNS))
    def test_goal_phase_counts_every_goal_query(self, catalog, run):
        goal = _CountingGoal(brandeis_major_goal())
        obs = Observability(metrics=MetricsRegistry())
        _RUNS[run](catalog, goal, obs)
        assert goal.queries > 0
        assert obs.phases.count("goal") == goal.queries

    def test_only_timed_runs_wrap_the_goal(self, catalog):
        from repro.core.step import NodeStep

        goal = brandeis_major_goal()
        for backend in _UNTIMED.values():
            step = NodeStep("goal_driven", catalog, START, END, (), None, goal, obs=backend())
            assert step.goal is goal
        timed = NodeStep("goal_driven", catalog, START, END, (), None, goal, obs=_TIMED["metrics"]())
        assert timed.goal is not goal
        assert timed.goal.courses() == goal.courses()
        assert timed.goal.to_dict() == goal.to_dict()


def test_requirements_layer_does_not_import_obs():
    """The goal layer reaches observability only through the goal wrapper a
    timed run builds, so no module under ``repro.requirements`` imports it."""
    import repro.requirements

    package = ["repro", "requirements"]
    for path in sorted(Path(repro.requirements.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = package[: len(package) - node.level + 1] if node.level else []
                module = ".".join(base + ([node.module] if node.module else []))
                modules = [module] + [f"{module}.{alias.name}" for alias in node.names]
            else:
                continue
            for module in modules:
                assert not (module == "repro.obs" or module.startswith("repro.obs.")), (
                    path.name, module,
                )
