"""Tests for live telemetry (repro.obs.live + repro.obs.server).

Covers the progress tracker (counters, snapshots, the optimistic ETA
estimate), the run limits (ExplorationConfig's node/wall/memory fields,
checked by the node-step kernel), cooperative cancellation through the
tracker and the watchdog, the partial snapshots carried by
BudgetExceededError from each of the four generators, the thread handoff
via Observability.activate(), the metrics HTTP exporter (including a
scrape-while-exploring race test), and the progress printer.
"""

import io
import json
import threading
import time
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest

from repro.core import (
    ExplorationConfig,
    generate_deadline_driven,
    generate_goal_driven,
    generate_ranked,
)
from repro.core import step as step_module
from repro.core.frontier import frontier_count_deadline_paths, frontier_count_goal_paths
from repro.core.ranking import TimeRanking
from repro.data import brandeis_catalog, brandeis_major_goal
from repro.errors import BudgetExceededError, InvalidConfigError, RunCancelledError
from repro.obs import (
    MetricsRegistry,
    MetricsServer,
    Observability,
    ProgressPrinter,
    ProgressTracker,
    Watchdog,
    current_observability,
)
from repro.semester import Term

START = Term(2013, "Fall")
END = Term(2015, "Fall")
LONG_START = Term(2012, "Fall")  # unbudgeted horizon too large to finish fast


class FakeClock:
    """A manually advanced clock for deterministic wall/ETA tests."""

    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# ---------------------------------------------------------------------------
# ProgressTracker


class TestProgressTracker:
    def test_counters_accumulate(self):
        tracker = ProgressTracker()
        tracker.begin_run("unit", horizon=3)
        tracker.record_expanded(0, 2)
        tracker.record_expanded(1, 3)
        tracker.record_pruned(1)
        tracker.record_terminal("goal", 2)
        tracker.record_terminal("goal", 2)
        tracker.record_emit(2)
        tracker.set_frontier(7)
        snap = tracker.snapshot()
        assert snap.run == "unit"
        assert snap.horizon == 3
        assert snap.nodes_expanded == 2
        assert snap.nodes_pruned == 1
        assert snap.terminals == {"goal": 2}
        assert snap.nodes_seen == 2 + 1 + 2
        assert snap.paths_emitted == 2
        assert snap.frontier_size == 7
        assert snap.depth == 2
        assert tracker.nodes_seen == snap.nodes_seen

    def test_generation_strictly_increases_per_mutation(self):
        tracker = ProgressTracker()
        tracker.begin_run("unit")
        mutators = [
            lambda: tracker.record_expanded(0, 2),
            lambda: tracker.record_pruned(0),
            lambda: tracker.record_terminal("goal", 1),
            lambda: tracker.record_emit(),
            lambda: tracker.set_frontier(3),
            tracker.finish_run,
        ]
        last = tracker.generation
        for mutate in mutators:
            mutate()
            assert tracker.generation == last + 1
            last = tracker.generation

    def test_begin_run_resets_counters(self):
        tracker = ProgressTracker()
        tracker.begin_run("first", horizon=2)
        tracker.record_expanded(0, 4)
        tracker.record_emit(5)
        tracker.begin_run("second", horizon=1)
        snap = tracker.snapshot()
        assert snap.run == "second"
        assert snap.nodes_seen == 0
        assert snap.paths_emitted == 0
        assert snap.generation == 0

    def test_estimate_none_without_horizon_or_observations(self):
        tracker = ProgressTracker()
        tracker.begin_run("no-horizon")  # horizon=None
        tracker.record_expanded(0, 2)
        assert tracker.snapshot().estimated_total_nodes is None

        tracker.begin_run("no-expansion", horizon=3)
        tracker.record_terminal("goal", 0)
        snap = tracker.snapshot()
        assert snap.estimated_total_nodes is None
        assert snap.progress_fraction is None
        assert snap.eta_seconds is None

    def test_estimate_extrapolates_observed_branching(self):
        tracker = ProgressTracker()
        tracker.begin_run("unit", horizon=2)
        # One node at depth 0 expanded into 2 children, nothing pruned:
        # layer(0) = 2; depth 1 unobserved -> extrapolate branching 2:
        # layer(1) = 4; total = 1 + 2 + 4.
        tracker.record_expanded(0, 2)
        assert tracker.snapshot().estimated_total_nodes == pytest.approx(7.0)

    def test_estimate_tightened_by_prunes(self):
        tracker = ProgressTracker()
        tracker.begin_run("unit", horizon=2)
        tracker.record_expanded(0, 4)
        tracker.record_pruned(0)
        tracker.record_pruned(0)
        tracker.record_pruned(0)
        # branching 4, survival 1/4 -> layer 1.0; extrapolated again at
        # depth 1 -> total = 1 + 1 + 1.
        assert tracker.snapshot().estimated_total_nodes == pytest.approx(3.0)

    def test_eta_from_fraction_and_elapsed(self):
        clock = FakeClock()
        tracker = ProgressTracker(clock=clock)
        tracker.begin_run("unit", horizon=1)
        tracker.record_expanded(0, 2)  # estimate = 1 + 2 = 3, seen = 1
        clock.advance(6.0)
        snap = tracker.snapshot()
        assert snap.elapsed_seconds == pytest.approx(6.0)
        assert snap.progress_fraction == pytest.approx(1.0 / 3.0)
        # eta = elapsed * (1 - f) / f = 6 * 2 = 12
        assert snap.eta_seconds == pytest.approx(12.0)

    def test_finished_pins_fraction_and_eta(self):
        tracker = ProgressTracker()
        tracker.begin_run("unit", horizon=5)
        tracker.record_expanded(0, 3)
        tracker.finish_run()
        snap = tracker.snapshot()
        assert snap.finished
        assert snap.progress_fraction == 1.0
        assert snap.eta_seconds == 0.0

    def test_snapshot_as_dict_is_json_serializable(self):
        tracker = ProgressTracker()
        tracker.begin_run("unit", horizon=2, budget={"max_nodes": 10})
        tracker.record_expanded(0, 2)
        tracker.record_pruned(1)
        payload = json.loads(json.dumps(tracker.snapshot().as_dict()))
        assert payload["run"] == "unit"
        assert payload["per_depth"]["0"]["expanded"] == 1
        assert payload["per_depth"]["1"]["pruned"] == 1
        assert payload["budget"]["max_nodes"] == 10

    def test_render_line_mentions_the_essentials(self):
        tracker = ProgressTracker()
        tracker.begin_run("unit", horizon=4)
        tracker.record_expanded(0, 2)
        tracker.record_emit(3)
        line = tracker.snapshot().render_line()
        assert "[unit]" in line
        assert "1 nodes" in line
        assert "paths 3" in line
        assert "depth 0/4" in line

    def test_cancel_shows_in_snapshot(self):
        tracker = ProgressTracker()
        tracker.begin_run("unit")
        assert tracker.cancelled is None
        tracker.cancel("operator said stop")
        assert tracker.cancelled == "operator said stop"
        snap = tracker.snapshot()
        assert snap.cancelled == "operator said stop"
        assert "cancelled: operator said stop" in snap.render_line()
        # A cancelled tracker stays cancelled: a later run stops too.
        tracker.begin_run("next")
        assert tracker.snapshot().cancelled == "operator said stop"

    def test_publish_gauges(self):
        registry = MetricsRegistry()
        tracker = ProgressTracker()
        tracker.begin_run("unit", horizon=1)
        tracker.record_expanded(0, 2)
        tracker.set_frontier(2)
        tracker.publish_gauges(registry)
        text = registry.render_prometheus()
        assert "repro_progress_nodes_seen 1" in text
        assert "repro_progress_frontier_size 2" in text
        assert "repro_progress_fraction" in text

    def test_concurrent_snapshots_never_regress(self):
        tracker = ProgressTracker()
        tracker.begin_run("hammer", horizon=4)
        stop = threading.Event()
        regressions = []

        def reader():
            last = -1
            while not stop.is_set():
                snap = tracker.snapshot()
                total = (
                    snap.nodes_expanded
                    + snap.nodes_pruned
                    + sum(snap.terminals.values())
                )
                if snap.nodes_seen != total:
                    regressions.append("inconsistent snapshot")
                if snap.generation < last:
                    regressions.append("generation went backwards")
                last = snap.generation

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for index in range(3000):
            tracker.record_expanded(index % 4, 2)
            if index % 3 == 0:
                tracker.record_pruned(index % 4)
            if index % 5 == 0:
                tracker.record_terminal("goal", index % 4)
        stop.set()
        for thread in threads:
            thread.join()
        assert regressions == []


# ---------------------------------------------------------------------------
# run limits (ExplorationConfig fields checked by NodeStep)


def _goal_run(config, obs=None):
    return generate_goal_driven(
        brandeis_catalog(), START, brandeis_major_goal(), END, config=config, obs=obs
    )


def _ranked_run(config, obs=None):
    # k=300 decides 734 nodes: more than two memory-probe intervals.
    return generate_ranked(
        brandeis_catalog(), START, brandeis_major_goal(), END,
        k=300, ranking=TimeRanking(), config=config, obs=obs,
    )


def _frontier_run(config, obs=None):
    return frontier_count_goal_paths(
        brandeis_catalog(), START, brandeis_major_goal(), END, config=config, obs=obs
    )


ENGINES = {"goal": _goal_run, "ranked": _ranked_run, "frontier": _frontier_run}


@pytest.fixture
def exceeded_kinds(monkeypatch):
    """The kinds passed to ``NodeStep.exceeded`` during the test, in order."""
    kinds = []
    exceeded = step_module.NodeStep.exceeded

    def spy(self, kind, limit, observed):
        kinds.append(kind)
        return exceeded(self, kind, limit, observed)

    monkeypatch.setattr(step_module.NodeStep, "exceeded", spy)
    return kinds


class TestRunLimits:
    @pytest.mark.parametrize("limit", ["max_wall_seconds", "max_memory_bytes"])
    @pytest.mark.parametrize("value", [-1, float("nan")])
    def test_negative_or_nan_limit_rejected(self, limit, value):
        with pytest.raises(InvalidConfigError, match=limit):
            ExplorationConfig(**{limit: value})
        assert getattr(ExplorationConfig(**{limit: 0}), limit) == 0
        assert getattr(ExplorationConfig(**{limit: float("inf")}), limit) == float("inf")

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_wall_limit_zero_stops_every_engine(self, engine, exceeded_kinds):
        with pytest.raises(BudgetExceededError) as info:
            ENGINES[engine](ExplorationConfig(max_wall_seconds=0.0))
        assert exceeded_kinds == ["wall seconds"]
        assert info.value.kind == "wall seconds"
        assert info.value.limit == 0.0
        # Untracked: partial stats, no snapshot.
        assert info.value.progress is None
        assert info.value.partial_stats is not None

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_memory_limit_zero_stops_every_engine(self, engine, exceeded_kinds):
        # Every run decides more nodes than one probe interval.
        with pytest.raises(BudgetExceededError) as info:
            ENGINES[engine](ExplorationConfig(max_memory_bytes=0))
        assert exceeded_kinds == ["memory bytes"]
        assert info.value.observed > 0
        assert info.value.partial_stats is not None

    def test_wall_limit_measured_from_run_start(self, monkeypatch):
        clock = FakeClock(100.0)
        decided = []
        decide = step_module.NodeStep.decide

        def counted(self, *args):
            decided.append(1)
            if len(decided) == 3:
                clock.advance(2.5)  # the third node is past the limit
            return decide(self, *args)

        monkeypatch.setattr(step_module, "time", SimpleNamespace(perf_counter=clock))
        monkeypatch.setattr(step_module.NodeStep, "decide", counted)
        with pytest.raises(BudgetExceededError) as info:
            _goal_run(ExplorationConfig(max_wall_seconds=2.0))
        assert info.value.kind == "wall seconds"
        assert info.value.observed == 2.5
        assert len(decided) == 3

    def test_memory_probed_every_interval(self, monkeypatch):
        probes = []

        def probe():
            probes.append(1)
            return 0

        monkeypatch.setattr(step_module, "_process_memory_bytes", probe)
        tracker = ProgressTracker()
        result = _goal_run(
            ExplorationConfig(max_memory_bytes=1), Observability(progress=tracker)
        )
        decided = tracker.snapshot().nodes_seen
        assert result.path_count == 905
        assert decided > step_module.MEMORY_PROBE_INTERVAL
        assert len(probes) == decided // step_module.MEMORY_PROBE_INTERVAL

    def test_cancel_from_another_thread(self):
        tracker = ProgressTracker()
        thread = threading.Thread(target=tracker.cancel, args=("op stop",))
        thread.start()
        thread.join()
        with pytest.raises(RunCancelledError) as info:
            _goal_run(None, Observability(progress=tracker))
        assert isinstance(info.value, BudgetExceededError)
        assert info.value.reason == "op stop"
        assert str(info.value) == "exploration cancelled: op stop"
        assert info.value.progress.cancelled == "op stop"
        assert info.value.progress.nodes_seen == 0  # stopped at the first node
        assert info.value.partial_stats is not None
        assert tracker.snapshot().cancelled == "op stop"

    def test_failure_carries_snapshot_and_limits(self):
        tracker = ProgressTracker()
        config = ExplorationConfig(max_nodes=40, max_wall_seconds=3600.0)
        with pytest.raises(BudgetExceededError) as info:
            _goal_run(config, Observability(progress=tracker))
        snap = info.value.progress
        assert snap is not None
        assert snap.nodes_seen > 0
        assert snap.budget == {
            "max_nodes": 40,
            "max_wall_seconds": 3600.0,
            "max_memory_bytes": None,
        }

    def test_unlimited_run_has_no_budget_in_snapshot(self):
        tracker = ProgressTracker()
        _frontier_run(None, Observability(progress=tracker))
        assert tracker.snapshot().budget is None


# ---------------------------------------------------------------------------
# budgets on the four generators


class TestGeneratorBudgets:
    """A node budget reliably kills each generator mid-run, and the error
    carries a consistent, non-empty partial snapshot."""

    def _assert_partial(self, exc: BudgetExceededError, expect_stats=True):
        snap = exc.progress
        assert snap is not None
        assert snap.nodes_seen > 0
        assert snap.budget is not None
        assert not snap.finished
        if expect_stats:
            assert exc.partial_stats is not None
            assert exc.partial_stats.nodes_created > 0
            assert exc.partial_stats.elapsed_seconds >= 0.0

    def test_goal_driven(self):
        obs = Observability(progress=ProgressTracker())
        with pytest.raises(BudgetExceededError) as info:
            _goal_run(ExplorationConfig(max_nodes=150), obs)
        self._assert_partial(info.value)
        assert info.value.progress.run == "goal_driven"

    def test_deadline_exhaustive_run_terminates(self):
        obs = Observability(progress=ProgressTracker())
        with pytest.raises(BudgetExceededError) as info:
            generate_deadline_driven(
                brandeis_catalog(), START, END,
                config=ExplorationConfig(max_nodes=400), obs=obs,
            )
        self._assert_partial(info.value)
        assert info.value.progress.run == "deadline"

    def test_ranked(self):
        obs = Observability(progress=ProgressTracker())
        with pytest.raises(BudgetExceededError) as info:
            _ranked_run(ExplorationConfig(max_nodes=80), obs)
        self._assert_partial(info.value)
        assert info.value.progress.run == "ranked"

    def test_frontier(self):
        # max_nodes bounds the frontier DP's distinct states.
        obs = Observability(progress=ProgressTracker())
        with pytest.raises(BudgetExceededError) as info:
            _frontier_run(ExplorationConfig(max_nodes=20), obs)
        self._assert_partial(info.value)
        assert info.value.progress.run == "frontier_goal"
        assert info.value.observed == 21

    def test_deadline_dag(self):
        # The deadline frontier walks the merged DAG one layer at a time.
        obs = Observability(progress=ProgressTracker())
        with pytest.raises(BudgetExceededError) as info:
            frontier_count_deadline_paths(
                brandeis_catalog(), START, END,
                config=ExplorationConfig(max_nodes=50), obs=obs,
            )
        self._assert_partial(info.value)
        assert info.value.progress.run == "frontier_deadline"

    def test_wall_budget_on_real_run(self):
        obs = Observability(progress=ProgressTracker())
        with pytest.raises(BudgetExceededError) as info:
            generate_deadline_driven(
                brandeis_catalog(), START, END,
                config=ExplorationConfig(max_wall_seconds=0.0), obs=obs,
            )
        assert info.value.kind == "wall seconds"
        assert info.value.progress is not None

    def test_unbudgeted_observed_run_matches_plain_run(self):
        plain = generate_goal_driven(
            brandeis_catalog(), START, brandeis_major_goal(), END
        )
        obs = Observability(progress=ProgressTracker())
        observed = generate_goal_driven(
            brandeis_catalog(), START, brandeis_major_goal(), END, obs=obs
        )
        assert observed.path_count == plain.path_count
        snap = obs.progress.snapshot()
        assert snap.finished
        assert snap.paths_emitted == plain.path_count
        assert snap.progress_fraction == 1.0

    def test_frontier_deadline_count_emits_its_paths(self):
        # Deadline mode: every deadline leaf and dead end is an output
        # path, weighted by how many tree paths the merged state stands for.
        start = Term(2014, "Spring")
        tree_obs = Observability(progress=ProgressTracker())
        tree = generate_deadline_driven(brandeis_catalog(), start, END, obs=tree_obs)
        obs = Observability(progress=ProgressTracker())
        counted = frontier_count_deadline_paths(brandeis_catalog(), start, END, obs=obs)
        assert counted.path_count == tree.path_count > 0
        snap = obs.progress.snapshot()
        assert snap.finished
        assert snap.paths_emitted == counted.path_count
        assert snap.paths_emitted == tree_obs.progress.snapshot().paths_emitted


# ---------------------------------------------------------------------------
# cancellation + watchdog


class TestCancellation:
    def test_cancel_mid_run_from_another_thread(self):
        tracker = ProgressTracker()
        obs = Observability(progress=tracker)
        timer = threading.Timer(0.05, tracker.cancel, args=("reaper",))
        timer.daemon = True
        timer.start()
        try:
                # Unlimited, this horizon runs for minutes; cancellation must
            # kill it within a node of the timer firing.
            with pytest.raises(RunCancelledError) as info:
                generate_deadline_driven(brandeis_catalog(), LONG_START, END, obs=obs)
        finally:
            timer.cancel()
        assert info.value.reason == "reaper"
        assert info.value.progress.cancelled == "reaper"
        assert info.value.progress.nodes_seen > 0

    def test_watchdog_reaps_a_runaway_run(self):
        tracker = ProgressTracker()
        obs = Observability(progress=tracker)
        with Watchdog(tracker, timeout=0.05):
            with pytest.raises(RunCancelledError) as info:
                generate_deadline_driven(brandeis_catalog(), LONG_START, END, obs=obs)
        assert "watchdog timeout" in info.value.reason

    def test_watchdog_close_disarms(self):
        tracker = ProgressTracker()
        watchdog = Watchdog(tracker, timeout=0.01).start()
        watchdog.close()
        time.sleep(0.03)
        assert tracker.cancelled is None  # the timer was cancelled
        # ...so a run on the tracker completes.
        assert _frontier_run(None, Observability(progress=tracker)).path_count == 905


# ---------------------------------------------------------------------------
# contextvar thread visibility + activate()


class TestThreadHandoff:
    def test_run_scope_not_visible_in_worker_thread(self):
        obs = Observability(metrics=MetricsRegistry())
        seen = {}

        def worker():
            seen["inside"] = current_observability()

        with obs.run("visibility"):
            assert current_observability() is obs
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["inside"] is None

    def test_activate_publishes_in_worker_thread(self):
        obs = Observability(metrics=MetricsRegistry())
        seen = {}

        def worker():
            with obs.activate() as active:
                seen["inside"] = current_observability()
                seen["yielded"] = active
            seen["after"] = current_observability()

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["inside"] is obs
        assert seen["yielded"] is obs
        assert seen["after"] is None


# ---------------------------------------------------------------------------
# the HTTP exporter


def _get(url: str):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers.get("Content-Type"), response.read()


class TestMetricsServer:
    def test_endpoints(self):
        registry = MetricsRegistry()
        registry.counter("unit_total", "test counter").inc(3)
        tracker = ProgressTracker()
        tracker.begin_run("served", horizon=2, budget={"max_nodes": 99})
        tracker.record_expanded(0, 2)
        with MetricsServer(registry=registry, progress=tracker) as server:
            status, ctype, body = _get(server.url + "/metrics")
            assert status == 200
            assert ctype.startswith("text/plain")
            assert "version=0.0.4" in ctype
            text = body.decode()
            assert "unit_total 3" in text
            assert "repro_progress_nodes_seen 1" in text

            status, ctype, body = _get(server.url + "/progress")
            assert status == 200
            assert ctype == "application/json"
            payload = json.loads(body.decode())
            assert payload["run"] == "served"
            assert payload["nodes_seen"] == 1
            assert payload["budget"]["max_nodes"] == 99

            status, _ctype, body = _get(server.url + "/healthz")
            assert status == 200
            assert body == b"ok\n"

            with pytest.raises(urllib.error.HTTPError) as info:
                _get(server.url + "/nope")
            assert info.value.code == 404

    def test_missing_backends_answer_404(self):
        with MetricsServer() as server:
            with pytest.raises(urllib.error.HTTPError) as info:
                _get(server.url + "/metrics")
            assert info.value.code == 404
            with pytest.raises(urllib.error.HTTPError) as info:
                _get(server.url + "/progress")
            assert info.value.code == 404

    @pytest.mark.parametrize("port", [-1, 65536])
    def test_port_out_of_range_rejected(self, port):
        with pytest.raises(InvalidConfigError, match="0-65535"):
            MetricsServer(port=port)

    def test_close_is_idempotent(self):
        server = MetricsServer(registry=MetricsRegistry()).start()
        server.close()
        server.close()

    def test_scrape_while_exploring(self):
        """Concurrent scrapes during a live run: every response is 200,
        nodes_seen is monotone, and no handler raises."""
        registry = MetricsRegistry()
        tracker = ProgressTracker()
        obs = Observability(metrics=registry, progress=tracker)
        errors = []
        samples = []
        stop = threading.Event()

        def scraper(server_url):
            while not stop.is_set():
                try:
                    status, _ctype, body = _get(server_url + "/progress")
                    assert status == 200
                    samples.append(json.loads(body.decode())["nodes_seen"])
                    status, _ctype, _body = _get(server_url + "/metrics")
                    assert status == 200
                except Exception as exc:  # pragma: no cover - failure detail
                    errors.append(repr(exc))
                    return

        with MetricsServer(registry=registry, progress=tracker) as server:
            thread = threading.Thread(target=scraper, args=(server.url,))
            thread.start()
            result = generate_goal_driven(
                brandeis_catalog(), START, brandeis_major_goal(), END, obs=obs
            )
            stop.set()
            thread.join()
        assert errors == []
        assert result.path_count == 905
        assert samples, "scraper never got a response"
        run_samples = [s for s in samples if s > 0]
        assert run_samples == sorted(run_samples)


# ---------------------------------------------------------------------------
# registry / histogram thread safety


class TestMetricsThreadSafety:
    def test_get_or_create_race_returns_one_instrument(self):
        registry = MetricsRegistry()
        instruments = []
        barrier = threading.Barrier(8)

        def create():
            barrier.wait()
            instruments.append(registry.counter("raced_total", "racy"))

        threads = [threading.Thread(target=create) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(instrument) for instrument in instruments}) == 1
        assert len(registry) == 1

    def test_histogram_observe_hammer_is_exact(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("hammer_seconds", "hammered")
        per_thread, threads_n = 2000, 6

        def observe():
            for index in range(per_thread):
                histogram.observe(index % 7 * 0.001)

        threads = [threading.Thread(target=observe) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert histogram.count == per_thread * threads_n

    def test_render_while_observing_never_raises(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("busy_seconds", "busy")
        stop = threading.Event()
        errors = []

        def renderer():
            while not stop.is_set():
                try:
                    registry.render_prometheus()
                    registry.snapshot()
                    list(registry)
                except Exception as exc:  # pragma: no cover - failure detail
                    errors.append(repr(exc))
                    return

        thread = threading.Thread(target=renderer)
        thread.start()
        for index in range(5000):
            histogram.observe(index * 1e-4)
            if index % 100 == 0:
                registry.counter(f"c{index}_total", "churn").inc()
        stop.set()
        thread.join()
        assert errors == []


# ---------------------------------------------------------------------------
# ProgressPrinter


class _FakeTty(io.StringIO):
    def isatty(self) -> bool:
        return True


class TestProgressPrinter:
    def test_plain_stream_gets_one_line_per_sample(self):
        tracker = ProgressTracker()
        tracker.begin_run("printed", horizon=1)
        tracker.record_expanded(0, 2)
        stream = io.StringIO()
        printer = ProgressPrinter(tracker, stream=stream, interval=0.01).start()
        time.sleep(0.05)
        printer.close()
        lines = stream.getvalue().splitlines()
        assert lines, "printer wrote nothing"
        assert all(line.startswith("[printed]") for line in lines)

    def test_tty_stream_rewrites_in_place(self):
        tracker = ProgressTracker()
        tracker.begin_run("tty")
        stream = _FakeTty()
        with ProgressPrinter(tracker, stream=stream, interval=0.01):
            time.sleep(0.03)
        output = stream.getvalue()
        assert "\r\x1b[2K" in output
        assert output.endswith("\n")  # close() terminates the line
