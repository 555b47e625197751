"""Tests for the decision-level EXPLAIN layer (repro.obs.explain).

Covers the typed events (validation, JSON/JSONL round-trip), the
structured pruner verdicts, the recorder (sinks, streaming mode), the
ExplainReport analyses (attribution vs the aggregate counters, lineage,
near-misses, why-not), the engine integration across all three
generators — including the acceptance criterion that recording changes
nothing about the returned path set — and the CLI surface
(``explain`` subcommand, ``--explain`` flag).
"""

import io
import json
import math

import pytest

from repro.core import (
    ExplorationConfig,
    generate_deadline_driven,
    generate_goal_driven,
    generate_ranked,
)
from repro.core.expansion import Expander
from repro.core.frontier import frontier_count_goal_paths
from repro.core.pruning import (
    AvailabilityPruner,
    PruneVerdict,
    TimeBasedPruner,
    examine_pruners,
)
from repro.core.ranking import TimeRanking
from repro.data import brandeis_catalog, brandeis_major_goal
from repro.graph import EnrollmentStatus
from repro.obs import (
    DECISION_KINDS,
    DecisionEvent,
    DecisionRecorder,
    ExplainReport,
    InMemorySink,
    JsonlSink,
    Observability,
    describe_verdict,
    load_decision_events,
)
from repro.requirements import CourseSetGoal
from repro.semester import Term
from repro.system.navigator import CourseNavigator

from .conftest import F11, F12, S12

GOAL = CourseSetGoal({"11A", "29A", "21A"})
START = Term(2013, "Fall")
END = Term(2015, "Fall")


# ---------------------------------------------------------------------------
# events and verdicts


class TestDecisionEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            DecisionEvent(kind="vibes", node_id=0, parent_id=None, term="Fall 2013")

    def test_round_trips_through_dict(self):
        event = DecisionEvent(
            kind="prune",
            node_id=7,
            parent_id=3,
            term="Spring 2014",
            selection=("11A", "29A"),
            completed=("11A",),
            strategy="time",
            verdicts=(
                {"strategy": "time", "fired": True, "detail": {"left_i": 2}},
            ),
            detail={"note": 1},
        )
        clone = DecisionEvent.from_dict(json.loads(json.dumps(event.as_dict())))
        assert clone == event

    def test_firing_verdict_picks_fired(self):
        event = DecisionEvent(
            kind="prune",
            node_id=1,
            parent_id=None,
            term="Fall 2013",
            strategy="availability",
            verdicts=(
                {"strategy": "time", "fired": False, "detail": {}},
                {"strategy": "availability", "fired": True, "detail": {}},
            ),
        )
        assert event.firing_verdict["strategy"] == "availability"
        expand = DecisionEvent(kind="expand", node_id=2, parent_id=1, term="Fall 2013")
        assert expand.firing_verdict is None

    def test_every_kind_constructible(self):
        for kind in DECISION_KINDS:
            DecisionEvent(kind=kind, node_id=0, parent_id=None, term="Fall 2013")


class TestPruneVerdict:
    @pytest.fixture
    def run(self, fig3_catalog):
        """The goal and expander a run builds its pruners from."""
        return GOAL, Expander(fig3_catalog, F12, ExplorationConfig(max_courses_per_term=1))

    def test_time_examine_matches_should_prune(self, run):
        pruner = TimeBasedPruner(*run)
        status = EnrollmentStatus(F11, frozenset())
        verdict = pruner.examine(status)
        assert verdict.fired == pruner.should_prune(status)
        assert verdict.strategy == "time"
        # m=1, left=3, one semester after -> min_i = 2
        assert verdict.detail["left_i"] == 3
        assert verdict.detail["min_i"] == 2
        assert verdict.detail["m"] == 1
        assert verdict.detail["slack"] == 1
        assert verdict.detail["required_m"] == 2

    def test_availability_examine_names_shortfall(self, run):
        pruner = AvailabilityPruner(*run)
        verdict = pruner.examine(EnrollmentStatus(S12, {"29A"}))
        assert verdict.fired
        assert verdict.detail["shortfall"] >= 1
        assert "11A" in verdict.detail["unavailable_goal_courses"]

    def test_verdict_round_trips_with_infinity(self):
        verdict = PruneVerdict(
            strategy="time", fired=True, detail={"slack": math.inf}
        )
        data = json.loads(json.dumps(verdict.as_dict()))
        assert data["detail"]["slack"] == "inf"
        assert PruneVerdict.from_dict(data).detail["slack"] == math.inf

    def test_examine_pruners_first_fires_wins(self, run):
        pruners = [TimeBasedPruner(*run), AvailabilityPruner(*run)]
        firing, verdicts = examine_pruners(
            pruners, EnrollmentStatus(F11, frozenset())
        )
        assert firing is pruners[0]
        # consultation stops at the firing strategy
        assert [v.strategy for v in verdicts] == ["time"]
        assert verdicts[-1].fired

    def test_describe_verdict_names_bound_values(self, run):
        verdict = TimeBasedPruner(*run).examine(EnrollmentStatus(F11, frozenset()))
        text = describe_verdict(verdict.as_dict())
        assert "left_i=3" in text
        assert "min_i=2" in text
        assert "m=1" in text
        assert "min_i > m" in text

    def test_describe_verdict_unknown_strategy(self):
        text = describe_verdict(
            {"strategy": "custom", "fired": True, "detail": {"x": 1}}
        )
        assert text == "custom: fired (x=1)"


# ---------------------------------------------------------------------------
# the recorder


class TestDecisionRecorder:
    def _event(self, node_id=0, kind="expand"):
        return DecisionEvent(
            kind=kind, node_id=node_id, parent_id=None, term="Fall 2013"
        )

    def test_keeps_events_and_fans_out(self):
        sink = InMemorySink()
        recorder = DecisionRecorder(sinks=[sink])
        recorder.record(self._event())
        assert len(recorder) == 1
        assert sink.records[0]["kind"] == "expand"

    def test_streaming_mode_drops_memory(self):
        sink = InMemorySink()
        recorder = DecisionRecorder(sinks=[sink], keep_events=False)
        recorder.record(self._event())
        assert len(recorder) == 0
        assert len(sink.records) == 1

    def test_add_sink_sees_later_events_only(self):
        recorder = DecisionRecorder()
        recorder.record(self._event(0))
        sink = InMemorySink()
        recorder.add_sink(sink)
        recorder.record(self._event(1))
        assert [r["node"] for r in sink.records] == [1]

    def test_context_manager_closes_sinks(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        with DecisionRecorder(sinks=[JsonlSink(str(path))]) as recorder:
            recorder.record(self._event())
        assert json.loads(path.read_text())["kind"] == "expand"

    def test_report_builds_from_events(self):
        recorder = DecisionRecorder()
        recorder.record(self._event(kind="prune"))
        assert recorder.report().counts_by_kind() == {"prune": 1}


class TestJsonlSinkErrorPaths:
    def test_unwritable_path_raises_at_construction(self, tmp_path):
        with pytest.raises(OSError):
            JsonlSink(str(tmp_path / "missing-dir" / "audit.jsonl"))

    def test_directory_target_rejected(self, tmp_path):
        with pytest.raises(OSError):
            JsonlSink(str(tmp_path))

    def test_flushes_on_exception(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        recorder = DecisionRecorder(sinks=[JsonlSink(str(path))])
        with pytest.raises(RuntimeError):
            with recorder:
                recorder.record(
                    DecisionEvent(
                        kind="prune", node_id=0, parent_id=None, term="Fall 2013"
                    )
                )
                raise RuntimeError("mid-run crash")
        # the context manager closed (and therefore flushed) the sink
        assert json.loads(path.read_text())["kind"] == "prune"

    def test_borrowed_handle_left_open(self):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        sink.emit({"kind": "expand"})
        sink.close()
        assert not buffer.closed
        assert json.loads(buffer.getvalue())["kind"] == "expand"


# ---------------------------------------------------------------------------
# report analyses on a real run


@pytest.fixture(scope="module")
def catalog():
    return brandeis_catalog()


@pytest.fixture(scope="module")
def recorded(catalog):
    """One recorded goal-driven run over the evaluation workload."""
    recorder = DecisionRecorder()
    result = generate_goal_driven(
        catalog,
        START,
        brandeis_major_goal(),
        END,
        obs=Observability(decisions=recorder),
    )
    return result, recorder.report()


class TestExplainReport:
    def test_goal_decisions_match_path_count(self, recorded):
        result, report = recorded
        assert report.counts_by_kind()["goal"] == result.path_count

    def test_attribution_reproduces_counters(self, recorded):
        result, report = recorded
        assert report.attribution() == result.pruning_stats.as_dict()

    def test_attribution_shares_match_table1_shape(self, recorded):
        _result, report = recorded
        assert report.share("time") > report.share("availability") > 0.0
        assert report.share("time") + report.share("availability") == pytest.approx(1.0)

    def test_subtree_attribution_excludes_floor(self, recorded):
        _result, report = recorded
        subtree = report.attribution(include_selection_floor=False)
        full = report.attribution(include_selection_floor=True)
        assert subtree["time"] < full["time"]
        assert subtree["availability"] == full["availability"]

    def test_prune_events_carry_bound_values(self, recorded):
        _result, report = recorded
        fired = [e.firing_verdict for e in report.pruned()]
        assert all(v is not None for v in fired)
        time_verdicts = [v for v in fired if v["strategy"] == "time"]
        assert time_verdicts
        for verdict in time_verdicts:
            detail = verdict["detail"]
            assert detail["min_i"] > detail["m"]
            assert {"left_i", "min_i", "m", "semesters_after_this"} <= set(detail)

    def test_near_misses_sorted_by_slack(self, recorded):
        _result, report = recorded
        near = report.near_misses(max_slack=1.0)
        assert near
        slacks = [
            e.firing_verdict["detail"].get(
                "slack", e.firing_verdict["detail"].get("shortfall")
            )
            for e in near
        ]
        assert slacks == sorted(slacks)
        assert all(s <= 1.0 for s in slacks)

    def test_lineage_walks_to_root(self, recorded):
        _result, report = recorded
        event = report.pruned()[0]
        chain = report.lineage(event.node_id)
        assert chain[-1] is event
        assert chain[0].parent_id is None
        for parent, child in zip(chain, chain[1:]):
            assert child.parent_id == parent.node_id

    def test_why_not_returned_course(self, recorded, catalog):
        _result, report = recorded
        answer = report.why_not("COSI 11a")  # core course: in every path
        assert answer.was_returned
        assert answer.returned_in > 0
        assert "returned in" in answer.render()

    def test_why_not_pruned_course(self, recorded):
        _result, report = recorded
        # find a course no goal event completed
        returned = set()
        for event in report.events:
            if event.kind == "goal":
                returned |= set(event.completed)
        candidates = set()
        for event in report.pruned():
            candidates |= set(
                event.firing_verdict["detail"].get("unavailable_goal_courses", [])
            )
        missing = sorted(candidates - returned)
        assert missing, "expected at least one never-returned course"
        answer = report.why_not(missing[0])
        assert not answer.was_returned
        assert answer.blockers
        rendered = answer.render(limit=2)
        assert "never returned" in rendered
        assert missing[0] in rendered

    def test_as_dict_is_json_serializable(self, recorded):
        _result, report = recorded
        data = json.loads(json.dumps(report.as_dict(max_pruned=3)))
        assert data["decisions"]["total"] == len(report.events)
        assert len(data["pruned"]) == 3
        assert data["attribution"]["with_selection_floor"] == report.attribution()


class TestJsonlRoundTrip:
    def test_file_report_matches_in_memory(self, catalog, tmp_path):
        path = tmp_path / "audit.jsonl"
        recorder = DecisionRecorder(sinks=[JsonlSink(str(path))])
        generate_goal_driven(
            catalog,
            START,
            brandeis_major_goal(),
            END,
            obs=Observability(decisions=recorder),
        )
        recorder.close()
        loaded = load_decision_events(str(path))
        assert loaded == recorder.events
        from_file = ExplainReport.from_jsonl(str(path))
        in_memory = recorder.report()
        assert from_file.counts_by_kind() == in_memory.counts_by_kind()
        assert from_file.attribution() == in_memory.attribution()

    def test_loader_skips_foreign_lines(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        event = DecisionEvent(kind="goal", node_id=1, parent_id=None, term="Fall 2013")
        path.write_text(
            json.dumps({"name": "span", "duration": 0.1}) + "\n"
            + "\n"
            + json.dumps(event.as_dict()) + "\n"
        )
        assert load_decision_events(str(path)) == [event]


# ---------------------------------------------------------------------------
# engine integration: recording must not change results


class TestRecordingEquivalence:
    def test_goal_driven_paths_unchanged(self, fig3_catalog):
        plain = generate_goal_driven(fig3_catalog, F11, GOAL, F12)
        recorder = DecisionRecorder()
        recorded = generate_goal_driven(
            fig3_catalog, F11, GOAL, F12, obs=Observability(decisions=recorder)
        )
        assert {p.selections for p in plain.paths()} == {
            p.selections for p in recorded.paths()
        }
        assert plain.pruning_stats.as_dict() == recorded.pruning_stats.as_dict()
        assert len(recorder) > 0

    def test_goal_driven_brandeis_paths_unchanged(self, catalog):
        goal = brandeis_major_goal()
        plain = generate_goal_driven(catalog, START, goal, END)
        recorder = DecisionRecorder()
        recorded = generate_goal_driven(
            catalog, START, goal, END, obs=Observability(decisions=recorder)
        )
        assert plain.path_count == recorded.path_count
        assert {p.selections for p in plain.paths()} == {
            p.selections for p in recorded.paths()
        }

    def test_ranked_paths_unchanged(self, catalog):
        goal = brandeis_major_goal()
        plain = generate_ranked(catalog, START, goal, END, k=3, ranking=TimeRanking())
        recorder = DecisionRecorder()
        recorded = generate_ranked(
            catalog, START, goal, END, k=3, ranking=TimeRanking(),
            obs=Observability(decisions=recorder),
        )
        assert [p.selections for p in plain.paths] == [
            p.selections for p in recorded.paths
        ]
        report = recorder.report()
        assert report.counts_by_kind()["goal"] >= 3
        # ranked search assigns explain-only ids with intact parent linkage
        for event in report.pruned():
            assert report.lineage(event.node_id)[0].parent_id is None

    def test_frontier_counts_unchanged(self, catalog):
        goal = brandeis_major_goal()
        plain = frontier_count_goal_paths(catalog, START, goal, END)
        recorder = DecisionRecorder()
        recorded = frontier_count_goal_paths(
            catalog, START, goal, END, obs=Observability(decisions=recorder)
        )
        assert plain.path_count == recorded.path_count
        report = recorder.report()
        # merged-DP events carry state multiplicity instead of parentage
        assert report.counts_by_kind()["goal"] >= 1
        for event in report.events:
            assert event.parent_id is None
            assert "multiplicity" in event.detail

    def test_deadline_tree_records_one_decision_per_node(self, catalog):
        start = Term(2014, "Fall")
        plain = generate_deadline_driven(catalog, start, END)
        recorder = DecisionRecorder()
        recorded = generate_deadline_driven(
            catalog, start, END, obs=Observability(decisions=recorder)
        )
        assert recorded.path_count == plain.path_count
        counts = recorder.report().counts_by_kind()
        assert sum(counts.values()) == recorded.graph.num_nodes
        assert counts["deadline"] + counts.get("dead_end", 0) == recorded.path_count

    def test_navigator_threads_recorder(self, catalog):
        recorder = DecisionRecorder()
        obs = Observability(decisions=recorder)
        navigator = CourseNavigator(catalog, obs=obs)
        assert navigator.observability is obs
        result = navigator.explore_goal(START, brandeis_major_goal(), END)
        assert recorder.report().counts_by_kind()["goal"] == result.path_count


# ---------------------------------------------------------------------------
# CLI surface


class TestExplainCli:
    def _fig3_args(self, tmp_path, fig3_catalog):
        from repro.parsing import save_catalog

        path = tmp_path / "cat.json"
        save_catalog(fig3_catalog, path)
        return [
            "--catalog", str(path),
            "--start", "Fall 2011",
            "--end", "Fall 2012",
            "--goal-courses", "11A", "29A", "21A",
        ]

    def test_explain_subcommand_names_bounds(self, capsys, tmp_path, fig3_catalog):
        from repro.system.cli import main

        code = main(["explain", *self._fig3_args(tmp_path, fig3_catalog), "-m", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Strategy attribution" in out
        assert "pruned by" in out
        assert "left_i=" in out and "min_i=" in out and "m=" in out

    def test_explain_subcommand_json_and_out(self, capsys, tmp_path, fig3_catalog):
        from repro.system.cli import main

        audit = tmp_path / "audit.jsonl"
        code = main([
            "explain", *self._fig3_args(tmp_path, fig3_catalog),
            "--json", "--out", str(audit), "--why", "21A",
        ])
        captured = capsys.readouterr()
        assert code == 0
        data = json.loads(captured.out)
        assert data["decisions"]["total"] == len(load_decision_events(str(audit)))
        assert data["why_not"]["course"] == "21A"
        assert "decision audit written to" in captured.err

    def test_goal_explain_flag_writes_jsonl(self, capsys, tmp_path, fig3_catalog):
        from repro.system.cli import main

        audit = tmp_path / "audit.jsonl"
        code = main([
            "goal", *self._fig3_args(tmp_path, fig3_catalog),
            "--explain", str(audit),
        ])
        captured = capsys.readouterr()
        assert code == 0
        report = ExplainReport.from_jsonl(str(audit))
        assert report.counts_by_kind()["goal"] >= 1
        assert f"decision audit written to {audit}" in captured.err

    def test_ranked_explain_flag_writes_jsonl(self, capsys, tmp_path, fig3_catalog):
        from repro.system.cli import main

        audit = tmp_path / "audit.jsonl"
        code = main([
            "ranked", *self._fig3_args(tmp_path, fig3_catalog),
            "-k", "1", "--explain", str(audit),
        ])
        assert code == 0
        capsys.readouterr()
        assert load_decision_events(str(audit))
