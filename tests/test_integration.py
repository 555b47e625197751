"""End-to-end integration tests: registrar text to report, in one flow."""

import io
import json

import pytest

from repro import CourseNavigator, CourseSetGoal, Term
from repro.analysis import check_containment, diff_paths, summarize_paths
from repro.catalog import lint_catalog
from repro.core import ExplorationConfig, TimeRanking, generate_ranked
from repro.data import simulate_transcripts
from repro.graph.export import graph_to_json
from repro.parsing import build_catalog_from_registrar, load_catalog, save_catalog
from repro.system import PlanningSession, build_goal_report, write_paths_jsonl


COURSE_DESCRIPTIONS = {
    "CS 1": "",
    "CS 2": "CS 1",
    "MATH 1": "none",
    "CS 3": "CS 2 and MATH 1",
    "CS 4": "CS 2 or MATH 1",
    "CS 9": "2 OF [CS 3, CS 4, MATH 1]",
}

SCHEDULE_TEXT = """
CS 1:   Fall 2020, Spring 2021, Fall 2021
CS 2:   Spring 2021, Fall 2021
MATH 1: Fall 2020, Fall 2021
CS 3:   Spring 2022
CS 4:   Fall 2021, Spring 2022
CS 9:   Spring 2022
"""

F20, S21, F21, S22, F22 = (
    Term(2020, "Fall"),
    Term(2021, "Spring"),
    Term(2021, "Fall"),
    Term(2022, "Spring"),
    Term(2022, "Fall"),
)


@pytest.fixture(scope="module")
def catalog():
    return build_catalog_from_registrar(COURSE_DESCRIPTIONS, SCHEDULE_TEXT)


class TestFullPipeline:
    def test_lint_is_clean(self, catalog):
        assert [i for i in lint_catalog(catalog) if i.severity == "error"] == []

    def test_roundtrip_then_explore(self, catalog, tmp_path):
        path = tmp_path / "catalog.json"
        save_catalog(catalog, path)
        navigator = CourseNavigator(load_catalog(path))
        goal = CourseSetGoal({"CS 9"})
        result = navigator.explore_goal(F20, goal, F22)
        assert result.path_count > 0
        # Every path is a valid transcript by the containment checker.
        report = navigator.check_transcripts(
            list(result.paths()), goal, F22
        )
        assert report.all_contained

    def test_ranked_report_export_chain(self, catalog, tmp_path):
        navigator = CourseNavigator(catalog)
        goal = CourseSetGoal({"CS 9"})
        result = navigator.explore_goal(F20, goal, F22)
        ranked = generate_ranked(catalog, F20, goal, F22, 2, TimeRanking())
        report = build_goal_report(catalog, goal, F20, F22, result, ranked=ranked)
        assert "learning paths satisfy the goal" in report
        assert "[1] time cost" in report

        # Graph JSON export is loadable and structurally sane.
        data = graph_to_json(result.graph)
        encoded = json.dumps(data)
        assert json.loads(encoded)["kind"] == "tree"

        # Path JSONL export round-trips the plan steps.
        buffer = io.StringIO()
        written = write_paths_jsonl(result.paths(), buffer)
        assert written == result.path_count
        first = json.loads(buffer.getvalue().splitlines()[0])
        assert first["final_completed"]

    def test_session_walkthrough_matches_ranked_best(self, catalog):
        navigator = CourseNavigator(catalog)
        goal = CourseSetGoal({"CS 9"})
        ranked = generate_ranked(catalog, F20, goal, F22, 1, TimeRanking())
        best = ranked.paths[0]

        session = PlanningSession(navigator, goal, F20, F22)
        for _term, selection in best:
            session.take(*selection)
        assert session.goal_satisfied()
        replay = session.path_so_far()
        assert diff_paths(best, replay).identical

    def test_simulated_cohort_statistics(self, catalog):
        goal = CourseSetGoal({"CS 9"})
        body = simulate_transcripts(
            catalog, goal, F20, F22, count=12, seed=9,
            config=ExplorationConfig(max_courses_per_term=2),
        )
        report = check_containment(
            catalog, goal, body.paths, F22,
            config=ExplorationConfig(max_courses_per_term=2),
        )
        assert report.all_contained
        summary = summarize_paths(body.paths, catalog)
        assert summary.count == 12
        assert summary.min_length >= 2  # CS 9 needs a prerequisite chain

    def test_avoid_list_respected_throughout(self, catalog):
        navigator = CourseNavigator(catalog)
        goal = CourseSetGoal({"CS 9"})
        # Avoid CS 3: CS 9 needs 2 of [CS 3, CS 4, MATH 1] — still feasible.
        config = ExplorationConfig(avoid_courses={"CS 3"})
        result = navigator.explore_goal(F20, goal, F22, config=config)
        assert result.path_count > 0
        for path in result.paths():
            assert "CS 3" not in path.courses_taken()

    def test_determinism_across_runs(self, catalog):
        navigator = CourseNavigator(catalog)
        goal = CourseSetGoal({"CS 9"})
        first = [p.selections for p in navigator.explore_goal(F20, goal, F22).paths()]
        second = [p.selections for p in navigator.explore_goal(F20, goal, F22).paths()]
        assert first == second
