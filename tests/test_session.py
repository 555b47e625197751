"""Tests for the interactive PlanningSession."""

import pytest

from repro.cache import ExplorationCache
from repro.core import ExplorationConfig
from repro.errors import ExplorationError
from repro.obs import DecisionRecorder, Observability, ProgressTracker
from repro.requirements import CourseSetGoal
from repro.system import CourseNavigator, PlanningSession

from .conftest import F11, F12, S12, S13

GOAL = CourseSetGoal({"11A", "29A", "21A"})


@pytest.fixture
def session(fig3_catalog):
    return PlanningSession(
        CourseNavigator(fig3_catalog), GOAL, F11, S13
    )


class TestSessionState:
    def test_initial_state(self, session, fig3_catalog):
        assert session.term == F11
        assert session.completed == frozenset()
        assert session.options() == {"11A", "29A"}
        assert session.semesters_left == 3
        assert session.catalog is fig3_catalog
        assert session.goal is GOAL
        assert not session.goal_satisfied()

    def test_deadline_before_start_rejected(self, fig3_catalog):
        with pytest.raises(ExplorationError):
            PlanningSession(CourseNavigator(fig3_catalog), GOAL, S13, F11)

    def test_path_so_far_empty(self, session):
        path = session.path_so_far()
        assert len(path) == 0
        assert path.start.term == F11

    def test_legal_selections_match_fig3(self, session):
        legal = set(session.legal_selections())
        assert legal == {
            frozenset({"11A"}),
            frozenset({"29A"}),
            frozenset({"11A", "29A"}),
        }


class TestTransitions:
    def test_take_advances(self, session):
        status = session.take("11A", "29A")
        assert status.term == S12
        assert session.completed == {"11A", "29A"}
        assert session.options() == {"21A"}
        assert session.semesters_left == 2

    def test_illegal_take_rejected(self, session):
        with pytest.raises(ExplorationError, match="not a legal move"):
            session.take("21A")  # prerequisite unmet

    def test_take_past_deadline_rejected(self, session):
        session.take("11A")   # Fall '11 -> Spring '12
        session.take("21A")   # Spring '12 -> Fall '12
        session.take("29A")   # Fall '12 -> Spring '13 (the deadline)
        assert session.term == S13
        with pytest.raises(ExplorationError, match="deadline"):
            session.take()

    def test_skip_term_when_legal(self, session):
        session.take("29A")
        # Spring '12: X={29A}, no options, 11A returns in Fall — skip legal.
        status = session.skip_term()
        assert status.term == F12
        assert session.options() == {"11A"}

    def test_skip_when_options_exist_rejected(self, session):
        with pytest.raises(ExplorationError):
            session.skip_term()

    def test_undo(self, session):
        session.take("11A")
        session.take("21A")
        assert session.completed == {"11A", "21A"}
        session.undo()
        assert session.completed == {"11A"}
        session.undo()
        assert session.completed == frozenset()
        with pytest.raises(ExplorationError, match="nothing to undo"):
            session.undo()

    def test_path_so_far_tracks_history(self, session):
        session.take("11A", "29A")
        session.take("21A")
        path = session.path_so_far()
        assert path.selections == (frozenset({"11A", "29A"}), frozenset({"21A"}))
        assert GOAL.is_satisfied(path.end.completed)
        assert session.goal_satisfied()


class TestQueries:
    def test_audit_reports_progress(self, session):
        session.take("11A")
        report = session.audit()
        assert not report.satisfied
        assert report.remaining_courses == 2

    def test_routes_remaining(self, session):
        # From the start, two goal routes exist by Spring '13 (Fig. 3).
        assert session.routes_remaining() == 2
        session.take("11A", "29A")
        assert session.routes_remaining() == 1

    def test_preview_does_not_mutate(self, session):
        preview = session.preview("11A", "29A")
        assert session.completed == frozenset()
        assert preview.routes_remaining == 1
        assert preview.next_term_options == {"21A"}
        assert not preview.goal_satisfied

    def test_preview_illegal_selection(self, session):
        with pytest.raises(ExplorationError):
            session.preview("21A")

    def test_preview_goal_satisfying_move(self, session):
        session.take("11A", "29A")
        preview = session.preview("21A")
        assert preview.goal_satisfied
        assert "goal satisfied" in preview.describe()

    def test_preview_all_sorted_by_openness(self, session):
        previews = session.preview_all()
        assert len(previews) == 3
        routes = [p.routes_remaining for p in previews]
        assert routes == sorted(routes, reverse=True)
        # Taking both intro courses keeps the only 2-semester route alive
        # AND the slow route? It forecloses the wait-for-11A route.
        best = previews[0]
        assert best.routes_remaining >= previews[-1].routes_remaining

    def test_preview_describe_counts(self, session):
        preview = session.preview("29A")
        text = preview.describe()
        assert "29A" in text
        assert "routes" in text

    def test_best_plans(self, session):
        result = session.best_plans(k=2, ranking="time")
        assert len(result.paths) == 2
        assert result.costs[0] == 2.0

    def test_best_plans_after_progress(self, session):
        session.take("11A", "29A")
        result = session.best_plans(k=1)
        assert result.costs == [1.0]

    def test_repr(self, session):
        text = repr(session)
        assert "Fall 2011" in text

    def test_routes_decompose_over_selections(self, session):
        """A status's route count equals the sum over its legal selections
        of the child route counts (goal-satisfying children count 1) —
        the invariant that makes preview_all's numbers trustworthy."""
        total = session.routes_remaining()
        decomposed = 0
        for preview in session.preview_all():
            decomposed += 1 if preview.goal_satisfied else preview.routes_remaining
        assert decomposed == total

    def test_routes_decompose_on_random_catalogs(self):
        from repro.data import GeneratorSettings, random_catalog, random_course_set_goal
        from repro.semester import Term

        for seed in range(6):
            catalog = random_catalog(
                seed, GeneratorSettings(n_courses=5, n_terms=3, offer_probability=0.7)
            )
            goal = random_course_set_goal(catalog, seed, size=2)
            start = Term(2011, "Fall")
            session = PlanningSession(
                CourseNavigator(catalog), goal, start, start + 3,
                config=ExplorationConfig(max_courses_per_term=2),
            )
            if session.goal_satisfied():
                continue
            total = session.routes_remaining()
            decomposed = sum(
                1 if p.goal_satisfied else p.routes_remaining
                for p in session.preview_all()
            )
            assert decomposed == total, f"seed {seed}"


class TestSessionWithConfig:
    def test_constraints_respected(self, fig3_catalog):
        from repro.core import ForbiddenCombination

        config = ExplorationConfig(
            constraints=(ForbiddenCombination({"11A", "29A"}),)
        )
        session = PlanningSession(
            CourseNavigator(fig3_catalog), GOAL, F11, S13, config=config
        )
        legal = set(session.legal_selections())
        assert frozenset({"11A", "29A"}) not in legal
        with pytest.raises(ExplorationError):
            session.take("11A", "29A")

    def test_starting_with_completed_courses(self, fig3_catalog):
        session = PlanningSession(
            CourseNavigator(fig3_catalog), GOAL, S12, S13, completed={"11A", "29A"}
        )
        assert session.options() == {"21A"}
        session.take("21A")
        assert session.goal_satisfied()


class TestSessionThroughNavigator:
    """Route counts run through the navigator: its bundle and its cache."""

    def test_counts_report_into_the_navigators_bundle(self, fig3_catalog):
        recorder, tracker = DecisionRecorder(), ProgressTracker()
        navigator = CourseNavigator(
            fig3_catalog, obs=Observability(decisions=recorder, progress=tracker)
        )
        session = PlanningSession(navigator, GOAL, F11, S13)
        routes = session.routes_remaining()
        snapshot = tracker.snapshot()
        assert (snapshot.run, snapshot.finished) == ("frontier_goal", True)
        assert snapshot.paths_emitted == routes
        recorded = len(recorder)
        assert recorded
        preview = session.preview("11A")
        assert not preview.goal_satisfied
        snapshot = tracker.snapshot()
        assert (snapshot.run, snapshot.finished) == ("frontier_goal", True)
        assert snapshot.paths_emitted == preview.routes_remaining
        assert len(recorder) > recorded

    def test_cached_counts_equal_uncached(self, fig3_catalog):
        cache = ExplorationCache()
        plain = PlanningSession(CourseNavigator(fig3_catalog), GOAL, F11, S13)
        cached = PlanningSession(
            CourseNavigator(fig3_catalog, cache=cache), GOAL, F11, S13
        )
        assert cached.routes_remaining() == plain.routes_remaining()
        assert [p.routes_remaining for p in cached.preview_all()] == [
            p.routes_remaining for p in plain.preview_all()
        ]
        assert cache.counter_totals()["flow"]["misses"]
