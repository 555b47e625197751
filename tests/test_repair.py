"""Tests for plan repair after schedule disruptions."""

import pytest

from repro.analysis import replan
from repro.core import ExplorationConfig, TimeRanking, generate_ranked
from repro.data import brandeis_catalog, brandeis_major_goal, start_term_for_semesters
from repro.data.brandeis import EVALUATION_END_TERM
from repro.errors import BudgetExceededError, ExplorationError
from repro.requirements import CourseSetGoal
from repro.semester import Term

from .conftest import F11, F12, S12, S13

GOAL = CourseSetGoal({"11A", "29A", "21A"})


@pytest.fixture
def original(fig3_catalog):
    """The 2-semester plan: {11A, 29A} in Fall '11, {21A} in Spring '12."""
    return generate_ranked(fig3_catalog, F11, GOAL, S13, 1, TimeRanking()).paths[0]


class TestReplanOnFig3:
    def test_losing_the_last_course_delays_nothing_possible(self, fig3_catalog, original):
        # 21A (Spring '12 only) falls through: no offering remains before
        # Spring '13 — unrecoverable.
        result = replan(
            fig3_catalog, GOAL, original,
            disrupted_term=S12, deadline=S13,
        )
        assert not result.recoverable
        assert result.repaired is None
        assert "no plan" in result.describe()

    def test_losing_one_intro_recovers_with_delay(self, fig3_catalog, original):
        # Fall '11's {11A, 29A} partially falls through: 29A dropped.
        # 29A returns in Fall '12, so the goal completes by Spring '13.
        result = replan(
            fig3_catalog, GOAL, original,
            disrupted_term=F11, deadline=S13,
            dropped_courses={"29A"},
        )
        assert result.recoverable
        assert result.repaired.end.term <= S13
        assert "29A" in result.repaired.courses_taken()
        # Original finished Fall '12; repaired needs Spring '13.
        assert result.delay_semesters == 1
        assert "delay" in result.describe()

    def test_dropped_courses_default_to_whole_selection(self, fig3_catalog, original):
        result = replan(
            fig3_catalog, GOAL, original,
            disrupted_term=F11, deadline=S13,
        )
        # Everything from Fall '11 must be retaken in Fall '12; 21A then
        # has no remaining offering -> unrecoverable.
        assert not result.recoverable

    def test_completed_part_of_selection_counts(self, fig3_catalog, original):
        result = replan(
            fig3_catalog, GOAL, original,
            disrupted_term=F11, deadline=S13,
            dropped_courses={"29A"},
        )
        # 11A completed as planned: never retaken.
        repaired_selections = [c for sel in result.repaired.selections for c in sel]
        assert "11A" not in repaired_selections

    def test_avoid_dropped_blocks_retake(self, fig3_catalog, original):
        result = replan(
            fig3_catalog, CourseSetGoal({"11A", "21A"}), original,
            disrupted_term=F11, deadline=S13,
            dropped_courses={"29A"},
            avoid_dropped=True,
        )
        assert result.recoverable
        assert "29A" not in result.repaired.courses_taken()

    @pytest.mark.parametrize(
        "config, kind",
        [
            (ExplorationConfig(max_nodes=1), "nodes"),
            (ExplorationConfig(max_wall_seconds=0.0), "wall seconds"),
        ],
    )
    def test_avoid_dropped_keeps_the_run_limits(self, fig3_catalog, original, config, kind):
        with pytest.raises(BudgetExceededError) as info:
            replan(
                fig3_catalog, CourseSetGoal({"11A", "21A"}), original,
                disrupted_term=F11, deadline=S13,
                dropped_courses={"29A"},
                avoid_dropped=True,
                config=config,
            )
        assert info.value.kind == kind

    def test_unplanned_term_rejected(self, fig3_catalog, original):
        with pytest.raises(ExplorationError, match="not a planned term"):
            replan(fig3_catalog, GOAL, original, Term(2014, "Fall"), S13)

    def test_unplanned_drop_rejected(self, fig3_catalog, original):
        with pytest.raises(ExplorationError, match="not planned"):
            replan(
                fig3_catalog, GOAL, original, F11, S13,
                dropped_courses={"21A"},
            )

    def test_alternatives_ranked(self, fig3_catalog, original):
        result = replan(
            fig3_catalog, GOAL, original,
            disrupted_term=F11, deadline=S13,
            dropped_courses={"29A"}, k=5,
        )
        assert result.alternatives.costs == sorted(result.alternatives.costs)


class TestReplanOnBrandeis:
    def test_midstream_cancellation_recovers(self):
        # A 6-semester horizon leaves two slack terms behind the fastest
        # 4-term plan, so losing one course mid-plan is absorbable.
        catalog = brandeis_catalog()
        goal = brandeis_major_goal()
        start = start_term_for_semesters(6)
        original = generate_ranked(
            catalog, start, goal, EVALUATION_END_TERM, 1, TimeRanking()
        ).paths[0]
        disrupted = original.statuses[1].term
        lost_course = sorted(original.selections[1])[0]
        result = replan(
            catalog, goal, original, disrupted, EVALUATION_END_TERM,
            dropped_courses={lost_course}, k=2,
        )
        assert result.recoverable
        assert goal.is_satisfied(result.repaired.end.completed)
        assert result.repaired.end.term <= EVALUATION_END_TERM

    def test_zero_slack_full_term_loss_is_unrecoverable(self):
        # On the tight 5-semester plan, losing an entire semester leaves
        # 11 courses for 3 terms at m=3 — provably impossible.
        catalog = brandeis_catalog()
        goal = brandeis_major_goal()
        start = start_term_for_semesters(5)
        original = generate_ranked(
            catalog, start, goal, EVALUATION_END_TERM, 1, TimeRanking()
        ).paths[0]
        disrupted = original.statuses[1].term
        result = replan(
            catalog, goal, original, disrupted, EVALUATION_END_TERM, k=2
        )
        assert not result.recoverable
