"""Tests for the extra ranking functions."""

import pytest

from repro.core import (
    CompositeRanking,
    CourseCountRanking,
    ExplorationConfig,
    SpreadPenaltyRanking,
    TimeRanking,
    WorkloadRanking,
    generate_goal_driven,
    generate_ranked,
)
from repro.errors import ExplorationError
from repro.requirements import CourseSetGoal, DegreeGoal, RequirementGroup

from .conftest import F11, F12, S12, S13

GOAL = CourseSetGoal({"11A", "29A", "21A"})


class TestCompositeRanking:
    def test_weighted_sum_edge_cost(self, fig3_catalog):
        ranking = CompositeRanking(
            [(1.0, TimeRanking()), (0.1, WorkloadRanking(fig3_catalog))]
        )
        # edge {11A, 29A}: 1.0 * 1 + 0.1 * 20 = 3.0
        assert ranking.edge_cost(frozenset({"11A", "29A"}), F11) == pytest.approx(3.0)

    def test_bound_is_weighted_sum(self, fig3_catalog):
        ranking = CompositeRanking(
            [(1.0, TimeRanking()), (1.0, WorkloadRanking(fig3_catalog))]
        )
        config = ExplorationConfig()
        bound = ranking.remaining_cost_bound(frozenset(), GOAL, config)
        time_bound = TimeRanking().remaining_cost_bound(frozenset(), GOAL, config)
        workload_bound = WorkloadRanking(fig3_catalog).remaining_cost_bound(
            frozenset(), GOAL, config
        )
        assert bound == pytest.approx(time_bound + workload_bound)

    def test_topk_matches_bruteforce(self, fig3_catalog):
        ranking = CompositeRanking(
            [(1.0, TimeRanking()), (0.01, WorkloadRanking(fig3_catalog))]
        )
        everything = generate_goal_driven(fig3_catalog, F11, GOAL, S13, pruners=[])
        brute = sorted(ranking.path_cost(p) for p in everything.paths())
        result = generate_ranked(fig3_catalog, F11, GOAL, S13, len(brute), ranking)
        assert [pytest.approx(c) for c in brute] == result.costs

    def test_needs_components(self):
        with pytest.raises(ExplorationError):
            CompositeRanking([])

    def test_negative_weight_rejected(self):
        with pytest.raises(ExplorationError):
            CompositeRanking([(-1.0, TimeRanking())])

    def test_non_ranking_component_rejected(self):
        with pytest.raises(ExplorationError):
            CompositeRanking([(1.0, "time")])

    def test_name_reflects_components(self, fig3_catalog):
        ranking = CompositeRanking(
            [(1.0, TimeRanking()), (0.5, WorkloadRanking(fig3_catalog))]
        )
        assert "time" in ranking.name and "workload" in ranking.name


class TestCourseCountRanking:
    def test_edge_cost(self):
        ranking = CourseCountRanking()
        assert ranking.edge_cost(frozenset({"A", "B"}), F11) == 2.0
        assert ranking.edge_cost(frozenset(), F11) == 0.0

    def test_prefers_minimum_course_plans(self, fig3_catalog):
        # Goal: either all of {11A, 29A} or just 21A's chain — use an
        # overlapping degree goal where wasted courses are possible.
        goal = DegreeGoal(
            (RequirementGroup("any", {"11A", "29A", "21A"}, 2),)
        )
        result = generate_ranked(
            fig3_catalog, F11, goal, S13, 1, CourseCountRanking()
        )
        assert result.costs[0] == 2.0  # exactly two courses, no waste

    def test_bound_equals_left(self, fig3_catalog):
        bound = CourseCountRanking().remaining_cost_bound(
            frozenset({"11A"}), GOAL, ExplorationConfig()
        )
        assert bound == 2  # 29A and 21A still needed

    def test_topk_matches_bruteforce(self, fig3_catalog):
        ranking = CourseCountRanking()
        everything = generate_goal_driven(fig3_catalog, F11, GOAL, S13, pruners=[])
        brute = sorted(ranking.path_cost(p) for p in everything.paths())
        result = generate_ranked(fig3_catalog, F11, GOAL, S13, len(brute), ranking)
        assert result.costs == brute


class TestSpreadPenaltyRanking:
    def test_on_target_semester_costs_zero(self, fig3_catalog):
        ranking = SpreadPenaltyRanking(fig3_catalog, target_hours=20.0)
        assert ranking.edge_cost(frozenset({"11A", "29A"}), F11) == 0.0  # 20h
        assert ranking.edge_cost(frozenset({"11A"}), F11) == 100.0  # (10-20)^2

    def test_prefers_even_loads(self, fig3_catalog):
        # Target 10h/term: the one-course-per-term path is perfectly flat.
        ranking = SpreadPenaltyRanking(fig3_catalog, target_hours=10.0)
        result = generate_ranked(fig3_catalog, F11, GOAL, S13, 1, ranking)
        best = result.paths[0]
        assert all(len(sel) == 1 for sel in best.selections)
        assert result.costs[0] == 0.0

    def test_negative_target_rejected(self, fig3_catalog):
        with pytest.raises(ExplorationError):
            SpreadPenaltyRanking(fig3_catalog, -5)

    def test_topk_matches_bruteforce(self, fig3_catalog):
        ranking = SpreadPenaltyRanking(fig3_catalog, target_hours=15.0)
        everything = generate_goal_driven(fig3_catalog, F11, GOAL, S13, pruners=[])
        brute = sorted(ranking.path_cost(p) for p in everything.paths())
        result = generate_ranked(fig3_catalog, F11, GOAL, S13, len(brute), ranking)
        assert result.costs == pytest.approx(brute)
