"""Edge-case and failure-injection tests across the core stack."""

import pytest

from repro.catalog import Catalog, Course, Schedule
from repro.catalog.prereq import CourseReq
from repro.core import (
    ExplorationConfig,
    TimeRanking,
    frontier_count_goal_paths,
    generate_deadline_driven,
    generate_goal_driven,
    generate_ranked,
)
from repro.errors import BudgetExceededError
from repro.requirements import CourseSetGoal, DegreeGoal, RequirementGroup
from repro.semester import AcademicCalendar, Term

from .conftest import F11, F12, S12, S13

GOAL = CourseSetGoal({"11A", "29A", "21A"})


class TestEmptySelectionPolicies:
    def test_never_policy_dead_ends_waiting_nodes(self, fig3_catalog):
        config = ExplorationConfig(empty_selection="never")
        result = generate_deadline_driven(fig3_catalog, F11, S13, config=config)
        # The n4 branch ({29A} then wait) now dead-ends immediately: still
        # three maximal paths, but none contains an empty selection and
        # the {29A} branch stops after one semester.
        assert result.path_count == 3
        plans = {p.selections for p in result.paths()}
        assert (frozenset({"29A"}),) in plans
        for path in result.paths():
            assert frozenset() not in path.selections

    def test_always_policy_adds_waiting_paths(self, fig3_catalog):
        config = ExplorationConfig(empty_selection="always")
        result = generate_deadline_driven(fig3_catalog, F11, S13, config=config)
        baseline = generate_deadline_driven(fig3_catalog, F11, S13)
        assert result.path_count > baseline.path_count

    def test_policies_agree_on_goal_reachability(self, fig3_catalog):
        for policy in ("auto", "always"):
            config = ExplorationConfig(empty_selection=policy)
            result = generate_goal_driven(
                fig3_catalog, F11, GOAL, S13, config=config
            )
            assert result.path_count >= 2


class TestSingleSeasonCalendar:
    def test_one_term_per_year_catalog(self):
        yearly = AcademicCalendar(("Annual",))
        t0 = Term(2020, "Annual", yearly)
        catalog = Catalog(
            [Course("A"), Course("B", prereq=CourseReq("A"))],
            schedule=Schedule({"A": {t0, t0 + 1}, "B": {t0 + 1, t0 + 2}}),
        )
        result = generate_goal_driven(
            catalog, t0, CourseSetGoal({"A", "B"}), t0 + 2
        )
        assert result.path_count == 1
        path = next(result.paths())
        assert path.selections == (frozenset({"A"}), frozenset({"B"}))


class TestBudgets:
    def test_budget_error_reports_kind_and_limit(self, fig3_catalog):
        with pytest.raises(BudgetExceededError) as excinfo:
            generate_deadline_driven(
                fig3_catalog, F11, S13, config=ExplorationConfig(max_nodes=4)
            )
        assert excinfo.value.kind == "nodes"
        assert excinfo.value.limit == 4
        assert excinfo.value.observed >= 4

    def test_exact_budget_fits(self, fig3_catalog):
        # Fig. 3 builds 9 nodes: a budget of 9 must succeed.
        result = generate_deadline_driven(
            fig3_catalog, F11, S13, config=ExplorationConfig(max_nodes=9)
        )
        assert result.graph.num_nodes == 9

    def test_dag_budget(self, fig3_catalog):
        # The frontier bounds the distinct statuses of the merged DAG.
        with pytest.raises(BudgetExceededError) as excinfo:
            frontier_count_goal_paths(
                fig3_catalog, F11, GOAL, S13, config=ExplorationConfig(max_nodes=2)
            )
        assert (excinfo.value.kind, excinfo.value.observed) == ("nodes", 3)

    def test_frontier_budget_is_clean_failure(self, fig3_catalog):
        with pytest.raises(BudgetExceededError) as excinfo:
            frontier_count_goal_paths(
                fig3_catalog, F11, GOAL, S13, max_frontier=1
            )
        assert excinfo.value.kind == "frontier states"


class TestDeterminism:
    def test_deadline_graph_structure_stable(self, fig3_catalog):
        a = generate_deadline_driven(fig3_catalog, F11, S13)
        b = generate_deadline_driven(fig3_catalog, F11, S13)
        assert a.graph.num_nodes == b.graph.num_nodes
        for node_id in a.graph.node_ids():
            assert a.graph.status(node_id) == b.graph.status(node_id)
            assert a.graph.selection_into(node_id) == b.graph.selection_into(node_id)

    def test_ranked_tiebreaks_stable(self, fig3_catalog):
        a = generate_ranked(fig3_catalog, F11, GOAL, S13, 2, TimeRanking())
        b = generate_ranked(fig3_catalog, F11, GOAL, S13, 2, TimeRanking())
        assert [p.selections for p in a.paths] == [p.selections for p in b.paths]


class TestDegreeGoalCache:
    def test_cache_eviction_keeps_answers_correct(self, monkeypatch):
        # Overlapping groups (B counts for either), so seat counts go
        # through the matcher and its bounded LRU memo.
        monkeypatch.setattr(DegreeGoal, "_MATCH_MEMO_SIZE", 2)  # force eviction churn
        goal = DegreeGoal(
            (
                RequirementGroup("g", {"A", "B", "C"}, 2),
                RequirementGroup("h", {"B", "D"}, 1),
            )
        )
        assert not goal._disjoint
        sets = [
            frozenset(),
            frozenset({"A"}),
            frozenset({"B"}),
            frozenset({"A", "B"}),
            frozenset({"B", "D"}),
            frozenset({"A", "C", "D"}),
        ]
        expected = [3, 2, 2, 1, 1, 0]
        for completed, remaining in zip(sets, expected):
            assert goal.remaining_courses(completed) == remaining
        info = goal._seat_memo.cache_info()
        assert info.maxsize == 2 and info.currsize == 2
        misses = info.misses
        # Re-query in reverse order: answers unchanged after eviction.
        for completed, remaining in zip(reversed(sets), reversed(expected)):
            assert goal.remaining_courses(completed) == remaining
        # Only the two newest sets survived; the other four were evicted
        # and recomputed.
        assert goal._seat_memo.cache_info().misses == misses + 4


class TestAvoidListsEverywhere:
    def test_goal_driven(self, fig3_catalog):
        config = ExplorationConfig(avoid_courses=frozenset({"29A"}))
        result = generate_goal_driven(
            fig3_catalog, F11, CourseSetGoal({"11A", "21A"}), S13, config=config
        )
        for path in result.paths():
            assert "29A" not in path.courses_taken()

    def test_ranked(self, fig3_catalog):
        config = ExplorationConfig(avoid_courses=frozenset({"29A"}))
        result = generate_ranked(
            fig3_catalog, F11, CourseSetGoal({"11A", "21A"}), S13, 5,
            TimeRanking(), config=config,
        )
        for path in result.paths:
            assert "29A" not in path.courses_taken()

    def test_avoiding_a_goal_course_kills_all_paths(self, fig3_catalog):
        config = ExplorationConfig(avoid_courses=frozenset({"21A"}))
        result = generate_goal_driven(fig3_catalog, F11, GOAL, S13, config=config)
        assert result.path_count == 0

    def test_frontier_respects_avoid(self, fig3_catalog):
        config = ExplorationConfig(avoid_courses=frozenset({"21A"}))
        assert (
            frontier_count_goal_paths(
                fig3_catalog, F11, GOAL, S13, config=config
            ).path_count
            == 0
        )


class TestCompletedAtStart:
    def test_partial_credit_shrinks_search(self, fig3_catalog):
        full = generate_goal_driven(fig3_catalog, F11, GOAL, S13)
        partial = generate_goal_driven(
            fig3_catalog, F11, GOAL, S13, completed={"29A"}
        )
        assert partial.graph.num_nodes <= full.graph.num_nodes
        for path in partial.paths():
            assert "29A" not in path.courses_taken()

    def test_all_completed_single_trivial_path(self, fig3_catalog):
        result = generate_goal_driven(
            fig3_catalog, F11, GOAL, S13, completed={"11A", "29A", "21A"}
        )
        assert result.path_count == 1
        assert len(next(result.paths())) == 0
