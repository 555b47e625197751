"""Tests for frontier-DP counting over merged statuses.

Two tree nodes with the same ``(term, completed)`` key root identical
subtrees; the frontier DP walks the DAG of those merged statuses one term
layer at a time.
"""

import pytest

from repro.core import (
    ExplorationConfig,
    frontier_count_deadline_paths,
    frontier_count_goal_paths,
    generate_deadline_driven,
    generate_goal_driven,
)
from repro.data import brandeis_catalog, brandeis_major_goal, start_term_for_semesters
from repro.data.brandeis import EVALUATION_END_TERM
from repro.errors import BudgetExceededError, ExplorationError
from repro.obs import MetricsRegistry, Observability
from repro.requirements import CourseSetGoal
from repro.system import CourseNavigator

from .conftest import F11, F12, S12, S13

GOAL = CourseSetGoal({"11A", "29A", "21A"})


def _merged_hits(run):
    """``repro_merged_hits_total`` after ``run(obs)``."""
    registry = MetricsRegistry()
    run(Observability(metrics=registry))
    (value,) = (
        metric["value"]
        for metric in registry.snapshot()["metrics"]
        if metric["name"] == "repro_merged_hits_total"
    )
    return value


class TestDeadlineDagOnFig3:
    """Deadline counting over Fig. 3's merged statuses."""

    def test_count_matches_tree(self, fig3_catalog):
        tree = generate_deadline_driven(fig3_catalog, F11, S13)
        frontier = frontier_count_deadline_paths(fig3_catalog, F11, S13)
        assert frontier.path_count == tree.path_count == 3

    def test_dag_is_smaller_or_equal(self, fig3_catalog):
        tree = generate_deadline_driven(fig3_catalog, F11, S13)
        frontier = frontier_count_deadline_paths(fig3_catalog, F11, S13)
        assert frontier.total_states <= tree.graph.num_nodes

    def test_merges_recorded(self, fig3_catalog):
        # On Fig. 3 all statuses are distinct, so no merges happen.
        frontier = frontier_count_deadline_paths(fig3_catalog, F11, S13)
        assert frontier.total_states == 9
        assert _merged_hits(
            lambda obs: frontier_count_deadline_paths(fig3_catalog, F11, S13, obs=obs)
        ) == 0

    def test_convenience_wrapper(self, fig3_catalog):
        assert CourseNavigator(fig3_catalog).count_deadline(F11, S13) == 3

    def test_budget(self, fig3_catalog):
        with pytest.raises(BudgetExceededError):
            frontier_count_deadline_paths(
                fig3_catalog, F11, S13, config=ExplorationConfig(max_nodes=2)
            )

    def test_bad_horizon(self, fig3_catalog):
        with pytest.raises(ExplorationError):
            frontier_count_deadline_paths(fig3_catalog, S13, F11)


class TestGoalDagOnFig3:
    """Goal counting over Fig. 3's merged statuses."""

    def test_count_matches_tree(self, fig3_catalog):
        tree = generate_goal_driven(fig3_catalog, F11, GOAL, F12)
        frontier = frontier_count_goal_paths(fig3_catalog, F11, GOAL, F12)
        assert frontier.path_count == tree.path_count == 1

    def test_pruning_stats_propagated(self, fig3_catalog):
        frontier = frontier_count_goal_paths(fig3_catalog, F11, GOAL, F12)
        assert frontier.pruning_stats is not None
        assert frontier.pruning_stats.total >= 1

    def test_convenience_wrapper(self, fig3_catalog):
        assert CourseNavigator(fig3_catalog).count_goal(F11, GOAL, F12) == 1

    def test_no_pruners_same_count(self, fig3_catalog):
        assert frontier_count_goal_paths(
            fig3_catalog, F11, GOAL, F12
        ).path_count == frontier_count_goal_paths(
            fig3_catalog, F11, GOAL, F12, pruners=[]
        ).path_count


class TestFrontierOnFig3:
    def test_deadline_count(self, fig3_catalog):
        result = frontier_count_deadline_paths(fig3_catalog, F11, S13)
        assert result.path_count == 3
        assert result.peak_frontier >= 1
        assert result.layer_widths[0] == 1

    def test_goal_count(self, fig3_catalog):
        result = frontier_count_goal_paths(fig3_catalog, F11, GOAL, F12)
        assert result.path_count == 1
        assert result.pruning_stats is not None

    def test_goal_count_longer_horizon(self, fig3_catalog):
        tree = generate_goal_driven(fig3_catalog, F11, GOAL, S13)
        frontier = frontier_count_goal_paths(fig3_catalog, F11, GOAL, S13)
        assert frontier.path_count == tree.path_count

    def test_frontier_budget(self, fig3_catalog):
        with pytest.raises(BudgetExceededError) as excinfo:
            frontier_count_deadline_paths(fig3_catalog, F11, S13, max_frontier=1)
        assert excinfo.value.kind == "frontier states"

    def test_zero_horizon(self, fig3_catalog):
        result = frontier_count_deadline_paths(fig3_catalog, F11, F11)
        assert result.path_count == 1

    def test_goal_already_satisfied(self, fig3_catalog):
        result = frontier_count_goal_paths(
            fig3_catalog, F11, CourseSetGoal({"11A"}), S13, completed={"11A"}
        )
        assert result.path_count == 1

    def test_bad_inputs(self, fig3_catalog):
        with pytest.raises(ExplorationError):
            frontier_count_goal_paths(fig3_catalog, S13, GOAL, F11)
        with pytest.raises(ExplorationError):
            frontier_count_deadline_paths(fig3_catalog, F11, S13, completed={"99Z"})


class TestMaxNodesBoundary:
    """``config.max_nodes`` bounds distinct statuses: Table 1 at 4
    semesters visits 4,716 of them."""

    @pytest.mark.parametrize("engine", [frontier_count_goal_paths], ids=["frontier"])
    def test_limit_counts_distinct_statuses(self, engine):
        catalog, goal = brandeis_catalog(), brandeis_major_goal()
        start = start_term_for_semesters(4)
        with pytest.raises(BudgetExceededError) as excinfo:
            engine(
                catalog, start, goal, EVALUATION_END_TERM,
                config=ExplorationConfig(max_nodes=4715),
            )
        error = excinfo.value
        assert (error.kind, error.limit, error.observed) == ("nodes", 4715, 4716)
        result = engine(
            catalog, start, goal, EVALUATION_END_TERM,
            config=ExplorationConfig(max_nodes=4716),
        )
        assert result.path_count == 905
