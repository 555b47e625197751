"""Tests for Algorithm 1 (deadline-driven generation) — including an exact
reconstruction of the paper's Fig. 3 learning graph."""

import pytest

from repro.core import ExplorationConfig, generate_deadline_driven
from repro.errors import BudgetExceededError, ExplorationError
from repro.semester import Term

from .conftest import F11, F12, S12, S13


class TestFig3Reproduction:
    """Fig. 3: all learning paths from Fall '11 to Spring '13."""

    @pytest.fixture
    def result(self, fig3_catalog):
        return generate_deadline_driven(fig3_catalog, F11, S13)

    def test_node_count_matches_figure(self, result):
        # The figure shows exactly nine nodes n1..n9.
        assert result.graph.num_nodes == 9

    def test_three_output_paths(self, result):
        assert result.path_count == 3

    def test_exact_path_set(self, result):
        plans = {
            tuple((str(term), selection) for term, selection in path)
            for path in result.paths()
        }
        assert plans == {
            # n1 -> n2 -> n5 -> n8
            (
                ("Fall 2011", frozenset({"11A"})),
                ("Spring 2012", frozenset({"21A"})),
                ("Fall 2012", frozenset({"29A"})),
            ),
            # n1 -> n3 -> n6 (dead end at Fall '12)
            (
                ("Fall 2011", frozenset({"11A", "29A"})),
                ("Spring 2012", frozenset({"21A"})),
            ),
            # n1 -> n4 -> n7 -> n9 (empty move through Spring '12)
            (
                ("Fall 2011", frozenset({"29A"})),
                ("Spring 2012", frozenset()),
                ("Fall 2012", frozenset({"11A"})),
            ),
        }

    def test_terminal_kinds(self, result):
        # n8 and n9 stop at the end semester; n6 is a dead end.
        assert result.stats.terminal_count("deadline") == 2
        assert result.stats.terminal_count("dead_end") == 1

    def test_stats_counters(self, result):
        assert result.stats.nodes_created == 9
        assert result.stats.edges_created == 8
        assert result.stats.elapsed_seconds > 0


class TestEdgeCases:
    def test_start_equals_end(self, fig3_catalog):
        result = generate_deadline_driven(fig3_catalog, F11, F11)
        assert result.path_count == 1
        only = next(result.paths())
        assert len(only) == 0

    def test_end_before_start_rejected(self, fig3_catalog):
        with pytest.raises(ExplorationError):
            generate_deadline_driven(fig3_catalog, S12, F11)

    def test_unknown_completed_rejected(self, fig3_catalog):
        with pytest.raises(ExplorationError, match="not in catalog"):
            generate_deadline_driven(fig3_catalog, F11, S13, completed={"99Z"})

    def test_completed_courses_not_reoffered(self, fig3_catalog):
        result = generate_deadline_driven(fig3_catalog, F11, S12, completed={"11A"})
        for path in result.paths():
            assert "11A" not in path.courses_taken()

    def test_max_nodes_exceeded(self, fig3_catalog):
        with pytest.raises(BudgetExceededError) as excinfo:
            generate_deadline_driven(
                fig3_catalog, F11, S13, config=ExplorationConfig(max_nodes=3)
            )
        assert excinfo.value.kind == "nodes"

    def test_m_equal_one(self, fig3_catalog):
        result = generate_deadline_driven(
            fig3_catalog, F11, S13, config=ExplorationConfig(max_courses_per_term=1)
        )
        for path in result.paths():
            assert all(len(sel) <= 1 for sel in path.selections)

    def test_avoid_courses(self, fig3_catalog):
        config = ExplorationConfig(avoid_courses=frozenset({"29A"}))
        result = generate_deadline_driven(fig3_catalog, F11, S13, config=config)
        for path in result.paths():
            assert "29A" not in path.courses_taken()

    def test_all_paths_respect_schedule_and_prereqs(self, fig3_catalog):
        result = generate_deadline_driven(fig3_catalog, F11, S13)
        for path in result.paths():
            completed = set()
            for term, selection in path:
                for course_id in selection:
                    assert fig3_catalog.schedule.is_offered(course_id, term)
                    assert fig3_catalog[course_id].prereq.evaluate(completed)
                completed |= selection

    def test_paths_are_prefix_free_outputs(self, fig3_catalog):
        # Every output path ends at a leaf: no output is a prefix of another.
        result = generate_deadline_driven(fig3_catalog, F11, S13)
        plans = [path.selections for path in result.paths()]
        for i, a in enumerate(plans):
            for j, b in enumerate(plans):
                if i != j:
                    assert a[: len(b)] != b
