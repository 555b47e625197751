"""Tests for schedule patterns and learning-graph metrics."""

import pytest

from repro.analysis import branching_profile, graph_shape
from repro.catalog.patterns import build_schedule, pattern_terms
from repro.core import generate_deadline_driven, generate_goal_driven
from repro.core.options import selection_count
from repro.errors import CatalogError
from repro.requirements import CourseSetGoal
from repro.semester import SPRING_SUMMER_FALL, Term

from .conftest import F11, F12, S12, S13

S11 = Term(2011, "Spring")
F13 = Term(2013, "Fall")


class TestPatternTerms:
    def test_every(self):
        assert pattern_terms("every", S11, F12) == {S11, F11, S12, F12}

    def test_single_season(self):
        assert pattern_terms("fall", S11, F13) == {F11, F12, F13}
        assert pattern_terms("spring", S11, F13) == {S11, S12, Term(2013, "Spring")}

    def test_parity(self):
        assert pattern_terms("fall-even", S11, F13) == {F12}
        assert pattern_terms("fall-odd", S11, F13) == {F11, F13}
        assert pattern_terms("spring-even", S11, F13) == {S12}
        assert pattern_terms("spring-odd", S11, F13) == {S11, Term(2013, "Spring")}

    def test_never(self):
        assert pattern_terms("never", S11, F13) == frozenset()

    def test_case_insensitive(self):
        assert pattern_terms("FALL", S11, F12) == pattern_terms("fall", S11, F12)

    def test_unknown_pattern_raises(self):
        with pytest.raises(CatalogError, match="unknown schedule pattern"):
            pattern_terms("weekends", S11, F12)

    def test_custom_calendar_season(self):
        start = Term(2011, "Spring", SPRING_SUMMER_FALL)
        end = Term(2012, "Fall", SPRING_SUMMER_FALL)
        summers = pattern_terms("summer", start, end)
        assert summers == {
            Term(2011, "Summer", SPRING_SUMMER_FALL),
            Term(2012, "Summer", SPRING_SUMMER_FALL),
        }

    def test_build_schedule(self):
        schedule = build_schedule(
            {"A": "every", "B": "fall", "C": "never"}, S11, F12
        )
        assert schedule.offerings("A") == {S11, F11, S12, F12}
        assert schedule.offerings("B") == {F11, F12}
        assert schedule.offerings("C") == frozenset()

    def test_brandeis_uses_patterns(self):
        """The refactored dataset still produces the documented shapes."""
        from repro.data import brandeis_catalog

        catalog = brandeis_catalog()
        assert catalog.schedule.is_offered("COSI 11a", S12)   # every
        assert catalog.schedule.is_offered("COSI 29a", F12)   # fall
        assert not catalog.schedule.is_offered("COSI 29a", S12)
        assert catalog.schedule.is_offered("COSI 45b", F13)   # fall-odd
        assert not catalog.schedule.is_offered("COSI 45b", F12)


class TestBranchingProfile:
    def test_tree_profile_on_fig3(self, fig3_catalog):
        graph = generate_deadline_driven(fig3_catalog, F11, S13).graph
        profile = branching_profile(graph, max_per_term=3)
        by_term = {row.term: row for row in profile}
        root_row = by_term[F11]
        assert root_row.statuses == 1
        assert root_row.max_options == 2
        # Σ C(2, 1..3) = 3 — and the root really has 3 children.
        assert root_row.predicted_branches == selection_count(2, 3) == 3
        assert root_row.actual_branches == 3

    def test_terminal_rows_have_zero_actual(self, fig3_catalog):
        graph = generate_deadline_driven(fig3_catalog, F11, S13).graph
        profile = branching_profile(graph, max_per_term=3)
        last = profile[-1]
        assert last.term == S13
        assert last.actual_branches == 0

    def test_pruning_shows_as_predicted_gt_actual(self, fig3_catalog):
        goal = CourseSetGoal({"11A", "29A", "21A"})
        graph = generate_goal_driven(fig3_catalog, F11, goal, F12).graph
        profile = branching_profile(graph, max_per_term=3)
        total_predicted = sum(row.predicted_branches for row in profile)
        total_actual = sum(row.actual_branches for row in profile)
        assert total_actual < total_predicted

    def test_describe(self, fig3_catalog):
        graph = generate_deadline_driven(fig3_catalog, F11, S13).graph
        row = branching_profile(graph, 3)[0]
        assert "statuses" in row.describe()

    def test_bad_type(self):
        with pytest.raises(TypeError):
            branching_profile("graph", 3)


class TestGraphShape:
    def test_tree_shape(self, fig3_catalog):
        graph = generate_deadline_driven(fig3_catalog, F11, S13).graph
        shape = graph_shape(graph)
        assert shape.nodes == 9
        assert shape.edges == 8
        assert shape.terminals == {"deadline": 2, "dead_end": 1}
        assert shape.nodes_per_term[F11] == 1
        assert shape.nodes_per_term[S12] == 3
        # Spring '12 and Fall '12 both hold 3 statuses; ties break late.
        assert shape.nodes_per_term[F12] == 3
        assert shape.widest_term() == F12

    def test_bad_type(self):
        with pytest.raises(TypeError):
            graph_shape(42)
