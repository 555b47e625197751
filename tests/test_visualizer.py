"""Tests for the text visualizer."""

import pytest

from repro.catalog import DeterministicOfferings
from repro.core import TimeRanking, generate_deadline_driven, generate_ranked
from repro.errors import InvalidConfigError
from repro.requirements import CourseSetGoal
from repro.system import render_graph, render_path, render_path_table, render_ranked

from .conftest import F11, S13

GOAL = CourseSetGoal({"11A", "29A", "21A"})


@pytest.fixture
def paths(fig3_catalog):
    return list(generate_deadline_driven(fig3_catalog, F11, S13).paths())


class TestRenderPath:
    def test_shows_semesters_and_courses(self, paths, fig3_catalog):
        text = render_path(paths[0], catalog=fig3_catalog)
        assert "Fall '11" in text
        assert "11A" in text
        assert "hrs/wk" in text
        assert "completed:" in text

    def test_skip_semesters_rendered(self, paths):
        skip_path = next(p for p in paths if frozenset() in p.selections)
        assert "(skip)" in render_path(skip_path)

    def test_reliability_header(self, paths, fig3_catalog):
        model = DeterministicOfferings(fig3_catalog.schedule)
        text = render_path(paths[0], offering_model=model)
        assert "reliability 1.000" in text

    def test_indent(self, paths):
        text = render_path(paths[0], indent="  ")
        assert all(line.startswith("  ") for line in text.splitlines())


class TestRenderPathTable:
    def test_one_line_per_path(self, paths, fig3_catalog):
        table = render_path_table(paths, fig3_catalog)
        assert len(table.splitlines()) == len(paths)

    def test_truncation_note(self, paths):
        table = render_path_table(paths, limit=1)
        assert "truncated" in table

    def test_empty(self):
        assert render_path_table([]) == "(no paths)"
        assert render_path_table([], limit=0) == "(no paths)"

    def test_negative_limit_rejected(self, paths):
        with pytest.raises(InvalidConfigError, match="got -1"):
            render_path_table(paths, limit=-1)


class TestRenderRanked:
    def test_ranked_output(self, fig3_catalog):
        # Fig. 3 admits exactly two goal paths by Spring '13; k=5 exhausts.
        result = generate_ranked(fig3_catalog, F11, GOAL, S13, 5, TimeRanking())
        text = render_ranked(result, fig3_catalog)
        assert "[1] time cost = 2" in text
        assert "only 2 goal paths exist" in text

    def test_empty_result(self, fig3_catalog):
        result = generate_ranked(
            fig3_catalog, F11, CourseSetGoal({"21A"}), F11 + 1, 3, TimeRanking()
        )
        assert "no paths satisfy" in render_ranked(result)


class TestRenderGraph:
    def test_tree_rendering(self, fig3_catalog):
        graph = generate_deadline_driven(fig3_catalog, F11, S13).graph
        text = render_graph(graph)
        assert "Fall '11" in text
        assert "[deadline]" in text
        assert "[dead_end]" in text
        assert "--{11A, 29A}-->" in text

    def test_tree_truncation(self, fig3_catalog):
        graph = generate_deadline_driven(fig3_catalog, F11, S13).graph
        assert "truncated" in render_graph(graph, max_nodes=2)

    def test_bad_type(self):
        with pytest.raises(TypeError):
            render_graph([1, 2])

    def test_negative_truncation_rejected(self, fig3_catalog):
        graph = generate_deadline_driven(fig3_catalog, F11, S13).graph
        assert "truncated" in render_graph(graph, max_nodes=0)
        with pytest.raises(InvalidConfigError, match="got -1"):
            render_graph(graph, max_nodes=-1)
