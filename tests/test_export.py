"""Tests for graph DOT / JSON export."""

import json

import pytest

from repro.core import generate_deadline_driven
from repro.errors import InvalidConfigError
from repro.graph.export import graph_to_dot, graph_to_json, write_dot, write_json

from .conftest import F11, S13


@pytest.fixture
def tree(fig3_catalog):
    return generate_deadline_driven(fig3_catalog, F11, S13).graph


class TestDot:
    def test_tree_dot_structure(self, tree):
        dot = graph_to_dot(tree)
        assert dot.startswith("digraph learning_graph {")
        assert dot.rstrip().endswith("}")
        assert dot.count(" -> ") == tree.num_edges
        assert "n0" in dot

    def test_tree_dot_labels_selections(self, tree):
        dot = graph_to_dot(tree)
        assert "{11A, 29A}" in dot

    def test_tree_dot_colors_terminals(self, tree):
        dot = graph_to_dot(tree)
        assert "lightblue" in dot  # deadline leaves
        assert "lightgray" in dot  # the dead end (Fig. 3's n6)

    def test_tree_truncation(self, tree):
        dot = graph_to_dot(tree, max_nodes=3)
        assert "more nodes" in dot

    def test_bad_type(self):
        with pytest.raises(TypeError):
            graph_to_dot("graph")

    def test_negative_truncation_rejected(self, tree, tmp_path):
        assert "more nodes" not in graph_to_dot(tree, max_nodes=tree.num_nodes)
        with pytest.raises(InvalidConfigError, match="got -1"):
            graph_to_dot(tree, max_nodes=-1)
        path = tmp_path / "graph.dot"
        with pytest.raises(InvalidConfigError):
            write_dot(tree, str(path), max_nodes=-5)
        assert not path.exists()

    def test_write_dot(self, tree, tmp_path):
        path = tmp_path / "graph.dot"
        write_dot(tree, str(path))
        assert path.read_text().startswith("digraph")


class TestJson:
    def test_tree_json(self, tree):
        data = graph_to_json(tree)
        assert data["kind"] == "tree"
        assert len(data["nodes"]) == tree.num_nodes
        assert len(data["edges"]) == tree.num_edges
        root = data["nodes"][0]
        assert root["term"] == "Fall 2011"
        assert root["completed"] == []
        assert sorted(root["options"]) == ["11A", "29A"]

    def test_tree_json_terminals(self, tree):
        data = graph_to_json(tree)
        kinds = {node["terminal"] for node in data["nodes"]}
        assert "deadline" in kinds and "dead_end" in kinds

    def test_json_serializable(self, tree):
        json.dumps(graph_to_json(tree))

    def test_write_json(self, tree, tmp_path):
        path = tmp_path / "graph.json"
        write_json(tree, str(path))
        with open(path) as handle:
            assert json.load(handle)["kind"] == "tree"

    def test_bad_type(self):
        with pytest.raises(TypeError):
            graph_to_json(42)
