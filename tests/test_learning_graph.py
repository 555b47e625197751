"""Tests for the tree LearningGraph."""

import pytest

from repro.graph import EnrollmentStatus, LearningGraph
from repro.semester import Term

F11, S12, F12 = Term(2011, "Fall"), Term(2012, "Spring"), Term(2012, "Fall")


def _root():
    return EnrollmentStatus(F11, frozenset(), {"A", "B"})


class TestLearningGraphStructure:
    def test_root(self):
        graph = LearningGraph(_root())
        assert graph.root_id == 0
        assert graph.num_nodes == 1
        assert graph.num_edges == 0
        assert graph.parent(0) is None
        assert graph.selection_into(0) == frozenset()

    def test_non_status_root_rejected(self):
        with pytest.raises(TypeError):
            LearningGraph("root")

    def test_add_child(self):
        graph = LearningGraph(_root())
        child = EnrollmentStatus(S12, {"A"})
        child_id = graph.add_child(0, frozenset({"A"}), child)
        assert child_id == 1
        assert graph.children(0) == (1,)
        assert graph.parent(1) == 0
        assert graph.selection_into(1) == {"A"}
        assert graph.out_degree(0) == 1
        assert graph.depth(1) == 1

    def test_bad_node_id(self):
        graph = LearningGraph(_root())
        with pytest.raises(IndexError):
            graph.status(5)
        with pytest.raises(IndexError):
            graph.add_child(5, frozenset(), _root())

    def test_leaf_ids(self):
        graph = LearningGraph(_root())
        graph.add_child(0, frozenset({"A"}), EnrollmentStatus(S12, {"A"}))
        graph.add_child(0, frozenset({"B"}), EnrollmentStatus(S12, {"B"}))
        assert list(graph.leaf_ids()) == [1, 2]


class TestTerminalsAndPaths:
    @pytest.fixture
    def graph(self):
        graph = LearningGraph(_root())
        a = graph.add_child(0, frozenset({"A"}), EnrollmentStatus(S12, {"A"}))
        b = graph.add_child(0, frozenset({"B"}), EnrollmentStatus(S12, {"B"}))
        ab = graph.add_child(a, frozenset({"B"}), EnrollmentStatus(F12, {"A", "B"}))
        graph.mark_terminal(ab, "goal")
        graph.mark_terminal(b, "dead_end")
        return graph

    def test_terminal_kinds(self, graph):
        assert graph.terminal_kind(3) == "goal"
        assert graph.terminal_kind(2) == "dead_end"
        assert graph.terminal_kind(0) is None

    def test_unknown_kind_rejected(self, graph):
        with pytest.raises(ValueError, match="unknown terminal kind"):
            graph.mark_terminal(0, "mystery")

    def test_path_to(self, graph):
        path = graph.path_to(3)
        assert len(path) == 2
        assert path.selections == (frozenset({"A"}), frozenset({"B"}))
        assert path.end.completed == {"A", "B"}

    def test_paths_default_excludes_pruned(self, graph):
        graph.mark_terminal(1, "pruned")
        kinds = [p.end.completed for p in graph.paths()]
        assert frozenset({"A"}) not in kinds  # wait: node 1 is interior with child
        assert len(list(graph.paths())) == 2

    def test_paths_filtered_by_kind(self, graph):
        assert len(list(graph.paths("goal"))) == 1
        assert len(list(graph.paths("dead_end"))) == 1
        assert len(list(graph.paths("deadline"))) == 0

    def test_count_paths(self, graph):
        assert graph.count_paths() == 2
        assert graph.count_paths("goal") == 1
