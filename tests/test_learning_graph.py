"""Tests for the tree LearningGraph."""

import random

import pytest

from repro.core import generate_deadline_driven
from repro.data import brandeis_catalog, start_term_for_semesters
from repro.data.brandeis import EVALUATION_END_TERM
from repro.graph import EnrollmentStatus, LearningGraph
from repro.graph.export import graph_to_dot, graph_to_json
from repro.semester import Term
from repro.system.visualizer import render_graph

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

    def test_edges_into_reads_a_range_of_nodes(self):
        graph = LearningGraph(_root())
        a, b = EnrollmentStatus(S12, {"A"}), EnrollmentStatus(S12, {"B"})
        graph.add_child(0, frozenset({"A"}), a)
        graph.add_child(0, frozenset({"B"}), b)
        assert list(graph.edges_into(range(1, 3))) == [
            (frozenset({"A"}), a), (frozenset({"B"}), b)
        ]
        assert list(graph.edges_into(range(0))) == []
        with pytest.raises(IndexError):
            graph.edges_into(range(2, 4))
        with pytest.raises(ValueError):
            graph.edges_into(range(0, 3, 2))

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


class _ParentScanGraph(LearningGraph):
    """The reference children index: a scan of the parent pointers."""

    def children(self, node_id):
        self._check_id(node_id)
        return tuple(i for i in self.node_ids() if self.parent(i) == node_id)

    def out_degree(self, node_id):
        return len(self.children(node_id))

    def leaf_ids(self):
        return (i for i in self.node_ids() if not self.children(i))


def _replay(graph, cls=_ParentScanGraph):
    copy = cls(graph.status(graph.root_id))
    for node_id in range(1, graph.num_nodes):
        copy.add_child(graph.parent(node_id), graph.selection_into(node_id), graph.status(node_id))
    for node_id in graph.terminal_ids():
        copy.mark_terminal(node_id, graph.terminal_kind(node_id))
    return copy


def _random_tree(seed, size):
    """A tree whose siblings are not created back to back."""
    rng = random.Random(seed)
    graph = LearningGraph(_root())
    for _ in range(size):
        parent = rng.randrange(graph.num_nodes)
        term = graph.status(parent).term + 1
        graph.add_child(parent, frozenset({f"C{rng.randrange(5)}"}), EnrollmentStatus(term, set()))
    for node_id in list(graph.leaf_ids())[::3]:
        graph.mark_terminal(node_id, "deadline")
    return graph


def _assert_index_matches_parents(graph):
    reference = _replay(graph)
    for node_id in graph.node_ids():
        assert graph.children(node_id) == reference.children(node_id)
        assert graph.out_degree(node_id) == reference.out_degree(node_id)
    assert list(graph.leaf_ids()) == list(reference.leaf_ids())
    assert graph_to_dot(graph, max_nodes=10_000) == graph_to_dot(reference, max_nodes=10_000)
    assert graph_to_dot(graph, max_nodes=40) == graph_to_dot(reference, max_nodes=40)
    assert graph_to_json(graph) == graph_to_json(reference)
    assert render_graph(graph, max_nodes=10_000) == render_graph(reference, max_nodes=10_000)


class TestDerivedChildIndex:
    """Children are not stored per node: the index is built from the parent
    pointers on first read and dropped when a node is added."""

    def test_engine_tree_matches_parent_scan(self):
        graph = generate_deadline_driven(
            brandeis_catalog(), start_term_for_semesters(2), EVALUATION_END_TERM
        ).graph
        assert graph.num_nodes > 100
        _assert_index_matches_parents(graph)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_interleaved_tree_matches_parent_scan(self, seed):
        _assert_index_matches_parents(_random_tree(seed, 150))

    def test_add_child_after_a_read_rebuilds_the_index(self):
        graph = _random_tree(3, 60)
        rng = random.Random(4)
        for _ in range(40):
            assert graph.children(0) == _replay(graph).children(0)
            list(graph.leaf_ids())
            parent = rng.randrange(graph.num_nodes)
            child = graph.add_child(
                parent, frozenset({"A"}), EnrollmentStatus(graph.status(parent).term + 1, set())
            )
            assert graph.children(parent)[-1] == child
            assert graph.out_degree(child) == 0
        _assert_index_matches_parents(graph)

    def test_bad_ids_still_raise(self):
        graph = _random_tree(5, 10)
        for method in (graph.children, graph.out_degree, graph.status, graph.parent):
            with pytest.raises(IndexError, match="no node 11"):
                method(11)
            with pytest.raises(IndexError):
                method(-1)
        with pytest.raises(IndexError):
            graph.mark_terminal(11, "goal")
        with pytest.raises(IndexError):
            graph.add_child(-1, frozenset(), _root())
        assert graph.num_nodes == 11
