"""Tests for the from-scratch max-flow solver (Edmonds–Karp)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.requirements.flow import FlowNetwork, max_flow

try:
    import networkx as nx
except ImportError:  # pragma: no cover
    nx = None


def _classic_network():
    """The CLRS example network with max flow 23."""
    network = FlowNetwork()
    edges = [
        ("s", "v1", 16),
        ("s", "v2", 13),
        ("v1", "v3", 12),
        ("v2", "v1", 4),
        ("v2", "v4", 14),
        ("v3", "v2", 9),
        ("v3", "t", 20),
        ("v4", "v3", 7),
        ("v4", "t", 4),
    ]
    for u, v, c in edges:
        network.add_edge(u, v, c)
    return network


class TestFlowNetworkBasics:
    def test_capacity_accumulates(self):
        network = FlowNetwork()
        network.add_edge("a", "b", 2)
        network.add_edge("a", "b", 3)
        assert network.capacity("a", "b") == 5

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlowNetwork().add_edge("a", "b", -1)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            FlowNetwork().add_edge("a", "a", 1)

    def test_same_source_sink_rejected(self):
        network = FlowNetwork()
        network.add_edge("a", "b", 1)
        with pytest.raises(ValueError):
            network.max_flow("a", "a")

    def test_missing_nodes_give_zero(self):
        network = FlowNetwork()
        network.add_edge("a", "b", 1)
        assert network.max_flow("a", "z") == 0

    def test_nodes_iteration(self):
        network = FlowNetwork()
        network.add_node("x")
        network.add_edge("a", "b", 1)
        assert set(network.nodes()) == {"x", "a", "b"}


class TestMaxFlowValues:
    def test_single_edge(self):
        network = FlowNetwork()
        network.add_edge("s", "t", 7)
        assert network.max_flow("s", "t") == 7

    def test_series_bottleneck(self):
        network = FlowNetwork()
        network.add_edge("s", "m", 10)
        network.add_edge("m", "t", 3)
        assert network.max_flow("s", "t") == 3

    def test_parallel_paths(self):
        network = FlowNetwork()
        network.add_edge("s", "a", 4)
        network.add_edge("a", "t", 4)
        network.add_edge("s", "b", 5)
        network.add_edge("b", "t", 5)
        assert network.max_flow("s", "t") == 9

    def test_disconnected(self):
        network = FlowNetwork()
        network.add_edge("s", "a", 4)
        network.add_edge("b", "t", 4)
        assert network.max_flow("s", "t") == 0

    def test_clrs_network(self):
        assert _classic_network().max_flow("s", "t") == 23

    def test_needs_residual_rerouting(self):
        # The classic diamond where a greedy path must be undone.
        network = FlowNetwork()
        for u, v, c in [
            ("s", "a", 1),
            ("s", "b", 1),
            ("a", "b", 1),
            ("a", "t", 1),
            ("b", "t", 1),
        ]:
            network.add_edge(u, v, c)
        assert network.max_flow("s", "t") == 2

    def test_repeated_solves_are_independent(self):
        network = _classic_network()
        assert network.max_flow("s", "t") == 23
        assert network.max_flow("s", "t") == 23

    def test_flow_on_reports_solution(self):
        network = FlowNetwork()
        network.add_edge("s", "a", 3)
        network.add_edge("a", "t", 3)
        network.max_flow("s", "t")
        assert network.flow_on("s", "a") == 3
        assert network.flow_on("a", "t") == 3
        assert network.flow_on("t", "a") == 0

    def test_bipartite_matching(self):
        # 3 courses, 2 groups with capacities 1 and 2.
        network = FlowNetwork()
        network.add_edge("src", "c1", 1)
        network.add_edge("src", "c2", 1)
        network.add_edge("src", "c3", 1)
        network.add_edge("c1", "g1", 1)
        network.add_edge("c2", "g1", 1)
        network.add_edge("c2", "g2", 1)
        network.add_edge("c3", "g2", 1)
        network.add_edge("g1", "snk", 1)
        network.add_edge("g2", "snk", 2)
        assert network.max_flow("src", "snk") == 3

    def test_one_shot_helper(self):
        assert max_flow([("s", "t", 5)], "s", "t") == 5


def _random_network(seed, n_nodes, n_edges, max_capacity=10):
    rng = random.Random(seed)
    network = FlowNetwork()
    network.add_node(0)
    network.add_node(n_nodes - 1)
    edges = []
    for _ in range(n_edges):
        u = rng.randrange(n_nodes)
        v = rng.randrange(n_nodes)
        if u == v:
            continue
        c = rng.randint(0, max_capacity)
        network.add_edge(u, v, c)
        edges.append((u, v, c))
    return network, edges


@pytest.mark.skipif(nx is None, reason="networkx unavailable")
@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_matches_networkx(seed):
    network, edges = _random_network(seed, n_nodes=7, n_edges=14)
    graph = nx.DiGraph()
    graph.add_nodes_from([0, 6])
    for u, v, c in edges:
        if graph.has_edge(u, v):
            graph[u][v]["capacity"] += c
        else:
            graph.add_edge(u, v, capacity=c)
    expected = nx.maximum_flow_value(graph, 0, 6) if graph.number_of_edges() else 0
    assert network.max_flow(0, 6) == expected
