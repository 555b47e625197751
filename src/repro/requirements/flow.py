"""A maximum-flow solver, implemented from scratch.

The paper computes ``left_i`` — the minimum number of courses still needed
to meet a degree requirement — "using Ford-Fulkerson max-flow algorithm"
(§4.2.1, citing Parameswaran et al.).  This module provides that
formulation: a small integer-capacity flow network solved by
Edmonds–Karp, the BFS-augmenting-path realization of Ford–Fulkerson
(O(V·E²)), property-tested against ``networkx.maximum_flow`` when it is
installed.

:class:`~repro.requirements.goals.DegreeGoal` does not build a network per
query: its ``left_i`` is a closed form for disjoint groups and a bipartite
matching (augmenting paths over the same source → course → group → sink
network) for overlapping ones.  This solver is the oracle its tests check
that seat count against, and stays public API.

Nodes are arbitrary hashable objects.  Parallel ``add_edge`` calls between
the same pair accumulate capacity.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, List, Tuple

__all__ = ["FlowNetwork", "max_flow"]

Node = Hashable


class _Edge:
    """A directed edge paired with its residual twin."""

    __slots__ = ("target", "capacity", "flow", "twin")

    def __init__(self, target: Node, capacity: int):
        self.target = target
        self.capacity = capacity
        self.flow = 0
        self.twin: "_Edge" = None  # type: ignore[assignment]

    @property
    def residual(self) -> int:
        return self.capacity - self.flow

    def push(self, amount: int) -> None:
        self.flow += amount
        self.twin.flow -= amount


class FlowNetwork:
    """A directed flow network with non-negative integer capacities."""

    def __init__(self) -> None:
        self._adjacency: Dict[Node, List[_Edge]] = {}
        self._forward: Dict[Tuple[Node, Node], _Edge] = {}

    def add_node(self, node: Node) -> None:
        """Ensure ``node`` exists (edges add their endpoints automatically)."""
        self._adjacency.setdefault(node, [])

    def add_edge(self, source: Node, target: Node, capacity: int) -> None:
        """Add capacity from ``source`` to ``target``.

        Repeated calls accumulate.  Self-loops are rejected (they can never
        carry useful flow and usually indicate a modelling bug).
        """
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if source == target:
            raise ValueError(f"self-loop on {source!r}")
        key = (source, target)
        existing = self._forward.get(key)
        if existing is not None:
            existing.capacity += capacity
            return
        forward = _Edge(target, capacity)
        backward = _Edge(source, 0)
        forward.twin = backward
        backward.twin = forward
        self._adjacency.setdefault(source, []).append(forward)
        self._adjacency.setdefault(target, []).append(backward)
        self._forward[key] = forward

    def nodes(self) -> Iterable[Node]:
        """All nodes (endpoints of any edge, plus explicitly added ones)."""
        return self._adjacency.keys()

    def capacity(self, source: Node, target: Node) -> int:
        """Total capacity currently assigned to ``source → target``."""
        edge = self._forward.get((source, target))
        return edge.capacity if edge is not None else 0

    def flow_on(self, source: Node, target: Node) -> int:
        """Flow pushed on ``source → target`` by the last ``max_flow`` call."""
        edge = self._forward.get((source, target))
        return max(edge.flow, 0) if edge is not None else 0

    def reset_flow(self) -> None:
        """Zero all flows so ``max_flow`` can be re-run from scratch."""
        for edges in self._adjacency.values():
            for edge in edges:
                edge.flow = 0

    # -- solver -------------------------------------------------------------

    def max_flow(self, source: Node, sink: Node) -> int:
        """Maximum ``source → sink`` flow value (Edmonds–Karp).

        Flows are reset before solving, so repeated calls are independent.
        """
        if source == sink:
            raise ValueError("source and sink must differ")
        if source not in self._adjacency or sink not in self._adjacency:
            return 0
        self.reset_flow()
        total = 0
        while True:
            # BFS for the shortest augmenting path in the residual graph.
            parent_edge: Dict[Node, _Edge] = {}
            queue = deque([source])
            visited = {source}
            while queue and sink not in visited:
                node = queue.popleft()
                for edge in self._adjacency[node]:
                    if edge.residual > 0 and edge.target not in visited:
                        visited.add(edge.target)
                        parent_edge[edge.target] = edge
                        queue.append(edge.target)
            if sink not in visited:
                return total
            # Bottleneck along the path.
            bottleneck = None
            node = sink
            while node != source:
                edge = parent_edge[node]
                residual = edge.residual
                bottleneck = residual if bottleneck is None else min(bottleneck, residual)
                node = edge.twin.target
            assert bottleneck is not None and bottleneck > 0
            node = sink
            while node != source:
                edge = parent_edge[node]
                edge.push(bottleneck)
                node = edge.twin.target
            total += bottleneck


def max_flow(
    edges: Iterable[Tuple[Node, Node, int]],
    source: Node,
    sink: Node,
) -> int:
    """One-shot convenience: build a network from ``(u, v, capacity)``
    triples and return the max-flow value."""
    network = FlowNetwork()
    network.add_node(source)
    network.add_node(sink)
    for u, v, capacity in edges:
        network.add_edge(u, v, capacity)
    return network.max_flow(source, sink)
