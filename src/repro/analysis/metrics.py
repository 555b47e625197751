"""Learning-graph metrics — the quantities behind the paper's analysis.

§4.3 derives the per-node branching factor ``Σ_{i=1..m} C(|Y_i|, i)`` and
§5.2 explains pruning's effectiveness by the shape of the graph (heavy
early overlap, late branch-out).  This module computes those quantities
for a concrete exploration so the claims can be inspected, plotted, and
tested:

* :func:`branching_profile` — per-term option-set sizes and the predicted
  vs. actual branching factor;
* :func:`graph_shape` — node/edge/terminal counts per term for a built
  tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core.options import selection_count
from ..graph.learning_graph import LearningGraph
from ..semester import Term

__all__ = ["TermBranching", "branching_profile", "graph_shape"]


@dataclass
class TermBranching:
    """Branching statistics for every explored status in one term."""

    term: Term
    statuses: int = 0
    min_options: int = 0
    max_options: int = 0
    mean_options: float = 0.0
    #: Σ over statuses of the §4.3 formula Σ_{i=1..m} C(|Y|, i).
    predicted_branches: int = 0
    #: Edges actually created out of this term's statuses.
    actual_branches: int = 0

    def describe(self) -> str:
        """One line per term, e.g. for a report table."""
        return (
            f"{self.term}: {self.statuses} statuses, |Y| in "
            f"[{self.min_options}, {self.max_options}] (mean "
            f"{self.mean_options:.1f}), predicted {self.predicted_branches} "
            f"branches, actual {self.actual_branches}"
        )


def branching_profile(graph: LearningGraph, max_per_term: int) -> List[TermBranching]:
    """Per-term branching statistics for a built graph.

    ``predicted_branches`` applies the paper's combination-count formula
    to every status's option set; ``actual_branches`` counts the edges
    the algorithm created (smaller when terminals stop expansion or
    pruning fires).
    """
    if not isinstance(graph, LearningGraph):
        raise TypeError(f"expected LearningGraph, got {graph!r}")
    buckets: Dict[Term, TermBranching] = {}
    option_totals: Dict[Term, int] = {}
    for node_id in graph.node_ids():
        status = graph.status(node_id)
        bucket = buckets.get(status.term)
        if bucket is None:
            bucket = TermBranching(term=status.term, min_options=len(status.options))
            buckets[status.term] = bucket
            option_totals[status.term] = 0
        size = len(status.options)
        bucket.statuses += 1
        bucket.min_options = min(bucket.min_options, size)
        bucket.max_options = max(bucket.max_options, size)
        option_totals[status.term] += size
        bucket.predicted_branches += selection_count(size, max_per_term)
        bucket.actual_branches += graph.out_degree(node_id)
    for term, bucket in buckets.items():
        bucket.mean_options = option_totals[term] / bucket.statuses
    return [buckets[term] for term in sorted(buckets)]


@dataclass
class GraphShape:
    """Coarse shape summary of a built learning graph."""

    nodes: int
    edges: int
    terminals: Dict[str, int] = field(default_factory=dict)
    nodes_per_term: Dict[Term, int] = field(default_factory=dict)

    def widest_term(self) -> Term:
        """The term holding the most statuses."""
        return max(self.nodes_per_term, key=lambda t: (self.nodes_per_term[t], t.ordinal))


def graph_shape(graph: LearningGraph) -> GraphShape:
    """Node/edge/terminal counts, bucketed per term."""
    if not isinstance(graph, LearningGraph):
        raise TypeError(f"expected LearningGraph, got {graph!r}")
    terminals: Dict[str, int] = {}
    per_term: Dict[Term, int] = {}
    for node_id in graph.node_ids():
        term = graph.status(node_id).term
        per_term[term] = per_term.get(term, 0) + 1
        kind = graph.terminal_kind(node_id)
        if kind:
            terminals[kind] = terminals.get(kind, 0) + 1
    return GraphShape(
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        terminals=terminals,
        nodes_per_term=per_term,
    )
