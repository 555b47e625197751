"""Graph serialization for the Learning Path Visualizer.

The paper's front-end renders learning graphs; this module provides the
interchange half of that: Graphviz DOT (for figures like the paper's
Fig. 1/3) and JSON (for web front-ends).  Both exporters work on the tree
:class:`~repro.graph.learning_graph.LearningGraph`.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from ..errors import InvalidConfigError
from .learning_graph import LearningGraph

__all__ = ["graph_to_dot", "graph_to_json", "write_dot", "write_json"]

_TERMINAL_COLORS = {
    "goal": "palegreen",
    "deadline": "lightblue",
    "dead_end": "lightgray",
    "pruned": "mistyrose",
}


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _selection_label(selection) -> str:
    return "{" + ", ".join(sorted(selection)) + "}"


def graph_to_dot(graph: LearningGraph, max_nodes: int = 500) -> str:
    """Render a learning graph as Graphviz DOT.

    Terminal nodes are color-coded by kind; graphs larger than
    ``max_nodes`` are truncated with an ellipsis node so a figure of an
    exploded graph stays renderable.  A negative ``max_nodes`` raises
    :class:`~repro.errors.InvalidConfigError`.
    """
    if not isinstance(graph, LearningGraph):
        raise TypeError(f"expected LearningGraph, got {graph!r}")
    if max_nodes < 0:
        raise InvalidConfigError(f"graph truncation max_nodes must be >= 0, got {max_nodes}")
    lines = [
        "digraph learning_graph {",
        "  rankdir=LR;",
        '  node [shape=box, style="rounded,filled", fillcolor=white, fontsize=10];',
    ]
    limit = min(graph.num_nodes, max_nodes)
    for node_id in range(limit):
        status = graph.status(node_id)
        completed = ", ".join(sorted(status.completed)) or "∅"
        options = ", ".join(sorted(status.options)) or "∅"
        label = f"n{node_id}\\n{status.term.short}\\nX={{{completed}}}\\nY={{{options}}}"
        kind = graph.terminal_kind(node_id)
        color = _TERMINAL_COLORS.get(kind or "", "white")
        lines.append(f'  n{node_id} [label="{_escape(label)}", fillcolor={color}];')
    for node_id in range(limit):
        for child in graph.children(node_id):
            if child >= limit:
                continue
            selection = _selection_label(graph.selection_into(child))
            lines.append(
                f'  n{node_id} -> n{child} [label="{_escape(selection)}", fontsize=9];'
            )
    if graph.num_nodes > limit:
        lines.append(
            f'  truncated [label="… {graph.num_nodes - limit} more nodes", shape=plaintext];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(graph: LearningGraph) -> Dict[str, Any]:
    """A JSON-serializable node/edge dump of the graph."""
    if not isinstance(graph, LearningGraph):
        raise TypeError(f"expected LearningGraph, got {graph!r}")
    nodes: List[Dict[str, Any]] = []
    edges: List[Dict[str, Any]] = []
    for node_id in graph.node_ids():
        status = graph.status(node_id)
        nodes.append(
            {
                "id": node_id,
                "term": str(status.term),
                "completed": sorted(status.completed),
                "options": sorted(status.options),
                "terminal": graph.terminal_kind(node_id),
            }
        )
        for child in graph.children(node_id):
            edges.append(
                {
                    "from": node_id,
                    "to": child,
                    "selection": sorted(graph.selection_into(child)),
                }
            )
    return {"kind": "tree", "nodes": nodes, "edges": edges}


def write_dot(graph: LearningGraph, path: str, max_nodes: int = 500) -> None:
    """Write :func:`graph_to_dot` output to ``path``."""
    text = graph_to_dot(graph, max_nodes=max_nodes)  # before the file is created
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def write_json(graph: LearningGraph, path: str) -> None:
    """Write :func:`graph_to_json` output to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(graph_to_json(graph), handle, indent=2)
        handle.write("\n")
