"""The Learning Path Visualizer — terminal rendering.

The paper's front-end presents generated paths back to the student; this
module is the text half of that component (graph file exports live in
:mod:`repro.graph.export`).  All functions return strings so they compose
with any output channel.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..catalog import Catalog, OfferingModel
from ..core.ranked import RankedResult
from ..errors import InvalidConfigError
from ..graph.learning_graph import LearningGraph
from ..graph.path import LearningPath

__all__ = ["render_path", "render_path_table", "render_ranked", "render_graph"]


def render_path(
    path: LearningPath,
    catalog: Optional[Catalog] = None,
    offering_model: Optional[OfferingModel] = None,
    indent: str = "",
) -> str:
    """A multi-line, per-semester rendering of one plan.

    With a ``catalog``, each semester line shows its workload; with an
    ``offering_model``, the header shows the plan's reliability.
    """
    lines: List[str] = []
    header = f"{indent}Plan: {len(path)} semesters, {len(path.courses_taken())} courses"
    if catalog is not None:
        header += f", {path.workload_cost(catalog):.0f} workload hrs/wk·sem"
    if offering_model is not None:
        header += f", reliability {path.reliability(offering_model):.3f}"
    lines.append(header)
    for term, selection in path:
        courses = ", ".join(sorted(selection)) if selection else "(skip)"
        line = f"{indent}  {term.short}:  {courses}"
        if catalog is not None and selection:
            hours = sum(catalog[c].workload_hours for c in selection)
            line += f"   [{hours:.0f} hrs/wk]"
        lines.append(line)
    lines.append(f"{indent}  => completed: {', '.join(sorted(path.end.completed))}")
    return "\n".join(lines)


def render_path_table(
    paths: Iterable[LearningPath],
    catalog: Optional[Catalog] = None,
    limit: int = 20,
) -> str:
    """A compact one-line-per-path table (truncated at ``limit`` rows; a
    negative ``limit`` raises :class:`~repro.errors.InvalidConfigError`)."""
    if limit < 0:
        raise InvalidConfigError(f"path table limit must be >= 0, got {limit}")
    rows = []
    shown = 0
    truncated = False
    for path in paths:
        if shown >= limit:
            truncated = True
            break
        shown += 1
        plan = " | ".join(
            f"{term.short} {','.join(sorted(sel)) or '-'}" for term, sel in path
        )
        prefix = f"#{shown:>3}  {len(path)} sem"
        if catalog is not None:
            prefix += f"  {path.workload_cost(catalog):6.0f}h"
        rows.append(f"{prefix}  {plan}")
    if not rows:
        return "(no paths)"
    if truncated:
        rows.append(f"… (more than {limit} paths; table truncated)")
    return "\n".join(rows)


def render_ranked(
    result: RankedResult,
    catalog: Optional[Catalog] = None,
    offering_model: Optional[OfferingModel] = None,
) -> str:
    """The top-k result with per-path rank and cost."""
    if not result.paths:
        return f"(no paths satisfy the goal under ranking {result.ranking.name!r})"
    blocks = []
    for rank, (cost, path) in enumerate(result.ranked(), start=1):
        label = f"[{rank}] {result.ranking.name} cost = {cost:g}"
        blocks.append(label)
        blocks.append(render_path(path, catalog=catalog, offering_model=offering_model, indent="    "))
    if result.exhausted:
        blocks.append(f"(only {len(result.paths)} goal paths exist)")
    return "\n".join(blocks)


def render_graph(graph: LearningGraph, max_nodes: int = 200) -> str:
    """An indented text dump of a learning graph (truncated at ``max_nodes``;
    a negative one raises :class:`~repro.errors.InvalidConfigError`)."""
    if not isinstance(graph, LearningGraph):
        raise TypeError(f"expected LearningGraph, got {graph!r}")
    if max_nodes < 0:
        raise InvalidConfigError(f"graph truncation max_nodes must be >= 0, got {max_nodes}")
    lines: List[str] = []
    count = 0

    def visit(node_id: int, depth: int) -> None:
        nonlocal count
        if count >= max_nodes:
            return
        count += 1
        status = graph.status(node_id)
        selection = graph.selection_into(node_id)
        arrow = f"--{{{', '.join(sorted(selection))}}}--> " if node_id != graph.root_id else ""
        kind = graph.terminal_kind(node_id)
        tag = f"  [{kind}]" if kind else ""
        lines.append(f"{'  ' * depth}{arrow}{status.describe()}{tag}")
        for child in graph.children(node_id):
            visit(child, depth + 1)

    visit(graph.root_id, 0)
    if count >= max_nodes and graph.num_nodes > max_nodes:
        lines.append(f"… truncated at {max_nodes} of {graph.num_nodes} nodes")
    return "\n".join(lines)
