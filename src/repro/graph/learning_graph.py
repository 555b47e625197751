"""The learning graph that Algorithm 1 builds — an out-tree of statuses.

Line 10 of the paper's Algorithm 1 creates a *new* node for every course
combination, so the structure is an out-tree rooted at the start status:
every leaf corresponds to exactly one learning path.  This class stores
that tree compactly (parallel arrays, integer node ids) and reconstructs
:class:`~repro.graph.path.LearningPath` objects on demand by walking parent
pointers.

Leaves are tagged with a *terminal kind* so the different algorithms can
mark why expansion stopped there:

* ``"deadline"`` — the node's semester equals the end semester ``d``;
* ``"goal"`` — the completed set satisfies the goal requirement;
* ``"dead_end"`` — no options now and nothing relevant offered later
  (Fig. 3's ``n6``);
* ``"pruned"`` — a pruning strategy cut the subtree (goal-driven only;
  pruned leaves are *not* output paths).

The tree representation is deliberately faithful to the paper — including
its memory behaviour.  Use the frontier DP (:mod:`repro.core.frontier`)
when you only need path counts at large horizons.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from .path import LearningPath
from .status import EnrollmentStatus

__all__ = ["LearningGraph"]

#: Terminal kinds a node may be tagged with.
TERMINAL_KINDS = ("deadline", "goal", "dead_end", "pruned")


class LearningGraph:
    """An out-tree of enrollment statuses (integer node ids, root = 0)."""

    def __init__(self, root: EnrollmentStatus):
        if not isinstance(root, EnrollmentStatus):
            raise TypeError(f"root must be an EnrollmentStatus, got {root!r}")
        self._statuses: List[EnrollmentStatus] = [root]
        self._parents: List[Optional[int]] = [None]
        self._selections: List[FrozenSet[str]] = [frozenset()]  # edge *into* node
        self._children: List[List[int]] = [[]]
        self._terminal: Dict[int, str] = {}

    # -- construction --------------------------------------------------------

    @property
    def root_id(self) -> int:
        """The root node's id (always 0)."""
        return 0

    def add_child(
        self, parent_id: int, selection: FrozenSet[str], status: EnrollmentStatus
    ) -> int:
        """Create a node for ``status`` reached from ``parent_id`` by
        electing ``selection``; returns the new node id."""
        self._check_id(parent_id)
        node_id = len(self._statuses)
        self._statuses.append(status)
        self._parents.append(parent_id)
        self._selections.append(frozenset(selection))
        self._children.append([])
        self._children[parent_id].append(node_id)
        return node_id

    def mark_terminal(self, node_id: int, kind: str) -> None:
        """Tag ``node_id`` with a terminal kind (see module docstring)."""
        self._check_id(node_id)
        if kind not in TERMINAL_KINDS:
            raise ValueError(f"unknown terminal kind {kind!r}; expected {TERMINAL_KINDS}")
        self._terminal[node_id] = kind

    def _check_id(self, node_id: int) -> None:
        if not 0 <= node_id < len(self._statuses):
            raise IndexError(f"no node {node_id} (graph has {len(self._statuses)})")

    # -- queries -------------------------------------------------------------------

    def status(self, node_id: int) -> EnrollmentStatus:
        """The enrollment status stored at ``node_id``."""
        self._check_id(node_id)
        return self._statuses[node_id]

    def parent(self, node_id: int) -> Optional[int]:
        """Parent node id (``None`` for the root)."""
        self._check_id(node_id)
        return self._parents[node_id]

    def selection_into(self, node_id: int) -> FrozenSet[str]:
        """The selection ``W`` on the edge entering ``node_id``
        (empty for the root)."""
        self._check_id(node_id)
        return self._selections[node_id]

    def children(self, node_id: int) -> Tuple[int, ...]:
        """Ids of the node's children, in creation order."""
        self._check_id(node_id)
        return tuple(self._children[node_id])

    def out_degree(self, node_id: int) -> int:
        """Number of children."""
        self._check_id(node_id)
        return len(self._children[node_id])

    def terminal_kind(self, node_id: int) -> Optional[str]:
        """The node's terminal tag, or ``None`` if it is interior/unmarked."""
        self._check_id(node_id)
        return self._terminal.get(node_id)

    def depth(self, node_id: int) -> int:
        """Number of edges from the root."""
        self._check_id(node_id)
        depth = 0
        parent = self._parents[node_id]
        while parent is not None:
            depth += 1
            parent = self._parents[parent]
        return depth

    @property
    def num_nodes(self) -> int:
        """Total node count ``|V|``."""
        return len(self._statuses)

    @property
    def num_edges(self) -> int:
        """Total edge count ``|E|`` (``|V| − 1`` for a tree)."""
        return len(self._statuses) - 1

    def __len__(self) -> int:
        return len(self._statuses)

    def node_ids(self) -> range:
        """All node ids (creation order, root first)."""
        return range(len(self._statuses))

    def leaf_ids(self) -> Iterator[int]:
        """Ids of all nodes with no children."""
        for node_id, children in enumerate(self._children):
            if not children:
                yield node_id

    def terminal_ids(self, *kinds: str) -> Iterator[int]:
        """Ids of terminal nodes, optionally filtered to the given kinds."""
        wanted = set(kinds) if kinds else None
        for node_id, kind in self._terminal.items():
            if wanted is None or kind in wanted:
                yield node_id

    # -- paths ------------------------------------------------------------------

    def path_to(self, node_id: int) -> LearningPath:
        """The unique root-to-``node_id`` learning path."""
        self._check_id(node_id)
        reversed_ids = [node_id]
        parent = self._parents[node_id]
        while parent is not None:
            reversed_ids.append(parent)
            parent = self._parents[parent]
        ids = list(reversed(reversed_ids))
        statuses = [self._statuses[i] for i in ids]
        selections = [self._selections[i] for i in ids[1:]]
        return LearningPath(statuses, selections)

    def paths(self, *kinds: str) -> Iterator[LearningPath]:
        """Learning paths ending at terminal nodes of the given kinds.

        With no ``kinds``, yields paths to every non-``pruned`` terminal —
        the algorithm's output set.  Paths are yielded in node-creation
        order, which is deterministic for a deterministic expansion.
        """
        if kinds:
            wanted = set(kinds)
        else:
            wanted = set(TERMINAL_KINDS) - {"pruned"}
        for node_id in sorted(self._terminal):
            if self._terminal[node_id] in wanted:
                yield self.path_to(node_id)

    def count_paths(self, *kinds: str) -> int:
        """Number of output paths (terminal leaves of the given kinds)."""
        if kinds:
            wanted = set(kinds)
        else:
            wanted = set(TERMINAL_KINDS) - {"pruned"}
        return sum(1 for kind in self._terminal.values() if kind in wanted)

    def __repr__(self) -> str:
        return (
            f"LearningGraph({self.num_nodes} nodes, "
            f"{self.count_paths()} output paths)"
        )
