"""Learning graphs, paths, and enrollment statuses.

Section 2 of the paper models exploration as graph construction: each node
is an *enrollment status* (semester, completed courses, course options),
each edge is a per-semester course selection ``W ⊆ Y``, and a *learning
path* is a time-ordered node sequence.  This package provides:

* :class:`~repro.graph.status.EnrollmentStatus` — the node payload.
* :class:`~repro.graph.path.LearningPath` — an immutable path with cost
  helpers (length / workload / reliability, matching §4.3.1's rankings).
* :class:`~repro.graph.learning_graph.LearningGraph` — the out-tree that
  Algorithm 1 literally builds (a fresh node per expansion, so leaves ↔
  paths, which is why the paper runs out of memory at 6 semesters).
* :mod:`~repro.graph.export` — DOT / JSON serialization for the paper's
  Learning Path Visualizer.
"""

from .status import EnrollmentStatus
from .path import LearningPath
from .learning_graph import LearningGraph

__all__ = [
    "EnrollmentStatus",
    "LearningPath",
    "LearningGraph",
]
