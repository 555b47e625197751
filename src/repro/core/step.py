"""The node-step kernel: the one per-node decision every engine shares.

Goal-driven search adds a goal test and sound pruning to deadline-driven
expansion, and ranked search only changes the order in which nodes are
expanded (§4.1–4.3).  :class:`NodeStep` decides each node for all of them:
the run's limits and cancellation; goal test, then deadline test; the
pruner stack; the strategic-selection floor ``min_i`` and the selections
it suppresses.  It records every outcome in the run's stats (which the
pruning stats read), progress and decision events, so the engines keep
only their traversal order: DFS tree (:mod:`~repro.core.deadline`),
best-first (:mod:`~repro.core.ranked`) and layer-merged
(:mod:`~repro.core.frontier`).

The run's mode is one fact: with a goal, the ``goal`` terminals are the
output paths; without one, every maximal path (``deadline`` and
``dead_end``) is.  With observability off the kernel allocates nothing per
node: kinds are interned strings and the floor is an attribute.

A run stops early through one path, :meth:`NodeStep.exceeded`: the
traversal's own size limits (``config.max_nodes``, ``max_frontier``) and
the wall-time and memory limits the kernel checks itself
(``config.max_wall_seconds`` on every node, ``config.max_memory_bytes``
every :data:`MEMORY_PROBE_INTERVAL` nodes).  With a progress tracker
attached, a :meth:`~repro.obs.live.ProgressTracker.cancel` from any
thread stops the run at its next node with
:class:`~repro.errors.RunCancelledError`.

The run scope :meth:`NodeStep.start` returns also pauses CPython's cyclic
garbage collector.  A run allocates tens of thousands of long-lived
containers (statuses, frozensets, child lists, heap entries) and frees
them by reference counting; it makes no cyclic garbage, so the
generational passes its allocations trigger only rescan live state.  The
pause is process-wide and counted, so nested runs and runs overlapping in
several threads keep it until the last one ends; that exit restores the
collector's state from before the first, and when the collector was on it
pays the one young-generation pass the pause deferred inside the run.
"""

from __future__ import annotations

import gc
import math
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from typing import AbstractSet, Any, Callable, List, Optional, Tuple

from ..catalog import Catalog
from ..errors import (
    BudgetExceededError,
    ExplorationError,
    RunCancelledError,
    UnknownCourseError,
)
from ..graph.status import EnrollmentStatus
from ..obs.explain import DecisionEvent
from ..obs.runtime import NULL_OBSERVABILITY, Observability
from ..obs.tracing import NULL_SPAN
from ..requirements import Goal
from ..semester import Term
from .config import ExplorationConfig
from .expansion import Expander
from .pruning import (
    Pruner,
    PruningContext,
    PruningStats,
    TimeBasedPruner,
    default_pruners,
    examine_pruners,
    first_firing_pruner,
    suppressed_selection_count,
)
from .stats import ExplorationStats

__all__ = ["NodeStep", "MEMORY_PROBE_INTERVAL"]

#: Decided nodes between two probes of ``config.max_memory_bytes`` (a
#: probe is a system call; the wall-time check is one clock read).
MEMORY_PROBE_INTERVAL = 256

# The collector is process-wide, so the count of runs pausing it is too.
_gc_lock = threading.Lock()
_gc_paused_runs = 0
_gc_was_enabled = False


@contextmanager
def _collector_paused(scope):
    """Enter ``scope`` (a run scope) with the cyclic collector paused."""
    global _gc_paused_runs, _gc_was_enabled
    with scope as span:
        with _gc_lock:
            if not _gc_paused_runs:
                _gc_was_enabled = gc.isenabled()
                gc.disable()
            _gc_paused_runs += 1
        try:
            yield span
        finally:
            with _gc_lock:
                _gc_paused_runs -= 1
                last = not _gc_paused_runs
                collect = last and _gc_was_enabled
                if collect:
                    gc.enable()
                elif last:
                    gc.disable()  # even if a plug-in enabled it mid-run
            # Outside the lock: a finalizer the pass runs may start a run.
            if collect:
                gc.collect(0)


def _process_memory_bytes() -> int:
    """Current process memory, cheaply.

    Prefers ``tracemalloc`` when it is already tracing (exact allocated
    bytes); otherwise falls back to peak RSS via :mod:`resource` (Linux
    reports KiB).  Returns 0 when neither source is available, so a
    memory limit degrades to "never fires" rather than crashing.
    """
    if tracemalloc.is_tracing():
        return tracemalloc.get_traced_memory()[0]
    try:
        import resource

        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sys.platform == "darwin":  # macOS reports bytes, Linux KiB
            return int(rss)
        return int(rss) * 1024
    except Exception:  # pragma: no cover - platform without resource
        return 0


#: ``describe(ref, kind) -> (node_id, parent_id, selection, extra_detail)``.
Describe = Callable[[Any, str], Optional[Tuple[int, Optional[int], Tuple[str, ...], Any]]]


class NodeStep:
    """One run's per-node decision, shared by every traversal order.

    Parameters
    ----------
    run:
        The run name (``goal_driven``, ``ranked``, ``frontier_goal``, …):
        the ``run:<name>`` span, the progress run and the metrics ``kind``.
    catalog, start_term, end_term, completed, config:
        The exploration inputs, validated here.
    goal:
        The goal, or ``None`` for a deadline-driven run: no goal test, no
        pruning, and the deadline and dead-end terminals are the outputs.
    pruners, obs:
        As in the generators; ``pruners=None`` is the paper's stack.

    Raises :class:`~repro.errors.UnknownCourseError` up front when the
    schedule offers in ``[start_term, end_term]`` a course neither in the
    catalog nor avoided, since a status derives ``Y`` only when read.
    """

    __slots__ = (
        "name", "start_term", "end_term", "completed", "config", "goal",
        "pruners", "obs", "stats", "pruning_stats", "expander",
        "outputs", "floor", "_time_pruner", "_describe", "_recorder",
        "_progress", "_checks", "_started_at", "_decided",
    )

    def __init__(
        self,
        run: str,
        catalog: Catalog,
        start_term: Term,
        end_term: Term,
        completed: AbstractSet[str],
        config: Optional[ExplorationConfig],
        goal: Optional[Goal] = None,
        pruners: Optional[List[Pruner]] = None,
        obs: Optional[Observability] = None,
    ):
        config = config or ExplorationConfig()
        if end_term < start_term:
            raise ExplorationError(f"end term {end_term} precedes start term {start_term}")
        completed = frozenset(completed)
        known = catalog.course_ids()
        unknown = completed - known
        if unknown:
            raise ExplorationError(f"completed courses not in catalog: {sorted(unknown)}")
        expander = Expander(catalog, end_term, config, obs=obs)
        ghosts = (
            expander.schedule.offered_between(start_term, end_term)
            - known
            - config.avoid_courses
        )
        if ghosts:
            raise UnknownCourseError(min(ghosts), context="schedule entry")
        if goal is None:
            pruners = []
        elif pruners is None:
            pruners = default_pruners(
                PruningContext(catalog=catalog, goal=goal, end_term=end_term, config=config)
            )
        time_pruner = next((p for p in pruners if isinstance(p, TimeBasedPruner)), None)
        self.name = run
        self.start_term = start_term
        self.end_term = end_term
        self.completed = completed
        self.config = config
        self.goal = goal
        self.pruners = pruners
        self.obs = obs if obs is not None else NULL_OBSERVABILITY
        #: The terminal kinds that are the run's output paths.
        self.outputs = ("goal",) if goal is not None else ("deadline", "dead_end")
        self.floor = 0
        self._time_pruner = time_pruner if config.enforce_min_selection else None
        self._describe: Optional[Describe] = None
        self._recorder = None
        self._progress = self.obs.progress
        #: Whether :meth:`decide` checks limits or cancellation at all.
        self._checks = (
            self._progress is not None
            or config.max_wall_seconds is not None
            or config.max_memory_bytes is not None
        )
        self._started_at = 0.0
        self._decided = 0
        self.stats = ExplorationStats()
        self.pruning_stats = PruningStats(self.stats.prune_events)
        self.stats.start_timer()
        self.expander = expander

    # -- run lifecycle ---------------------------------------------------------

    def start(self, describe: Optional[Describe] = None, **attributes: Any):
        """Begin the run and return its ``run:<name>`` scope to enter; the
        cyclic garbage collector is paused inside it (see the module notes).

        ``describe(ref, kind)`` names a node in decision events: it returns
        ``(node_id, parent_id, selection, extra_detail)``, or ``None`` to
        leave the kind unrecorded; ``ref`` is what the traversal passes to
        :meth:`decide`.  Without it the run records no decisions even when
        a recorder is attached.  ``attributes`` annotate the run span.
        """
        self._describe = describe
        self._recorder = self.obs.decisions if describe is not None else None
        if self._progress is not None:
            config = self.config
            limits = {
                "max_nodes": config.max_nodes,
                "max_wall_seconds": config.max_wall_seconds,
                "max_memory_bytes": config.max_memory_bytes,
            }
            self._progress.begin_run(
                self.name,
                horizon=int(self.end_term - self.start_term),
                budget=limits if any(v is not None for v in limits.values()) else None,
            )
        self._started_at = time.perf_counter()
        return _collector_paused(
            self.obs.run(
                self.name, start=str(self.start_term), end=str(self.end_term), **attributes
            )
        )

    def finish(self) -> None:
        """Stop the run timer and publish the run's stats to metrics."""
        self.stats.stop_timer()
        self.obs.record_run_stats(self.name, self.stats)

    def exceeded(self, kind: str, limit: float, observed: float) -> BudgetExceededError:
        """The error for an exceeded limit, carrying the partial stats (timer
        stopped) and, with a tracker attached, its final snapshot."""
        self.stats.stop_timer()
        progress = self._progress
        return BudgetExceededError(
            kind, limit, observed,
            progress=progress.snapshot() if progress is not None else None,
            partial_stats=self.stats,
        )

    @property
    def recording(self) -> bool:
        """Whether this run records decision events (after :meth:`start`)."""
        return self._recorder is not None

    # -- the per-node decision ---------------------------------------------------

    def decide(
        self, status: EnrollmentStatus, ref: Any, multiplicity: int = 1
    ) -> Optional[str]:
        """Decide one node: its terminal kind, or ``None`` to expand it.

        On ``None`` the traversal expands ``status`` with
        ``required_minimum=`` :attr:`floor`, then calls :meth:`close`.
        ``multiplicity`` is how many tree nodes the node stands for (a
        merged frontier state); it weights the emitted output paths.
        """
        if self._checks:
            self._check_limits()
        goal = self.goal
        if goal is not None and goal.is_satisfied(status.completed):
            return self._terminal("goal", status, ref, multiplicity)
        if status.term >= self.end_term:
            return self._terminal("deadline", status, ref, multiplicity)
        if goal is not None and self._pruned(status, ref):
            return "pruned"

        time_pruner = self._time_pruner
        if time_pruner is None:
            self.floor = 0
            return None
        minimum = time_pruner.min_required_this_term(status)
        if math.isinf(minimum):
            # The pruner stack should have cut this node already; stay safe.
            floor = self.config.max_courses_per_term + 1
        else:
            floor = max(0, int(math.ceil(minimum)))
        self.floor = floor
        suppressed = suppressed_selection_count(len(status.options), floor)
        if suppressed:
            self.stats.record_prune("time", suppressed)
            if self._recorder is not None:
                detail = {
                    "suppressed": suppressed,
                    "floor": floor,
                    "option_count": len(status.options),
                }
                self._record(ref, status, "suppressed", "time", None, detail)
        return None

    def close(
        self,
        status: EnrollmentStatus,
        ref: Any,
        children: int,
        frontier: Optional[int] = None,
        multiplicity: int = 1,
    ) -> Optional[str]:
        """Record an expanded node: ``"dead_end"`` when it had no children,
        else ``None``.  ``frontier`` is the traversal's open-node count
        after the expansion (``None`` when it reports widths itself)."""
        if not children:
            return self._terminal("dead_end", status, ref, multiplicity)
        progress = self._progress
        if progress is not None:
            progress.record_expanded(int(status.term - self.start_term), children)
            if frontier is not None:
                progress.set_frontier(frontier)
        if self._recorder is not None:
            self._record(ref, status, "expand", None, None, {"children": children})
        return None

    def _check_limits(self) -> None:
        """Raise if the run was cancelled or is past its wall or memory limit."""
        progress = self._progress
        reason = progress.cancelled if progress is not None else None
        if reason is not None:
            self.stats.stop_timer()
            raise RunCancelledError(
                reason, progress=progress.snapshot(), partial_stats=self.stats
            )
        config = self.config
        if config.max_wall_seconds is not None:
            elapsed = time.perf_counter() - self._started_at
            if elapsed > config.max_wall_seconds:
                raise self.exceeded("wall seconds", config.max_wall_seconds, elapsed)
        if config.max_memory_bytes is not None:
            self._decided += 1
            if self._decided % MEMORY_PROBE_INTERVAL == 0:
                used = _process_memory_bytes()
                if used > config.max_memory_bytes:
                    raise self.exceeded("memory bytes", config.max_memory_bytes, used)

    # -- recording -----------------------------------------------------------------

    def _pruned(self, status: EnrollmentStatus, ref: Any) -> bool:
        obs = self.obs
        recorder = self._recorder
        # Not calling a disabled bundle's phase() saves its **attributes dict.
        with obs.phase("prune") if obs.enabled else NULL_SPAN:
            if recorder is None:
                firing = first_firing_pruner(self.pruners, status, obs)
                name = firing.name if firing is not None else None
                verdicts = None
            else:
                firing, found = examine_pruners(self.pruners, status, obs)
                name = firing.name if firing is not None else None
                verdicts = tuple(verdict.as_dict() for verdict in found)
        if name is None:
            return False
        self.stats.record_terminal("pruned")
        self.stats.record_prune(name)
        if self._progress is not None:
            self._progress.record_pruned(int(status.term - self.start_term))
        if recorder is not None:
            self._record(ref, status, "prune", name, verdicts, None)
        return True

    def _terminal(
        self, kind: str, status: EnrollmentStatus, ref: Any, multiplicity: int
    ) -> str:
        self.stats.record_terminal(kind)
        progress = self._progress
        if progress is not None:
            progress.record_terminal(kind, int(status.term - self.start_term))
            if kind in self.outputs:
                progress.record_emit(multiplicity)
        if self._recorder is not None:
            self._record(ref, status, kind, None, None, None)
        return kind

    def _record(self, ref, status, kind, strategy, verdicts, detail) -> None:
        identity = self._describe(ref, kind)
        if identity is None:
            return
        node_id, parent_id, selection, extra = identity
        if extra:
            detail = {**detail, **extra} if detail else extra
        self._recorder.record(
            DecisionEvent(
                kind=kind,
                node_id=node_id,
                parent_id=parent_id,
                term=str(status.term),
                selection=selection,
                completed=tuple(sorted(status.completed)),
                strategy=strategy,
                verdicts=verdicts or (),
                detail=detail or {},
            )
        )
