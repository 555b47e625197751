"""Frontier dynamic-programming path counting (memory-lean extension).

The merged-status DAG (:mod:`repro.core.counting`) stores every distinct
status it ever visits, which still exhausts memory at the horizons where
the paper reports tens of millions of goal paths (Table 2, 6–7 semesters:
the authors used a 32 GB server).  For *counting* purposes even the DAG is
more than needed: path counts can be pushed forward term by term, keeping
only one frontier layer at a time —

    frontier[t] : {completed-set → number of selection sequences reaching it}

Each term, every state either terminates (goal satisfied → its
multiplicity joins the total; deadline reached → dropped) or expands its
selections into the next layer.  Peak memory is the widest single layer
rather than the union of all layers, and per-state storage is one
frozenset and one integer.

This is an extension beyond the paper (documented in DESIGN.md), used by
the Table 2 benchmark to regenerate the large goal-driven rows.  It
produces exactly the same counts as the tree and DAG algorithms
(property-tested), including identical pruning behaviour.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, FrozenSet, List, Optional

from ..catalog import Catalog
from ..errors import ExplorationError
from ..graph.status import EnrollmentStatus
from ..obs.explain import DecisionEvent
from ..obs.live import budget_exceeded
from ..obs.runtime import NULL_OBSERVABILITY, Observability
from ..obs.tracing import Stopwatch
from ..requirements import Goal
from ..semester import Term
from .config import ExplorationConfig
from .expansion import Expander
from .goal_driven import _selection_floor
from .pruning import (
    AvailabilityPruner,
    Pruner,
    PruningContext,
    PruningStats,
    TimeBasedPruner,
    default_pruners,
    examine_pruners,
    first_firing_pruner,
    suppressed_selection_count,
)

__all__ = ["FrontierCount", "frontier_count_goal_paths", "frontier_count_deadline_paths"]


@dataclass
class FrontierCount:
    """Result of a frontier-DP counting run."""

    path_count: int
    peak_frontier: int
    total_states: int
    elapsed_seconds: float = 0.0
    pruning_stats: Optional[PruningStats] = None
    layer_widths: List[int] = field(default_factory=list)
    #: Exact number of tree paths ending at each terminal kind
    #: (``goal`` / ``deadline`` / ``dead_end`` / ``pruned``) — the
    #: multiplicity-weighted leaf census of the tree the paper's algorithm
    #: would have built.  ``explored_path_count`` (everything except
    #: ``pruned``) is Table 1's "# of paths" column.
    terminal_path_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def explored_path_count(self) -> int:
        """Tree leaves actually reached (all kinds except ``pruned``)."""
        return sum(
            count
            for kind, count in self.terminal_path_counts.items()
            if kind != "pruned"
        )


def _check_inputs(
    catalog: Catalog, start_term: Term, end_term: Term, completed: AbstractSet[str]
) -> None:
    if end_term < start_term:
        raise ExplorationError(f"end term {end_term} precedes start term {start_term}")
    unknown = frozenset(completed) - catalog.course_ids()
    if unknown:
        raise ExplorationError(f"completed courses not in catalog: {sorted(unknown)}")


def _run_frontier(
    catalog: Catalog,
    start_term: Term,
    end_term: Term,
    completed: AbstractSet[str],
    config: ExplorationConfig,
    goal: Optional[Goal],
    pruners: List[Pruner],
    time_pruner: Optional[TimeBasedPruner],
    count_dead_ends: bool,
    max_frontier: Optional[int],
    obs: Observability,
    cache=None,
) -> FrontierCount:
    watch = Stopwatch()
    watch.start()
    expander = Expander(catalog, end_term, config, obs=obs)
    transpositions = (
        cache.transposition_view(goal, end_term, config, pruners)
        if cache is not None and goal is not None and pruners
        else None
    )
    pruning_stats = PruningStats()
    # The built-in bounds only read (term, completed), so option sets need
    # deriving only for states that survive to expansion; a third-party
    # pruner may inspect status.options, so its presence keeps the eager
    # derivation order.
    lazy_options = all(
        isinstance(p, (TimeBasedPruner, AvailabilityPruner)) for p in pruners
    )

    frontier: Dict[FrozenSet[str], int] = {frozenset(completed): 1}
    term = start_term
    peak = len(frontier)
    total_states = len(frontier)
    widths = [len(frontier)]
    terminal_counts: Dict[str, int] = {}
    instrumented = obs.enabled
    recorder = obs.decisions
    progress = obs.progress
    budget = obs.budget
    run_name = "frontier_goal" if goal is not None else "frontier_deadline"
    if progress is not None:
        progress.begin_run(run_name, horizon=int(end_term - start_term))
    if budget is not None:
        budget.arm()
    # Frontier states are merged, so decision events carry synthetic ids
    # and no parent linkage; ``multiplicity`` says how many tree nodes the
    # one recorded decision stands for.
    next_eid = itertools.count()

    def _terminate(kind: str, multiplicity: int) -> None:
        terminal_counts[kind] = terminal_counts.get(kind, 0) + multiplicity

    def _record(kind: str, status: EnrollmentStatus, multiplicity: int, **kwargs) -> None:
        detail = dict(kwargs.pop("detail", {}))
        detail["multiplicity"] = multiplicity
        recorder.record(
            DecisionEvent(
                kind=kind,
                node_id=next(next_eid),
                parent_id=None,
                term=str(status.term),
                completed=tuple(sorted(status.completed)),
                detail=detail,
                **kwargs,
            )
        )

    with obs.run(run_name, start=str(start_term), end=str(end_term)):
        while frontier and term <= end_term:
            next_frontier: Dict[FrozenSet[str], int] = {}
            depth = int(term - start_term) if progress is not None else 0
            for state, multiplicity in frontier.items():
                if budget is not None:
                    budget.tick(None, progress)
                if lazy_options:
                    status = expander.bare_status(term, state)
                else:
                    status = EnrollmentStatus(
                        term=term, completed=state, options=expander.options(state, term)
                    )
                if goal is not None and goal.is_satisfied(state):
                    _terminate("goal", multiplicity)
                    if progress is not None:
                        progress.record_terminal("goal", depth)
                        progress.record_emit(multiplicity)
                    if recorder is not None:
                        _record("goal", status, multiplicity)
                    continue
                if term >= end_term:
                    _terminate("deadline", multiplicity)
                    if progress is not None:
                        progress.record_terminal("deadline", depth)
                    if recorder is not None:
                        _record("deadline", status, multiplicity)
                    continue
                if goal is not None:
                    if transpositions is not None:
                        with obs.phase("prune"):
                            firing_name, verdict_dicts = transpositions.consult(
                                pruners, status, obs, want_verdicts=recorder is not None
                            )
                    elif recorder is None:
                        with obs.phase("prune"):
                            firing = first_firing_pruner(pruners, status, obs)
                        firing_name = firing.name if firing is not None else None
                        verdict_dicts = None
                    else:
                        with obs.phase("prune"):
                            firing, verdicts = examine_pruners(pruners, status, obs)
                        firing_name = firing.name if firing is not None else None
                        verdict_dicts = tuple(v.as_dict() for v in verdicts)
                    if firing_name is not None:
                        pruning_stats.record(firing_name)
                        _terminate("pruned", multiplicity)
                        if progress is not None:
                            progress.record_pruned(depth)
                        if recorder is not None:
                            _record(
                                "prune",
                                status,
                                multiplicity,
                                strategy=firing_name,
                                verdicts=verdict_dicts,
                            )
                        continue
                    if lazy_options:
                        # Survived every terminal check: expansion is next,
                        # so the option set is finally needed.
                        status = expander.attach_options(status)
                    floor = _selection_floor(time_pruner, config, status)
                    suppressed = suppressed_selection_count(len(status.options), floor)
                    if suppressed:
                        pruning_stats.record("time", suppressed)
                        if recorder is not None:
                            _record(
                                "suppressed",
                                status,
                                multiplicity,
                                strategy="time",
                                detail={
                                    "suppressed": suppressed,
                                    "floor": floor,
                                    "option_count": len(status.options),
                                },
                            )
                else:
                    floor = 0
                    if lazy_options:
                        status = expander.attach_options(status)
                if instrumented:
                    # Split successor generation from layer merging so the
                    # two phases are visible separately in the breakdown.
                    with obs.phase("expand"):
                        children = [
                            child.completed
                            for _selection, child in expander.successors(
                                status, required_minimum=floor
                            )
                        ]
                    expanded = bool(children)
                    if expanded and progress is not None:
                        progress.record_expanded(depth, len(children))
                    with obs.phase("merge"):
                        for key in children:
                            next_frontier[key] = next_frontier.get(key, 0) + multiplicity
                else:
                    expanded = False
                    for _selection, child in expander.successors(
                        status, required_minimum=floor
                    ):
                        key = child.completed
                        next_frontier[key] = next_frontier.get(key, 0) + multiplicity
                        expanded = True
                if not expanded:
                    _terminate("dead_end", multiplicity)
                    if progress is not None:
                        progress.record_terminal("dead_end", depth)
                    if recorder is not None:
                        _record("dead_end", status, multiplicity)
                # Check the budget as the layer grows (not just once it is
                # complete) so an exploding layer fails fast instead of
                # exhausting memory first.
                if max_frontier is not None and len(next_frontier) > max_frontier:
                    raise budget_exceeded(
                        "frontier states", max_frontier, len(next_frontier),
                        progress=progress, budget=budget,
                    )
            frontier = next_frontier
            term = term + 1
            if progress is not None:
                progress.set_frontier(len(frontier))
            if frontier:
                peak = max(peak, len(frontier))
                total_states += len(frontier)
                widths.append(len(frontier))

    if goal is not None:
        total = terminal_counts.get("goal", 0)
    else:
        # Deadline mode: every maximal path — deadline leaves + dead ends.
        total = terminal_counts.get("deadline", 0) + (
            terminal_counts.get("dead_end", 0) if count_dead_ends else 0
        )
    watch.stop()
    return FrontierCount(
        path_count=total,
        peak_frontier=peak,
        total_states=total_states,
        elapsed_seconds=watch.elapsed,
        pruning_stats=pruning_stats if goal is not None else None,
        layer_widths=widths,
        terminal_path_counts=terminal_counts,
    )


def frontier_count_goal_paths(
    catalog: Catalog,
    start_term: Term,
    goal: Goal,
    end_term: Term,
    completed: AbstractSet[str] = frozenset(),
    config: Optional[ExplorationConfig] = None,
    pruners: Optional[List[Pruner]] = None,
    max_frontier: Optional[int] = None,
    obs: Optional[Observability] = None,
    cache=None,
) -> FrontierCount:
    """Exact goal-driven path count with one-layer memory.

    Semantics match :func:`~repro.core.goal_driven.generate_goal_driven`
    exactly; ``max_frontier`` bounds the widest layer, raising
    :class:`~repro.errors.BudgetExceededError` beyond it.  ``obs`` is an
    optional :class:`~repro.obs.runtime.Observability` bundle (span
    ``run:frontier_goal`` with ``expand``/``merge``/``prune`` phases);
    ``cache`` an optional :class:`~repro.cache.ExplorationCache`
    (count-identical, like all cached runs).
    """
    config = config or ExplorationConfig()
    _check_inputs(catalog, start_term, end_term, completed)
    if cache is not None:
        goal = cache.wrap_goal(goal)
    context = PruningContext(
        catalog=catalog, goal=goal, end_term=end_term, config=config, cache=cache
    )
    if pruners is None:
        pruners = default_pruners(context)
    time_pruner = next((p for p in pruners if isinstance(p, TimeBasedPruner)), None)
    return _run_frontier(
        catalog,
        start_term,
        end_term,
        completed,
        config,
        goal,
        pruners,
        time_pruner,
        count_dead_ends=False,
        max_frontier=max_frontier,
        obs=obs if obs is not None else NULL_OBSERVABILITY,
        cache=cache,
    )


def frontier_count_deadline_paths(
    catalog: Catalog,
    start_term: Term,
    end_term: Term,
    completed: AbstractSet[str] = frozenset(),
    config: Optional[ExplorationConfig] = None,
    max_frontier: Optional[int] = None,
    obs: Optional[Observability] = None,
    cache=None,
) -> FrontierCount:
    """Exact deadline-driven path count with one-layer memory.

    Counts match :func:`~repro.core.deadline.generate_deadline_driven`:
    deadline leaves plus dead ends.
    """
    config = config or ExplorationConfig()
    _check_inputs(catalog, start_term, end_term, completed)
    return _run_frontier(
        catalog,
        start_term,
        end_term,
        completed,
        config,
        goal=None,
        pruners=[],
        time_pruner=None,
        count_dead_ends=True,
        max_frontier=max_frontier,
        obs=obs if obs is not None else NULL_OBSERVABILITY,
        cache=cache,
    )
