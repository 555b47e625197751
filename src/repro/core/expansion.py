"""Shared status-expansion machinery.

All three generators perform the same elementary step: given an enrollment
status, enumerate the legal selections ``W`` and the successor states
``(s+1, X ∪ W)``.  :class:`Expander` centralizes that step — option-set
computation, the per-term cap, avoid-lists, the empty-selection policy,
and the schedule override — so the algorithms differ only in *which*
nodes they decide and when they stop.  An engine builds a node's status
only where it decides that node, and the status derives ``Y`` on first
read, so only expanded nodes pay for their option set.

Many nodes of one run share an option set (Table 1 at 5 semesters
expands 1,507 nodes with 57 distinct ``Y``), so each expander keeps the
selection list of every ``(Y, floor)`` it enumerated in a memo bounded by
:data:`SELECTION_MEMO_SIZE` selections; children with equal moves share
one selection frozenset.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, FrozenSet, Iterator, Optional, Tuple

from ..catalog import Catalog, Schedule
from ..graph.status import EnrollmentStatus
from ..semester import Term
from .config import ExplorationConfig
from .constraints import check_all
from .options import iter_selections

__all__ = ["Expander", "SELECTION_MEMO_SIZE"]

#: Selections one expander's memo holds at most, over all its entries
#: (~1.7 MB of 3-course frozensets); the oldest entry is dropped first,
#: and a list longer than the whole bound is not kept.
SELECTION_MEMO_SIZE = 8192

_NO_SELECTION: FrozenSet[str] = frozenset()


class Expander:
    """Successor generation for one exploration run.

    Parameters
    ----------
    catalog:
        The validated course catalog.
    end_term:
        The exploration deadline ``d``: :meth:`offered_from` offers only
        what can still complete by it.
    config:
        Student constraints and engine knobs.

    Option sets come straight from the catalog's compiled, memoised
    :meth:`~repro.catalog.Catalog.eligible_courses`, so transposed statuses
    and repeated runs over one catalog share each ``Y``.
    """

    def __init__(
        self,
        catalog: Catalog,
        end_term: Term,
        config: ExplorationConfig,
        obs=None,
    ):
        self._catalog = catalog
        self._end_term = end_term
        self._config = config
        self._schedule = config.schedule if config.schedule is not None else catalog.schedule
        # Resolve the metrics counter once up front so options() pays only a
        # None check per call when observability is off (the common case).
        self._options_counter = None
        if obs is not None and obs.metrics is not None:
            self._options_counter = obs.metrics.counter(
                "repro_option_sets_computed_total",
                "eligible-course option sets computed by the expander",
            )
        self._selection_memo: Dict[Tuple[FrozenSet[str], int], Tuple[FrozenSet[str], ...]] = {}
        self._memo_held = 0
        self._offered_from: Dict[Term, FrozenSet[str]] = {}

    @property
    def catalog(self) -> Catalog:
        """The catalog this expander reads."""
        return self._catalog

    @property
    def end_term(self) -> Term:
        """The exploration deadline ``d``."""
        return self._end_term

    @property
    def config(self) -> ExplorationConfig:
        """The active configuration."""
        return self._config

    @property
    def schedule(self) -> Schedule:
        """The effective schedule: ``config.schedule`` or the catalog's."""
        return self._schedule

    # -- status construction -------------------------------------------------

    def options(self, completed: AbstractSet[str], term: Term) -> FrozenSet[str]:
        """The option set ``Y`` for ``completed`` at ``term``
        (honouring the avoid-list and schedule override)."""
        if self._options_counter is not None:
            self._options_counter.inc()
        return self._catalog.eligible_courses(
            completed,
            term,
            exclude=self._config.avoid_courses,
            schedule=self._schedule,
        )

    def offered_from(self, term: Term) -> FrozenSet[str]:
        """Courses offered in some term of ``[term, d − 1]`` under the
        effective schedule, minus the avoid-list (cached per term).

        A course taken in ``t`` completes by ``t + 1``, so this is all a
        student at ``term`` could still complete by ``d``: the
        availability pruner's best case, and what the ``auto`` empty move
        waits for.
        """
        offered = self._offered_from.get(term)
        if offered is None:
            last_useful = self._end_term - 1
            if last_useful < term:
                offered = frozenset()
            else:
                offered = (
                    self._schedule.offered_between(term, last_useful)
                    - self._config.avoid_courses
                )
            self._offered_from[term] = offered
        return offered

    def initial_status(
        self, term: Term, completed: AbstractSet[str] = frozenset()
    ) -> EnrollmentStatus:
        """The start node ``n_1`` (or a merged frontier state): ``(s, X, Y)``
        with ``Y`` derived by :meth:`options` on first read."""
        return EnrollmentStatus.deferred(term, frozenset(completed), self)

    # -- the expansion step ----------------------------------------------------

    def successors(
        self, status: EnrollmentStatus, required_minimum: int = 0
    ) -> Iterator[Tuple[FrozenSet[str], FrozenSet[str]]]:
        """Yield ``(selection, X ∪ W)`` for every legal move.

        ``required_minimum`` is the strategic-selection floor ``min_i``
        derived by time-based pruning (0 when unconstrained): non-empty
        selections smaller than it are skipped, and the empty move is
        suppressed whenever it is positive (an empty move under a positive
        floor provably leads to a child the time pruner rejects).

        No child status is built: the child of a move is the state
        ``(status.term + 1, X ∪ W)``, and a caller builds its status with
        :meth:`initial_status` only where it decides that node.  Each call
        builds a fresh ``X ∪ W`` (an empty move yields ``X`` itself).  The
        moves are a function of ``status``'s ``(term, X)`` alone, so the
        out-tree asks once per distinct state and shares the sets and
        statuses itself (:func:`~repro.core.deadline.grow_tree`); the
        frontier merges equal sets per layer, and best-first search keeps
        a pushed move's cost and bound, not its set.

        Does **not** check the deadline — callers decide which nodes are
        terminal before asking for successors.
        """
        constraints = self._config.constraints
        floor = required_minimum if required_minimum > 0 else 0
        term = status.term
        completed = status.completed
        emitted_any = False
        options = status.options
        if options:
            for selection in self._selections(options, floor if floor > 1 else 1):
                if constraints and not check_all(constraints, selection, term, status):
                    continue
                emitted_any = True
                yield selection, completed | selection
        if floor == 0 and self._empty_move_allowed(status, emitted_any):
            if not constraints or check_all(constraints, _NO_SELECTION, term, status):
                yield _NO_SELECTION, completed

    def successor(
        self, status: EnrollmentStatus, selection: AbstractSet[str]
    ) -> Optional[EnrollmentStatus]:
        """The child status ``selection`` leads to from ``status``, or
        ``None`` when :meth:`successors` offers no such move."""
        for move, completed in self.successors(status):
            if move == selection:
                return self.initial_status(status.term + 1, completed)
        return None

    def _selections(
        self, options: FrozenSet[str], minimum: int
    ) -> Tuple[FrozenSet[str], ...]:
        """Every selection ``W ⊆ options`` with ``minimum ≤ |W| ≤ m``, in
        :func:`~repro.core.options.iter_selections` order, memoised."""
        key = (options, minimum)
        memo = self._selection_memo
        selections = memo.get(key)
        if selections is None:
            selections = tuple(
                iter_selections(options, self._config.max_courses_per_term, minimum)
            )
            if len(selections) <= SELECTION_MEMO_SIZE:
                self._memo_held += len(selections)
                while self._memo_held > SELECTION_MEMO_SIZE:
                    self._memo_held -= len(memo.pop(next(iter(memo))))
                memo[key] = selections
        return selections

    def _empty_move_allowed(self, status: EnrollmentStatus, has_nonempty: bool) -> bool:
        policy = self._config.empty_selection
        if policy == "never":
            return False
        if policy == "always":
            return True
        # "auto" (paper-faithful): an empty transition exists only when no
        # course can actually be elected — an empty option set, or every
        # selection blocked by constraints (a blackout term) — and a course
        # not yet completed is offered after this term in time to complete
        # by d.  Fig. 3's n4 may wait (11A returns in Fall '12); n6 stops.
        if has_nonempty:
            return False
        return not self.offered_from(status.term + 1) <= status.completed
