"""The CourseNavigator façade — the system of the paper's Fig. 2.

One object ties the pieces together for application code: a validated
:class:`~repro.catalog.Catalog` (built by the registrar parsers), an
optional :class:`~repro.catalog.OfferingModel`, and the three exploration
tasks as methods taking student-level arguments (current semester,
completed courses, goal, ranking choice).  Each run is described by the
same two objects the engines take: the call's
:class:`~repro.core.ExplorationConfig` (``m``, the avoid list, run
limits), passed through unchanged, and the navigator's one
:class:`~repro.obs.Observability` bundle.

    >>> from repro.data import brandeis_catalog, brandeis_major_goal
    >>> from repro.semester import Term
    >>> nav = CourseNavigator(brandeis_catalog())
    >>> result = nav.explore_ranked(
    ...     start_term=Term(2013, "Fall"),
    ...     goal=brandeis_major_goal(),
    ...     end_term=Term(2015, "Fall"),
    ...     k=3,
    ... )
    >>> len(result.paths) <= 3
    True
"""

from __future__ import annotations

from typing import AbstractSet, List, Optional, Sequence, Tuple, Union

from ..catalog import Catalog, OfferingModel
from ..core import (
    DeadlineResult,
    ExplorationConfig,
    GoalDrivenResult,
    RankedResult,
    RankingFunction,
    ReliabilityRanking,
    TimeRanking,
    WorkloadRanking,
    frontier_count_deadline_paths,
    frontier_count_goal_paths,
    generate_deadline_driven,
    generate_goal_driven,
    generate_ranked,
)
from ..core.pruning import PrunerFactory
from ..analysis import check_containment, ContainmentReport, is_generated_goal_path
from ..cache import ExplorationCache
from ..errors import ExplorationError
from ..graph.path import LearningPath
from ..obs import Observability
from ..requirements import Goal
from ..semester import Term

__all__ = ["CourseNavigator"]

RankingSpec = Union[str, RankingFunction]


class CourseNavigator:
    """Interactive learning-path exploration over one catalog.

    Parameters
    ----------
    catalog:
        The validated course catalog (courses + schedule).
    offering_model:
        Probability model for reliability ranking; defaults to the
        catalog's own (deterministic) model.
    obs:
        Optional :class:`~repro.obs.Observability` bundle; every run this
        navigator performs reports into it (spans, metrics, decision
        audit, live telemetry, memory peaks — whichever backends it
        holds).  ``None`` runs uninstrumented (the engine's no-op fast
        path).  Run limits (nodes, wall time, memory) are
        :class:`~repro.core.ExplorationConfig` fields, given per call.
    cache:
        Optional :class:`~repro.cache.ExplorationCache`.  Every goal run
        this navigator performs asks the goal through it
        (``cache.wrap_goal(goal)``), so repeated queries over the one
        catalog reuse ``left_i`` and satisfaction answers — with identical
        outputs (the cache only replays pure functions).  Deadline runs
        have no goal and do not use it.
        When ``obs`` holds a metrics registry, cache hit/miss/eviction
        counters are emitted into it.
    """

    def __init__(
        self,
        catalog: Catalog,
        offering_model: Optional[OfferingModel] = None,
        obs: Optional[Observability] = None,
        cache: Optional[ExplorationCache] = None,
    ):
        self._catalog = catalog
        self._offering_model = offering_model or catalog.offering_model
        self._obs = obs
        self._cache = cache
        if cache is not None and obs is not None and obs.metrics is not None:
            cache.bind_metrics(obs.metrics)

    @property
    def catalog(self) -> Catalog:
        """The catalog this navigator explores."""
        return self._catalog

    @property
    def offering_model(self) -> OfferingModel:
        """The offering-probability model used by reliability ranking."""
        return self._offering_model

    @property
    def observability(self) -> Optional[Observability]:
        """The observability bundle runs report into (``None`` when off)."""
        return self._obs

    @property
    def cache(self) -> Optional[ExplorationCache]:
        """The exploration cache shared by this navigator's runs."""
        return self._cache

    # -- configuration helpers ------------------------------------------------

    def _goal(self, goal: Goal) -> Goal:
        """``goal``, answered through the cache when there is one."""
        return goal if self._cache is None else self._cache.wrap_goal(goal)

    def resolve_ranking(self, ranking: RankingSpec) -> RankingFunction:
        """Turn ``"time"`` / ``"workload"`` / ``"reliability"`` (or an
        already-built :class:`RankingFunction`) into a ranking instance."""
        if isinstance(ranking, RankingFunction):
            return ranking
        if ranking == "time":
            return TimeRanking()
        if ranking == "workload":
            return WorkloadRanking(self._catalog)
        if ranking == "reliability":
            return ReliabilityRanking(self._offering_model)
        raise ExplorationError(
            f"unknown ranking {ranking!r}; use 'time', 'workload', 'reliability', "
            f"or a RankingFunction instance"
        )

    # -- the three exploration tasks ---------------------------------------------

    def explore_deadline(
        self,
        start_term: Term,
        end_term: Term,
        completed: AbstractSet[str] = frozenset(),
        config: Optional[ExplorationConfig] = None,
    ) -> DeadlineResult:
        """All learning paths until ``end_term`` (Algorithm 1)."""
        return generate_deadline_driven(
            self._catalog,
            start_term,
            end_term,
            completed=completed,
            config=config,
            obs=self._obs,
        )

    def explore_goal(
        self,
        start_term: Term,
        goal: Goal,
        end_term: Term,
        completed: AbstractSet[str] = frozenset(),
        config: Optional[ExplorationConfig] = None,
        pruners: Optional[Sequence[PrunerFactory]] = None,
    ) -> GoalDrivenResult:
        """All paths meeting ``goal`` by ``end_term`` (goal-driven, §4.2)."""
        return generate_goal_driven(
            self._catalog,
            start_term,
            self._goal(goal),
            end_term,
            completed=completed,
            config=config,
            pruners=pruners,
            obs=self._obs,
        )

    def explore_ranked(
        self,
        start_term: Term,
        goal: Goal,
        end_term: Term,
        k: int,
        ranking: RankingSpec = "time",
        completed: AbstractSet[str] = frozenset(),
        config: Optional[ExplorationConfig] = None,
    ) -> RankedResult:
        """The top-``k`` goal paths under a ranking (§4.3)."""
        return generate_ranked(
            self._catalog,
            start_term,
            self._goal(goal),
            end_term,
            k,
            self.resolve_ranking(ranking),
            completed=completed,
            config=config,
            obs=self._obs,
        )

    # -- counting mode ---------------------------------------------------------------

    def count_deadline(
        self,
        start_term: Term,
        end_term: Term,
        completed: AbstractSet[str] = frozenset(),
        config: Optional[ExplorationConfig] = None,
    ) -> int:
        """Exact deadline-driven path count via the frontier DP."""
        return frontier_count_deadline_paths(
            self._catalog,
            start_term,
            end_term,
            completed=completed,
            config=config,
            obs=self._obs,
        ).path_count

    def count_goal(
        self,
        start_term: Term,
        goal: Goal,
        end_term: Term,
        completed: AbstractSet[str] = frozenset(),
        config: Optional[ExplorationConfig] = None,
    ) -> int:
        """Exact goal-driven path count via the frontier DP."""
        return frontier_count_goal_paths(
            self._catalog,
            start_term,
            self._goal(goal),
            end_term,
            completed=completed,
            config=config,
            obs=self._obs,
        ).path_count

    # -- transcript auditing ------------------------------------------------------------

    def check_transcript(
        self,
        path: LearningPath,
        goal: Goal,
        end_term: Term,
        config: Optional[ExplorationConfig] = None,
    ) -> Tuple[bool, str]:
        """Whether one candidate path is a valid generated goal path."""
        return is_generated_goal_path(self._catalog, goal, path, end_term, config)

    def check_transcripts(
        self,
        paths: List[LearningPath],
        goal: Goal,
        end_term: Term,
        config: Optional[ExplorationConfig] = None,
    ) -> ContainmentReport:
        """Containment report over many candidate paths (§5.2)."""
        return check_containment(self._catalog, goal, paths, end_term, config)
