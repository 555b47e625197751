"""The CourseNavigator façade — the system of the paper's Fig. 2.

One object ties the pieces together for application code: a validated
:class:`~repro.catalog.Catalog` (built by the registrar parsers), an
optional :class:`~repro.catalog.OfferingModel`, and the three exploration
tasks as methods taking student-level arguments (current semester,
completed courses, goal, constraints, ranking choice).

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

from typing import AbstractSet, List, Optional, Tuple, Union

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
    count_deadline_paths,
    count_goal_paths,
    generate_deadline_driven,
    generate_goal_driven,
    generate_ranked,
)
from ..core.pruning import Pruner
from ..analysis import check_containment, ContainmentReport, is_generated_goal_path
from ..cache import ExplorationCache
from ..errors import ExplorationError
from ..graph.path import LearningPath
from ..obs import (
    DecisionRecorder,
    ExplorationBudget,
    MetricsRegistry,
    Observability,
    ProgressTracker,
    Tracer,
)
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
    tracer:
        Optional :class:`~repro.obs.Tracer`; every exploration run this
        navigator performs emits spans into its sinks.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`; run counters and
        per-phase duration histograms accumulate into it.
    capture_memory:
        When true, each run records its ``tracemalloc`` allocation peak
        (noticeably slower; for memory studies only).
    decisions:
        Optional :class:`~repro.obs.DecisionRecorder`; every exploration
        run this navigator performs records its expansion/prune/terminal
        decisions into it (the EXPLAIN layer).
    progress:
        Optional :class:`~repro.obs.ProgressTracker`; every run feeds it
        incrementally so other threads can watch live (snapshots, the
        ``/progress`` endpoint, the TTY progress line).
    budget:
        Optional :class:`~repro.obs.ExplorationBudget`; every run ticks it
        and dies with :class:`~repro.errors.BudgetExceededError` (carrying
        the final progress snapshot) when a wall/node/memory limit is hit
        or another thread cancels it.
    cache:
        Optional :class:`~repro.cache.ExplorationCache`.  Every run this
        navigator performs shares it, so repeated queries over the one
        catalog reuse flow results, option sets and pruning verdicts —
        with identical outputs (the cache only replays pure functions).
        When a ``metrics`` registry is also given, cache hit/miss/eviction
        counters are emitted into it.

    With none of the observability arguments, runs are completely
    uninstrumented (the engine's no-op fast path).
    """

    def __init__(
        self,
        catalog: Catalog,
        offering_model: Optional[OfferingModel] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        capture_memory: bool = False,
        decisions: Optional[DecisionRecorder] = None,
        progress: Optional[ProgressTracker] = None,
        budget: Optional[ExplorationBudget] = None,
        cache: Optional[ExplorationCache] = None,
    ):
        self._catalog = catalog
        self._offering_model = offering_model or catalog.offering_model
        self._cache = cache
        if cache is not None and metrics is not None:
            cache.bind_metrics(metrics)
        if (
            tracer is None
            and metrics is None
            and not capture_memory
            and decisions is None
            and progress is None
            and budget is None
        ):
            self._obs: Optional[Observability] = None
        else:
            self._obs = Observability(
                tracer=tracer,
                metrics=metrics,
                capture_memory=capture_memory,
                decisions=decisions,
                progress=progress,
                budget=budget,
            )

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

    def _config(
        self,
        config: Optional[ExplorationConfig],
        max_courses_per_term: Optional[int],
        avoid_courses: Optional[AbstractSet[str]],
        max_nodes: Optional[int],
    ) -> ExplorationConfig:
        if config is not None:
            return config
        kwargs = {}
        if max_courses_per_term is not None:
            kwargs["max_courses_per_term"] = max_courses_per_term
        if avoid_courses is not None:
            kwargs["avoid_courses"] = frozenset(avoid_courses)
        if max_nodes is not None:
            kwargs["max_nodes"] = max_nodes
        return ExplorationConfig(**kwargs)

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
        max_courses_per_term: Optional[int] = None,
        avoid_courses: Optional[AbstractSet[str]] = None,
        max_nodes: Optional[int] = None,
    ) -> DeadlineResult:
        """All learning paths until ``end_term`` (Algorithm 1)."""
        return generate_deadline_driven(
            self._catalog,
            start_term,
            end_term,
            completed=completed,
            config=self._config(config, max_courses_per_term, avoid_courses, max_nodes),
            obs=self._obs,
            cache=self._cache,
        )

    def explore_goal(
        self,
        start_term: Term,
        goal: Goal,
        end_term: Term,
        completed: AbstractSet[str] = frozenset(),
        config: Optional[ExplorationConfig] = None,
        max_courses_per_term: Optional[int] = None,
        avoid_courses: Optional[AbstractSet[str]] = None,
        max_nodes: Optional[int] = None,
        pruners: Optional[List[Pruner]] = None,
    ) -> GoalDrivenResult:
        """All paths meeting ``goal`` by ``end_term`` (goal-driven, §4.2)."""
        return generate_goal_driven(
            self._catalog,
            start_term,
            goal,
            end_term,
            completed=completed,
            config=self._config(config, max_courses_per_term, avoid_courses, max_nodes),
            pruners=pruners,
            obs=self._obs,
            cache=self._cache,
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
        max_courses_per_term: Optional[int] = None,
        avoid_courses: Optional[AbstractSet[str]] = None,
        max_nodes: Optional[int] = None,
    ) -> RankedResult:
        """The top-``k`` goal paths under a ranking (§4.3)."""
        return generate_ranked(
            self._catalog,
            start_term,
            goal,
            end_term,
            k,
            self.resolve_ranking(ranking),
            completed=completed,
            config=self._config(config, max_courses_per_term, avoid_courses, max_nodes),
            obs=self._obs,
            cache=self._cache,
        )

    # -- counting mode ---------------------------------------------------------------

    def count_deadline(
        self,
        start_term: Term,
        end_term: Term,
        completed: AbstractSet[str] = frozenset(),
        config: Optional[ExplorationConfig] = None,
    ) -> int:
        """Exact deadline-driven path count via the merged DAG."""
        return count_deadline_paths(
            self._catalog,
            start_term,
            end_term,
            completed=completed,
            config=config,
            cache=self._cache,
            obs=self._obs,
        )

    def count_goal(
        self,
        start_term: Term,
        goal: Goal,
        end_term: Term,
        completed: AbstractSet[str] = frozenset(),
        config: Optional[ExplorationConfig] = None,
    ) -> int:
        """Exact goal-driven path count via the merged DAG."""
        return count_goal_paths(
            self._catalog,
            start_term,
            goal,
            end_term,
            completed=completed,
            config=config,
            cache=self._cache,
            obs=self._obs,
        )

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
