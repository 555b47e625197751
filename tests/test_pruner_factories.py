"""Every run builds its pruners from its own goal and expander.

``pruners=`` takes factories (a ``Pruner`` subclass or any callable
``(goal, expander) -> Pruner``), so an explicit stack sees the goal the run
queries: timed runs charge its queries to the ``goal`` phase and cached
runs answer them from the cache, exactly as for the default stack.
Workload: Table 1 at 4 semesters (the Brandeis major, ``m = 3``).
"""

import pytest

from repro import CourseNavigator
from repro.cache import ExplorationCache
from repro.core import (
    AvailabilityPruner,
    ExplorationConfig,
    TimeBasedPruner,
    TimeRanking,
    frontier_count_goal_paths,
    generate_goal_driven,
    generate_ranked,
)
from repro.data import brandeis_catalog, brandeis_major_goal, start_term_for_semesters
from repro.data.brandeis import EVALUATION_END_TERM
from repro.obs import MetricsRegistry, Observability

START = start_term_for_semesters(4)
CONFIG = ExplorationConfig(max_courses_per_term=3)
EXPLICIT = [TimeBasedPruner, AvailabilityPruner]

ENGINES = {
    "tree": lambda catalog, pruners, obs: generate_goal_driven(
        catalog, START, brandeis_major_goal(), EVALUATION_END_TERM,
        config=CONFIG, pruners=pruners, obs=obs,
    ).path_count,
    "frontier": lambda catalog, pruners, obs: frontier_count_goal_paths(
        catalog, START, brandeis_major_goal(), EVALUATION_END_TERM,
        config=CONFIG, pruners=pruners, obs=obs,
    ).path_count,
    "ranked": lambda catalog, pruners, obs: len(
        generate_ranked(
            catalog, START, brandeis_major_goal(), EVALUATION_END_TERM, 10,
            TimeRanking(), config=CONFIG, pruners=pruners, obs=obs,
        )
    ),
}


@pytest.fixture(scope="module")
def catalog():
    return brandeis_catalog()


def _goal_phase_entries(engine, catalog, pruners):
    """``(output, goal-phase entries)`` of one timed run."""
    registry = MetricsRegistry()
    output = ENGINES[engine](catalog, pruners, Observability(metrics=registry))
    return output, registry.get("repro_phase_duration_seconds", labels={"phase": "goal"}).count


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_explicit_stack_is_timed_like_the_default(catalog, engine):
    default = _goal_phase_entries(engine, catalog, None)
    assert _goal_phase_entries(engine, catalog, EXPLICIT) == default
    if engine == "tree":
        assert default == (905, 7282)


def _cache_lookups(catalog, pruners):
    cache = ExplorationCache()
    navigator = CourseNavigator(catalog, cache=cache)
    result = navigator.explore_goal(
        START, brandeis_major_goal(), EVALUATION_END_TERM, config=CONFIG, pruners=pruners
    )
    flow = cache.counter_totals()["flow"]
    return result.path_count, flow["hits"] + flow["misses"]


def test_explicit_stack_goes_through_the_navigator_cache(catalog):
    default = _cache_lookups(catalog, None)
    assert _cache_lookups(catalog, EXPLICIT) == default
    assert default == (905, 7282)

