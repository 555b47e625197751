"""Cross-algorithm property tests over random catalogs.

These verify the paper's lemmas and the reproduction's internal
equivalences on hundreds of randomly generated catalogs:

* **Lemma 1 (pruning soundness)** — the goal-driven algorithm with pruning
  outputs exactly the same path set as without pruning.
* **Lemma 2 (top-k correctness)** — best-first generation returns the
  k cheapest goal paths, matching a brute-force sort of the full set.
* **Counting equivalence** — the tree, merged-DAG, and frontier-DP
  algorithms agree on every path count, and the frontier publishes the
  DAG's node, edge, merge, terminal and prune counters.
* **Output validity** — every generated path respects schedules,
  prerequisites, and the per-term cap.
"""

from hypothesis import given, settings, strategies as st

from repro.core import (
    ExplorationConfig,
    TimeRanking,
    WorkloadRanking,
    build_deadline_dag,
    build_goal_dag,
    frontier_count_deadline_paths,
    frontier_count_goal_paths,
    generate_deadline_driven,
    generate_goal_driven,
    generate_ranked,
)
from repro.data import GeneratorSettings, random_catalog, random_course_set_goal
from repro.obs import MetricsRegistry, Observability
from repro.semester import Term

START = Term(2011, "Fall")

_SETTINGS = st.builds(
    GeneratorSettings,
    n_courses=st.integers(min_value=2, max_value=7),
    n_terms=st.just(4),
    prereq_probability=st.sampled_from([0.0, 0.4, 0.8]),
    or_probability=st.sampled_from([0.0, 0.5]),
    offer_probability=st.sampled_from([0.3, 0.6]),
    layers=st.integers(min_value=1, max_value=3),
)

_CONFIGS = st.builds(
    ExplorationConfig,
    max_courses_per_term=st.integers(min_value=1, max_value=3),
    empty_selection=st.sampled_from(["auto", "always", "never"]),
    enforce_min_selection=st.booleans(),
)


_RUN_COUNTERS = {
    "repro_nodes_created_total",
    "repro_edges_created_total",
    "repro_merged_hits_total",
    "repro_terminals_total",
    "repro_prune_events_total",
}


def _selection_set(result):
    return {path.selections for path in result.paths()}


def _published(run):
    """The run counters ``run(obs)`` publishes, read through a registry."""
    registry = MetricsRegistry()
    run(Observability(metrics=registry))
    return {
        (metric["name"], tuple(sorted(metric["labels"].items()))): metric["value"]
        for metric in registry.snapshot()["metrics"]
        if metric["name"] in _RUN_COUNTERS
    }


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), settings_=_SETTINGS, config=_CONFIGS, horizon=st.integers(1, 4))
def test_pruning_is_sound(seed, settings_, config, horizon):
    """Lemma 1: pruned and unpruned goal-driven runs output identical paths."""
    catalog = random_catalog(seed, settings_)
    goal = random_course_set_goal(catalog, seed + 1, size=2)
    end = START + horizon
    pruned = generate_goal_driven(catalog, START, goal, end, config=config)
    unpruned = generate_goal_driven(catalog, START, goal, end, config=config, pruners=[])
    assert _selection_set(pruned) == _selection_set(unpruned)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), settings_=_SETTINGS, config=_CONFIGS, horizon=st.integers(1, 4))
def test_tree_dag_frontier_deadline_counts_agree(seed, settings_, config, horizon):
    catalog = random_catalog(seed, settings_)
    end = START + horizon
    tree = generate_deadline_driven(catalog, START, end, config=config)
    dag = build_deadline_dag(catalog, START, end, config=config)
    frontier = frontier_count_deadline_paths(catalog, START, end, config=config)
    assert tree.path_count == dag.path_count == frontier.path_count


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), settings_=_SETTINGS, config=_CONFIGS, horizon=st.integers(1, 4))
def test_tree_dag_frontier_goal_counts_agree(seed, settings_, config, horizon):
    catalog = random_catalog(seed, settings_)
    goal = random_course_set_goal(catalog, seed + 1, size=2)
    end = START + horizon
    tree = generate_goal_driven(catalog, START, goal, end, config=config)
    dag = build_goal_dag(catalog, START, goal, end, config=config)
    frontier = frontier_count_goal_paths(catalog, START, goal, end, config=config)
    assert tree.path_count == dag.path_count == frontier.path_count


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    settings_=_SETTINGS,
    config=_CONFIGS,
    horizon=st.integers(1, 4),
    with_goal=st.booleans(),
)
def test_frontier_publishes_the_dag_counters(seed, settings_, config, horizon, with_goal):
    catalog = random_catalog(seed, settings_)
    end = START + horizon
    if with_goal:
        goal = random_course_set_goal(catalog, seed + 1, size=2)
        dag = _published(
            lambda obs: build_goal_dag(catalog, START, goal, end, config=config, obs=obs)
        )
        frontier = _published(
            lambda obs: frontier_count_goal_paths(
                catalog, START, goal, end, config=config, obs=obs
            )
        )
    else:
        dag = _published(
            lambda obs: build_deadline_dag(catalog, START, end, config=config, obs=obs)
        )
        frontier = _published(
            lambda obs: frontier_count_deadline_paths(
                catalog, START, end, config=config, obs=obs
            )
        )
    assert ("repro_nodes_created_total", ()) in dag
    assert frontier == dag


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), settings_=_SETTINGS, k=st.integers(1, 6))
def test_topk_matches_bruteforce(seed, settings_, k):
    """Lemma 2: the best-first prefix equals the sorted full enumeration."""
    catalog = random_catalog(seed, settings_)
    goal = random_course_set_goal(catalog, seed + 1, size=2)
    end = START + 3
    config = ExplorationConfig(max_courses_per_term=2)

    everything = generate_goal_driven(catalog, START, goal, end, config=config)
    for ranking in (TimeRanking(), WorkloadRanking(catalog)):
        brute = sorted(ranking.path_cost(p) for p in everything.paths())
        result = generate_ranked(catalog, START, goal, end, k, ranking, config=config)
        assert result.costs == brute[: len(result.costs)]
        assert len(result.costs) == min(k, len(brute))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), settings_=_SETTINGS, config=_CONFIGS)
def test_generated_paths_are_valid(seed, settings_, config):
    """Every output path respects schedule, prerequisites, and the cap."""
    catalog = random_catalog(seed, settings_)
    end = START + 3
    result = generate_deadline_driven(catalog, START, end, config=config)
    for path in result.paths():
        completed = set()
        for term, selection in path:
            assert len(selection) <= config.max_courses_per_term
            for course_id in selection:
                assert catalog.schedule.is_offered(course_id, term)
                assert catalog[course_id].prereq.evaluate(completed)
                assert course_id not in completed
            completed |= selection


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), settings_=_SETTINGS)
def test_goal_output_is_subset_of_deadline_prefixes(seed, settings_):
    """Goal paths are deadline paths truncated at first goal satisfaction."""
    catalog = random_catalog(seed, settings_)
    goal = random_course_set_goal(catalog, seed + 1, size=2)
    end = START + 3
    config = ExplorationConfig(max_courses_per_term=2)
    goal_paths = generate_goal_driven(catalog, START, goal, end, config=config)
    deadline_paths = list(generate_deadline_driven(catalog, START, end, config=config).paths())
    deadline_prefixes = {
        path.selections[:i]
        for path in deadline_paths
        for i in range(len(path) + 1)
    }
    for path in goal_paths.paths():
        assert goal.is_satisfied(path.end.completed)
        assert path.selections in deadline_prefixes
