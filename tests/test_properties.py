"""Cross-algorithm property tests over random catalogs.

These verify the paper's lemmas and the reproduction's internal
equivalences on hundreds of randomly generated catalogs:

* **Lemma 1 (pruning soundness)** — the goal-driven algorithm with pruning
  outputs exactly the same path set as without pruning.
* **Lemma 2 (top-k correctness)** — best-first generation returns the
  k cheapest goal paths, matching a brute-force sort of the full set.
* **Counting equivalence** — the tree and frontier-DP algorithms agree on
  every path count, and the frontier's node, edge, merge, terminal and
  prune counters equal the tree's, counted once per distinct
  ``(term, completed)`` status.
* **Output validity** — every generated path respects schedules,
  prerequisites, and the per-term cap.
* **Option sets on first read** — every status's ``Y`` equals the paper's
  definition, whenever and by whomever it is first read.
* **No cyclic garbage** — engine runs pause the cyclic collector, so
  every run must free all it allocates by reference counting.
"""

import copy
import gc
import pickle

from hypothesis import given, settings, strategies as st

from repro.core import (
    ExplorationConfig,
    TimeRanking,
    WorkloadRanking,
    frontier_count_deadline_paths,
    frontier_count_goal_paths,
    generate_deadline_driven,
    generate_goal_driven,
    generate_ranked,
)
from repro.core.expansion import Expander
from repro.core.pruning import AvailabilityPruner, TimeBasedPruner
from repro.cache import ExplorationCache
from repro.data import GeneratorSettings, random_catalog, random_course_set_goal
from repro.obs import DecisionRecorder, MetricsRegistry, Observability
from repro.requirements import DegreeGoal, RequirementGroup
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
def test_tree_frontier_deadline_counts_agree(seed, settings_, config, horizon):
    catalog = random_catalog(seed, settings_)
    end = START + horizon
    tree = generate_deadline_driven(catalog, START, end, config=config)
    frontier = frontier_count_deadline_paths(catalog, START, end, config=config)
    assert tree.path_count == frontier.path_count


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), settings_=_SETTINGS, config=_CONFIGS, horizon=st.integers(1, 4))
def test_tree_frontier_goal_counts_agree(seed, settings_, config, horizon):
    catalog = random_catalog(seed, settings_)
    goal = random_course_set_goal(catalog, seed + 1, size=2)
    end = START + horizon
    tree = generate_goal_driven(catalog, START, goal, end, config=config)
    frontier = frontier_count_goal_paths(catalog, START, goal, end, config=config)
    assert tree.path_count == frontier.path_count


def _tree_counters(graph, events):
    """The run counters of ``graph`` with equal statuses merged: one node
    per distinct ``(term, completed)`` key, the out-edges of one tree node
    per key, and each edge into an already-seen key as a merge.  Prune
    tallies come from the tree's decision ``events``, once per key."""
    first = {}
    for node_id in graph.node_ids():
        status = graph.status(node_id)
        first.setdefault((status.term, status.completed), node_id)
    edges = sum(graph.out_degree(node_id) for node_id in first.values())
    counters = {
        ("repro_nodes_created_total", ()): len(first),
        ("repro_edges_created_total", ()): edges,
        ("repro_merged_hits_total", ()): edges - (len(first) - 1),
    }

    def add(name, label, value):
        key = (name, (label,))
        counters[key] = counters.get(key, 0) + value

    for node_id in first.values():
        kind = graph.terminal_kind(node_id)
        if kind is not None:
            add("repro_terminals_total", ("kind", kind), 1)
    decided = {
        (event.term, event.completed, event.kind): event
        for event in events
        if event.kind in ("prune", "suppressed")
    }
    for event in decided.values():
        cut = 1 if event.kind == "prune" else event.detail["suppressed"]
        add("repro_prune_events_total", ("strategy", event.strategy), cut)
    return counters


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    settings_=_SETTINGS,
    config=_CONFIGS,
    horizon=st.integers(1, 4),
    with_goal=st.booleans(),
)
def test_frontier_publishes_the_dag_counters(seed, settings_, config, horizon, with_goal):
    """The frontier's run counters are those of the merged-status DAG: the
    tree built on the same inputs, with equal statuses merged."""
    catalog = random_catalog(seed, settings_)
    end = START + horizon
    recorder = DecisionRecorder()
    obs = Observability(decisions=recorder)
    if with_goal:
        goal = random_course_set_goal(catalog, seed + 1, size=2)
        tree = generate_goal_driven(catalog, START, goal, end, config=config, obs=obs)
        frontier = _published(
            lambda obs: frontier_count_goal_paths(
                catalog, START, goal, end, config=config, obs=obs
            )
        )
    else:
        tree = generate_deadline_driven(catalog, START, end, config=config, obs=obs)
        frontier = _published(
            lambda obs: frontier_count_deadline_paths(
                catalog, START, end, config=config, obs=obs
            )
        )
    assert frontier == _tree_counters(tree.graph, recorder.events)


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


def _paper_options(catalog, config, status):
    """``Y_i`` straight from §2: not completed, not avoided, offered in
    ``s_i`` and prerequisites met by ``X_i``."""
    schedule = config.schedule if config.schedule is not None else catalog.schedule
    return frozenset(
        course_id
        for course_id in catalog
        if course_id not in status.completed
        and course_id not in config.avoid_courses
        and schedule.is_offered(course_id, status.term)
        and catalog[course_id].prereq.evaluate(status.completed)
    )


@st.composite
def _option_cases(draw):
    """A random catalog plus a config with an avoid-list and, half the
    time, a schedule override drawn from another catalog of the same ids."""
    seed = draw(st.integers(0, 10_000))
    settings_ = draw(_SETTINGS)
    catalog = random_catalog(seed, settings_)
    avoid = draw(st.frozensets(st.sampled_from(sorted(catalog)), max_size=2))
    schedule = None
    if draw(st.booleans()):
        schedule = random_catalog(seed + 7, settings_).schedule
    config = ExplorationConfig(
        max_courses_per_term=draw(st.integers(min_value=1, max_value=3)),
        empty_selection=draw(st.sampled_from(["auto", "always", "never"])),
        avoid_courses=avoid,
        schedule=schedule,
    )
    goal = random_course_set_goal(catalog, seed + 1, size=2)
    return catalog, config, goal, START + draw(st.integers(1, 3))


class _ReadsOptions:
    """Mixin for a pruner that reads ``status.options`` (and checks it
    against the definition) before deciding like the built-in."""

    def _read(self, status):
        assert status.options == _paper_options(self.catalog, self.config, status)


class _TimePrunerReadingOptions(_ReadsOptions, TimeBasedPruner):
    def should_prune(self, status):
        self._read(status)
        return super().should_prune(status)


class _AvailabilityPrunerReadingOptions(_ReadsOptions, AvailabilityPruner):
    def should_prune(self, status):
        self._read(status)
        return super().should_prune(status)


def _reading(cls, catalog, config, *args):
    instance = cls(*args)
    instance.catalog, instance.config = catalog, config
    return instance


@settings(max_examples=50, deadline=None)
@given(case=_option_cases())
def test_every_status_derives_the_papers_options(case):
    catalog, config, goal, end = case
    trees = [
        generate_goal_driven(catalog, START, goal, end, config=config).graph,
        generate_deadline_driven(catalog, START, end, config=config).graph,
    ]
    statuses = [tree.status(node_id) for tree in trees for node_id in tree.node_ids()]
    ranked = generate_ranked(catalog, START, goal, end, 5, TimeRanking(), config=config)
    statuses += [status for path in ranked.paths for status in path.statuses]
    for status in statuses:
        assert status.options == _paper_options(catalog, config, status)


@settings(max_examples=50, deadline=None)
@given(case=_option_cases())
def test_pruners_and_rankings_may_read_options(case):
    """Pruners that read ``Y`` see the right set in every engine and
    leave every output unchanged.  A ranking's bound sees ``X`` alone; the
    ranked run's pruners read ``Y`` at every node it pops and expands."""
    catalog, config, goal, end = case

    pruners = [
        lambda goal, expander: _reading(
            _TimePrunerReadingOptions, catalog, config, goal, expander
        ),
        lambda goal, expander: _reading(
            _AvailabilityPrunerReadingOptions, catalog, config, goal, expander
        ),
    ]

    tree = generate_goal_driven(catalog, START, goal, end, config=config)
    reading = generate_goal_driven(catalog, START, goal, end, config=config, pruners=pruners)
    assert _selection_set(reading) == _selection_set(tree)
    assert reading.stats.terminals == tree.stats.terminals

    frontier = frontier_count_goal_paths(catalog, START, goal, end, config=config)
    reading = frontier_count_goal_paths(
        catalog, START, goal, end, config=config, pruners=pruners
    )
    assert reading.terminal_path_counts == frontier.terminal_path_counts

    ranked = generate_ranked(catalog, START, goal, end, 5, TimeRanking(), config=config)
    reading = generate_ranked(
        catalog, START, goal, end, 5, TimeRanking(), config=config, pruners=pruners
    )
    assert reading.costs == ranked.costs
    assert reading.paths == ranked.paths


@settings(max_examples=50, deadline=None)
@given(case=_option_cases(), depth=st.integers(0, 2))
def test_unread_options_survive_pickle_and_copy(case, depth):
    catalog, config, _goal, end = case
    expander = Expander(catalog, end, config)
    completed = frozenset(sorted(catalog)[:depth])
    for clone in (
        lambda status: pickle.loads(pickle.dumps(status)),
        copy.copy,
        copy.deepcopy,
    ):
        status = expander.initial_status(START, completed)
        expected = _paper_options(catalog, config, status)
        copied = clone(status)
        assert copied == status
        assert copied.options == status.options == expected
    assert b"Expander" not in pickle.dumps(expander.initial_status(START, completed))


_ENGINE_RUNS = (
    lambda catalog, goal, end, config: generate_goal_driven(
        catalog, START, goal, end, config=config
    ),
    lambda catalog, goal, end, config: generate_ranked(
        catalog, START, goal, end, 5, TimeRanking(), config=config
    ),
    lambda catalog, goal, end, config: frontier_count_goal_paths(
        catalog, START, goal, end, config=config
    ),
    lambda catalog, goal, end, config: generate_deadline_driven(
        catalog, START, end, config=config
    ),
    lambda catalog, goal, end, config: frontier_count_deadline_paths(
        catalog, START, end, config=config
    ),
)


def _overlapping_goal(catalog, seed):
    """A two-group degree goal whose groups share courses (when the
    catalog has more than one), so its seat counts run the matcher."""
    ids = sorted(catalog.course_ids())
    first, second = ids[: (len(ids) + 1) // 2 + 1], ids[len(ids) // 2 :]
    return DegreeGoal(
        (
            RequirementGroup("first", first, min(2, len(first))),
            RequirementGroup("second", second, 1 + seed % min(2, len(second))),
        )
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    settings_=_SETTINGS,
    config=_CONFIGS,
    horizon=st.integers(1, 3),
    overlapping=st.booleans(),
    cached=st.booleans(),
)
def test_engine_runs_leave_no_cyclic_garbage(
    seed, settings_, config, horizon, overlapping, cached
):
    catalog = random_catalog(seed, settings_)
    end = START + horizon
    # A fresh goal (wrapped by a fresh cache) per run, built before the
    # collector is turned off and kept alive through the check: both
    # memoize, and building a goal is not a run.
    if overlapping:
        goals = [_overlapping_goal(catalog, seed) for _ in _ENGINE_RUNS]
    else:
        goals = [random_course_set_goal(catalog, seed + 1, size=2) for _ in _ENGINE_RUNS]
    if cached:
        goals = [ExplorationCache().wrap_goal(goal) for goal in goals]
    gc.collect()
    gc.disable()
    try:
        for run, goal in zip(_ENGINE_RUNS, goals):
            run(catalog, goal, end, config)
            assert not gc.isenabled()
        assert gc.collect() == 0
    finally:
        gc.enable()
