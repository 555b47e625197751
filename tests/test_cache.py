"""Tests for the goal memo (repro.cache).

Covers the LRU memo primitive, goal fingerprints, the CachedGoal
wrapper, the headline equivalence property — byte-identical path sets,
counts, prune-decision streams and explain audits with and without a
cached goal, across the generators and the navigator, cold and warm —
plus LRU eviction under tiny capacities and metrics binding.
"""

import weakref

import pytest

from repro.cache import CachedGoal, ExplorationCache, LRUMemo, goal_fingerprint
from repro.catalog.prereq import PrereqExpr, TRUE
from repro.core import (
    ExplorationConfig,
    generate_deadline_driven,
    generate_goal_driven,
    generate_ranked,
)
from repro.core.frontier import frontier_count_goal_paths
from repro.core.ranking import TimeRanking
from repro.data import (
    brandeis_catalog,
    brandeis_major_goal,
    random_catalog,
    random_course_set_goal,
)
from repro.obs import DecisionRecorder, MetricsRegistry, Observability
from repro.requirements import CourseSetGoal, ExpressionGoal
from repro.semester import Term
from repro.system import CourseNavigator

START = Term(2013, "Fall")
END = Term(2015, "Fall")
CONFIG = ExplorationConfig(max_courses_per_term=3)
SMALL_GOAL = CourseSetGoal({"COSI 11a", "COSI 21a", "COSI 29a"})


def ranked_keys(result):
    """``(cost, path)`` pairs of a ranked result, best first."""
    return [(cost, str(path)) for cost, path in result.ranked()]


def path_keys(result):
    """An order-insensitive, content-complete key for a path collection."""
    return sorted(
        tuple(
            (str(status.term), tuple(sorted(selection)))
            for status, selection in zip(
                path.statuses, list(path.selections) + [frozenset()]
            )
        )
        for path in result.paths()
    )


def cached(goal, cache):
    """``goal`` as a library caller passes it: wrapped when cached."""
    return goal if cache is None else cache.wrap_goal(goal)


def run_goal(catalog, goal, cache=None, recorder=None, start=START, end=END):
    obs = Observability(decisions=recorder) if recorder is not None else None
    return generate_goal_driven(
        catalog, start, cached(goal, cache), end, config=CONFIG, obs=obs
    )


# ---------------------------------------------------------------------------
# LRUMemo


class TestLRUMemo:
    def test_miss_then_hit(self):
        memo = LRUMemo("t", capacity=4)
        found, value = memo.lookup("a")
        assert (found, value) == (False, None)
        memo.store("a", 1)
        found, value = memo.lookup("a")
        assert (found, value) == (True, 1)
        assert memo.hits == 1 and memo.misses == 1

    def test_evicts_least_recently_used(self):
        memo = LRUMemo("t", capacity=2)
        memo.store("a", 1)
        memo.store("b", 2)
        memo.lookup("a")  # refresh "a"; "b" is now LRU
        memo.store("c", 3)
        assert memo.evictions == 1
        assert memo.lookup("b") == (False, None)
        assert memo.lookup("a") == (True, 1)
        assert memo.lookup("c") == (True, 3)

    def test_store_does_not_count(self):
        memo = LRUMemo("t", capacity=4)
        memo.store("a", 1)
        assert memo.hits == 0 and memo.misses == 0

    def test_unbounded_capacity(self):
        memo = LRUMemo("t", capacity=None)
        for i in range(10_000):
            memo.store(i, i)
        assert len(memo) == 10_000 and memo.evictions == 0

    def test_rejects_silly_capacity(self):
        with pytest.raises(ValueError):
            LRUMemo("t", capacity=0)

    def test_stats_and_clear(self):
        memo = LRUMemo("t", capacity=8)
        memo.lookup("a")
        memo.store("a", 1)
        memo.lookup("a")
        stats = memo.stats()
        assert stats["name"] == "t"
        assert stats["size"] == 1 and stats["capacity"] == 8
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        memo.clear()
        assert len(memo) == 0


# ---------------------------------------------------------------------------
# fingerprints


class TestFingerprints:
    def test_goal_fingerprint_distinguishes_goals(self):
        a = goal_fingerprint(CourseSetGoal({"COSI 11a"}))
        b = goal_fingerprint(CourseSetGoal({"COSI 21a"}))
        assert a != b
        assert a == goal_fingerprint(CourseSetGoal({"COSI 11a"}))


# ---------------------------------------------------------------------------
# CachedGoal


class TestCachedGoal:
    def test_delegates_and_matches_inner(self):
        cache = ExplorationCache()
        goal = brandeis_major_goal()
        wrapped = cache.wrap_goal(goal)
        assert isinstance(wrapped, CachedGoal)
        assert wrapped.courses() == goal.courses()
        assert wrapped.describe() == goal.describe()
        assert wrapped.to_dict() == goal.to_dict()
        for completed in (
            frozenset(),
            frozenset({"COSI 11a"}),
            frozenset({"COSI 11a", "COSI 21a", "COSI 29a"}),
        ):
            assert wrapped.is_satisfied(completed) == goal.is_satisfied(completed)
            assert wrapped.remaining_courses(completed) == goal.remaining_courses(
                completed
            )
            # and again, now served from the memo
            assert wrapped.is_satisfied(completed) == goal.is_satisfied(completed)
            assert wrapped.remaining_courses(completed) == goal.remaining_courses(
                completed
            )
        assert cache.flow.hits > 0

    def test_wrap_is_idempotent_and_stable(self):
        cache = ExplorationCache()
        goal = SMALL_GOAL
        wrapped = cache.wrap_goal(goal)
        again = cache.wrap_goal(goal)
        assert again == wrapped and again.memo is wrapped.memo is cache.flow
        assert cache.wrap_goal(wrapped) is wrapped
        assert wrapped == goal and hash(wrapped) == hash(goal)

    def test_wrapped_goal_is_freed_with_its_wrapper(self):
        cache = ExplorationCache()
        goal = brandeis_major_goal()
        ref = weakref.ref(goal)
        wrapped = cache.wrap_goal(goal)
        assert wrapped.is_satisfied(frozenset()) is False
        del goal, wrapped
        assert ref() is None
        # A wrapper of an equal goal built later still reads the answer.
        cache.wrap_goal(brandeis_major_goal()).is_satisfied(frozenset())
        assert cache.flow.hits == 1


# ---------------------------------------------------------------------------
# the headline property: cached == uncached, cold and warm


class TestEquivalence:
    def test_goal_driven_identical_cold_and_warm(self):
        catalog = brandeis_catalog()
        base_rec, cold_rec, warm_rec = (
            DecisionRecorder(),
            DecisionRecorder(),
            DecisionRecorder(),
        )
        base = run_goal(catalog, brandeis_major_goal(), recorder=base_rec)
        cache = ExplorationCache()
        cold = run_goal(
            catalog, brandeis_major_goal(), cache=cache, recorder=cold_rec
        )
        warm = run_goal(
            catalog, brandeis_major_goal(), cache=cache, recorder=warm_rec
        )
        for other in (cold, warm):
            assert other.path_count == base.path_count
            assert path_keys(other) == path_keys(base)
            assert other.pruning_stats.as_dict() == base.pruning_stats.as_dict()
        base_events = [e.as_dict() for e in base_rec.events]
        assert [e.as_dict() for e in cold_rec.events] == base_events
        assert [e.as_dict() for e in warm_rec.events] == base_events
        assert cache.flow.hits > 0

    def test_goal_driven_without_recorder_matches_recorded(self):
        # answers memoized by an unrecorded run serve a recorded one
        catalog = brandeis_catalog()
        cache = ExplorationCache()
        quiet = run_goal(catalog, brandeis_major_goal(), cache=cache)
        recorder = DecisionRecorder()
        loud = run_goal(
            catalog, brandeis_major_goal(), cache=cache, recorder=recorder
        )
        baseline_rec = DecisionRecorder()
        baseline = run_goal(catalog, brandeis_major_goal(), recorder=baseline_rec)
        assert loud.path_count == quiet.path_count == baseline.path_count
        assert [e.as_dict() for e in recorder.events] == [
            e.as_dict() for e in baseline_rec.events
        ]

    def test_ranked_identical(self):
        catalog = brandeis_catalog()
        base = generate_ranked(
            catalog, START, brandeis_major_goal(), END, 5, TimeRanking(), config=CONFIG
        )
        cache = ExplorationCache()
        for _ in range(2):  # cold then warm
            warm = generate_ranked(
                catalog, START, cache.wrap_goal(brandeis_major_goal()), END, 5,
                TimeRanking(), config=CONFIG,
            )
            assert ranked_keys(warm) == ranked_keys(base)

    def test_deadline_identical(self):
        # Deadline runs have no goal: a navigator's cache is never consulted.
        catalog = brandeis_catalog()
        config = ExplorationConfig(max_courses_per_term=2)
        end = Term(2014, "Fall")
        base = generate_deadline_driven(catalog, START, end, config=config)
        cache = ExplorationCache()
        navigator = CourseNavigator(catalog, cache=cache)
        cached = navigator.explore_deadline(START, end, config=config)
        assert cached.path_count == base.path_count
        assert path_keys(cached) == path_keys(base)
        assert navigator.count_deadline(START, end, config=config) == base.path_count
        assert cache.flow.hits == cache.flow.misses == 0

    def test_counting_and_frontier_identical(self):
        catalog = brandeis_catalog()
        goal = brandeis_major_goal()
        cache = ExplorationCache()
        navigator = CourseNavigator(catalog, cache=cache)
        base = frontier_count_goal_paths(catalog, START, goal, END, config=CONFIG)
        for _ in range(2):
            count = frontier_count_goal_paths(
                catalog, START, cache.wrap_goal(goal), END, config=CONFIG
            )
            assert count.path_count == base.path_count
            assert count.terminal_path_counts == base.terminal_path_counts
            assert count.pruning_stats == base.pruning_stats
            assert navigator.count_goal(START, goal, END, config=CONFIG) == base.path_count

    def test_random_catalogs_property(self):
        for seed in (3, 11, 2016):
            catalog = random_catalog(seed=seed)
            goal = random_course_set_goal(catalog, seed=seed)
            terms = sorted(catalog.schedule.terms())
            start, end = terms[0], terms[min(3, len(terms) - 1)]
            config = ExplorationConfig(max_courses_per_term=2)
            base = generate_goal_driven(
                catalog, start, goal, end, config=config
            )
            cache = ExplorationCache()
            for _ in range(2):
                warm = generate_goal_driven(
                    catalog, start, cache.wrap_goal(goal), end, config=config
                )
                assert warm.path_count == base.path_count
                assert path_keys(warm) == path_keys(base)
                assert warm.pruning_stats.as_dict() == base.pruning_stats.as_dict()

    def test_shared_cache_across_distinct_goals_stays_correct(self):
        # two goals through one cache must not cross-contaminate
        catalog = brandeis_catalog()
        goal_a = SMALL_GOAL
        goal_b = CourseSetGoal({"COSI 12b", "COSI 29a"})
        base_a = run_goal(catalog, goal_a)
        base_b = run_goal(catalog, goal_b)
        cache = ExplorationCache()
        for _ in range(2):
            assert run_goal(catalog, goal_a, cache=cache).path_count == base_a.path_count
            assert run_goal(catalog, goal_b, cache=cache).path_count == base_b.path_count

    def test_navigator_cache_identical_and_reused(self):
        # The navigator wraps each query's goal; its three goal tasks match
        # an uncached navigator's, and a repeat is served from the memo.
        catalog = brandeis_catalog()
        goal = brandeis_major_goal()

        def queries(navigator):
            return (
                path_keys(navigator.explore_goal(START, goal, END, config=CONFIG)),
                ranked_keys(navigator.explore_ranked(START, goal, END, 5, config=CONFIG)),
                navigator.count_goal(START, goal, END, config=CONFIG),
            )

        expected = queries(CourseNavigator(catalog))
        cache = ExplorationCache()
        navigator = CourseNavigator(catalog, cache=cache)
        assert queries(navigator) == expected
        hits = cache.flow.hits
        assert queries(navigator) == expected
        assert cache.flow.hits > hits


# ---------------------------------------------------------------------------
# eviction under pressure


class TestEviction:
    def test_tiny_capacities_still_exact(self):
        catalog = brandeis_catalog()
        base = run_goal(catalog, brandeis_major_goal())
        cache = ExplorationCache(flow_capacity=32)
        for _ in range(2):
            cached = run_goal(catalog, brandeis_major_goal(), cache=cache)
            assert cached.path_count == base.path_count
            assert path_keys(cached) == path_keys(base)
        assert cache.flow.evictions > 0
        assert len(cache.flow) <= 32


# ---------------------------------------------------------------------------
# metrics integration


class TestMetrics:
    def test_counters_emitted_per_layer(self):
        catalog = brandeis_catalog()
        registry = MetricsRegistry()
        cache = ExplorationCache()
        cache.bind_metrics(registry)
        cache.bind_metrics(registry)  # idempotent
        run_goal(catalog, brandeis_major_goal(), cache=cache)
        run_goal(catalog, brandeis_major_goal(), cache=cache)
        text = registry.render_prometheus()
        assert "repro_cache_hits_total" in text
        assert "repro_cache_misses_total" in text
        assert "repro_cache_evictions_total" in text
        assert 'layer="flow"' in text
        assert 'layer="eval"' not in text and 'layer="transposition"' not in text
        totals = cache.counter_totals()
        assert totals["flow"]["hits"] == cache.flow.hits
        # The gone layers' keys stay, always zero, for benchmark readers.
        zero = {"hits": 0, "misses": 0, "evictions": 0}
        assert totals["eval"] == totals["transposition"] == zero
        snapshot = registry.snapshot()
        flow_hits = sum(
            m["value"]
            for m in snapshot["metrics"]
            if m["name"] == "repro_cache_hits_total"
            and m["labels"].get("layer") == "flow"
        )
        assert flow_hits == cache.flow.hits > 0

    def test_late_binding_flushes_backlog(self):
        catalog = brandeis_catalog()
        cache = ExplorationCache()
        run_goal(catalog, SMALL_GOAL, cache=cache)
        registry = MetricsRegistry()
        cache.bind_metrics(registry)  # after the fact
        snapshot = registry.snapshot()
        misses = sum(
            m["value"]
            for m in snapshot["metrics"]
            if m["name"] == "repro_cache_misses_total"
        )
        assert misses > 0



# ---------------------------------------------------------------------------
# ExpressionGoal converts its expression once, cache or no cache


class CountingExpr(PrereqExpr):
    """Delegates to ``inner``, counting ``to_dnf`` conversions."""

    def __init__(self, inner):
        self.inner = inner
        self.conversions = 0

    def to_dnf(self):
        self.conversions += 1
        return self.inner.to_dnf()

    def evaluate(self, completed):
        return self.inner.evaluate(completed)

    def courses(self):
        return self.inner.courses()


def test_expression_goal_converts_to_dnf_once():
    catalog = brandeis_catalog()
    expression = next(
        course.prereq for course in catalog.courses() if course.prereq is not TRUE
    )
    counting = CountingExpr(expression)
    goal = ExpressionGoal(counting)
    for completed in (frozenset(), frozenset({"COSI 11a"}), catalog.course_ids()) * 5:
        assert goal.remaining_courses(completed) == expression.min_courses_to_satisfy(
            completed
        )
    assert counting.conversions == 1
