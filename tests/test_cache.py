"""Tests for the query-acceleration subsystem (repro.cache).

Covers the LRU memo primitive, content fingerprints, the CachedGoal
wrapper, the headline equivalence property — byte-identical path sets,
counts, prune-decision streams and explain audits with and without a
cache, across all four generators, cold and warm — plus the persistent
store (round-trip, warm start, invalidation on catalog change, graceful
cold start on corruption), LRU eviction under tiny capacities, metrics
binding, and the CLI surface (``--cache``/``--no-cache``/``--cache-dir``).
"""

import json
import math
import os

import pytest

from repro.cache import (
    CachedGoal,
    CacheStore,
    ExplorationCache,
    LRUMemo,
    catalog_fingerprint,
    goal_fingerprint,
    pruner_signature,
    schedule_fingerprint,
)
from repro.core import (
    ExplorationConfig,
    generate_deadline_driven,
    generate_goal_driven,
    generate_ranked,
)
from repro.core.counting import count_goal_paths
from repro.core.frontier import frontier_count_goal_paths
from repro.core.pruning import (
    AvailabilityPruner,
    PruningContext,
    TimeBasedPruner,
)
from repro.core.ranking import TimeRanking
from repro.data import (
    brandeis_catalog,
    brandeis_major_goal,
    random_catalog,
    random_course_set_goal,
)
from repro.obs import DecisionRecorder, MetricsRegistry, Observability
from repro.parsing import save_catalog
from repro.requirements import CourseSetGoal, ExpressionGoal
from repro.semester import Term
from repro.system.cli import main as cli_main

START = Term(2013, "Fall")
END = Term(2015, "Fall")
CONFIG = ExplorationConfig(max_courses_per_term=3)
SMALL_GOAL = CourseSetGoal({"COSI 11a", "COSI 21a", "COSI 29a"})


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


def run_goal(catalog, goal, cache=None, recorder=None, start=START, end=END):
    obs = Observability(decisions=recorder) if recorder is not None else None
    return generate_goal_driven(
        catalog, start, goal, end, config=CONFIG, obs=obs, cache=cache
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
    def test_catalog_fingerprint_is_content_stable(self):
        assert catalog_fingerprint(brandeis_catalog()) == catalog_fingerprint(
            brandeis_catalog()
        )

    def test_catalog_fingerprint_sees_content_changes(self):
        assert catalog_fingerprint(brandeis_catalog()) != catalog_fingerprint(
            random_catalog(seed=7)
        )

    def test_goal_fingerprint_distinguishes_goals(self):
        a = goal_fingerprint(CourseSetGoal({"COSI 11a"}))
        b = goal_fingerprint(CourseSetGoal({"COSI 21a"}))
        assert a != b
        assert a == goal_fingerprint(CourseSetGoal({"COSI 11a"}))

    def test_schedule_fingerprint_stable(self):
        assert schedule_fingerprint(
            brandeis_catalog().schedule
        ) == schedule_fingerprint(brandeis_catalog().schedule)

    def test_pruner_signature_orders_matter(self):
        catalog = brandeis_catalog()
        context = PruningContext(
            catalog=catalog, goal=SMALL_GOAL, end_term=END, config=CONFIG
        )
        time_p = TimeBasedPruner(context)
        avail_p = AvailabilityPruner(context)
        assert pruner_signature([time_p, avail_p]) != pruner_signature(
            [avail_p, time_p]
        )


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
        assert cache.flow.memo.hits > 0

    def test_expression_goal_dnf_fast_path(self):
        catalog = brandeis_catalog()
        from repro.catalog.prereq import TRUE

        expression = next(
            course.prereq for course in catalog.courses() if course.prereq is not TRUE
        )
        expr_goal = ExpressionGoal(expression, label="prereq")
        cache = ExplorationCache()
        wrapped = cache.wrap_goal(expr_goal)
        for completed in (frozenset(), frozenset({"COSI 11a"}), catalog.course_ids()):
            expected = expr_goal.remaining_courses(frozenset(completed))
            got = wrapped.remaining_courses(frozenset(completed))
            assert got == expected or (
                math.isinf(got) and math.isinf(expected)
            )
            assert wrapped.is_satisfied(frozenset(completed)) == expr_goal.is_satisfied(
                frozenset(completed)
            )

    def test_wrap_is_idempotent_and_stable(self):
        cache = ExplorationCache()
        goal = SMALL_GOAL
        wrapped = cache.wrap_goal(goal)
        assert cache.wrap_goal(goal) is wrapped
        assert cache.wrap_goal(wrapped) is wrapped
        assert wrapped == goal and hash(wrapped) == hash(goal)


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
        # the warm run actually reused transposed verdicts
        assert cache.transposition.memo.hits > 0
        assert cache.flow.memo.hits > 0

    def test_goal_driven_without_recorder_matches_recorded(self):
        # boolean-only transposition entries (stored by an unrecorded run)
        # must upgrade cleanly when a recorder appears later
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
            catalog, START, brandeis_major_goal(), END, 5, TimeRanking(),
            config=CONFIG,
        )
        cache = ExplorationCache()
        for _ in range(2):  # cold then warm
            cached = generate_ranked(
                catalog, START, brandeis_major_goal(), END, 5, TimeRanking(),
                config=CONFIG, cache=cache,
            )
            assert [
                (cost, str(path)) for cost, path in cached.ranked()
            ] == [(cost, str(path)) for cost, path in base.ranked()]

    def test_deadline_identical(self):
        catalog = brandeis_catalog()
        config = ExplorationConfig(max_courses_per_term=2)
        end = Term(2014, "Fall")
        base = generate_deadline_driven(catalog, START, end, config=config)
        cache = ExplorationCache()
        cached = generate_deadline_driven(
            catalog, START, end, config=config, cache=cache
        )
        assert cached.path_count == base.path_count
        assert path_keys(cached) == path_keys(base)
        # Option sets are memoised by the catalog, not the cache; the eval
        # layer keeps only offered windows and DNFs.
        assert cache.eval.memos == [cache.eval.offered_memo, cache.eval.dnf_memo]
        assert not hasattr(cache.eval, "options_memo")

    def test_counting_and_frontier_identical(self):
        catalog = brandeis_catalog()
        goal = brandeis_major_goal()
        cache = ExplorationCache()
        base_count = count_goal_paths(catalog, START, goal, END, config=CONFIG)
        base_frontier = frontier_count_goal_paths(
            catalog, START, goal, END, config=CONFIG
        )
        for _ in range(2):
            assert (
                count_goal_paths(
                    catalog, START, goal, END, config=CONFIG, cache=cache
                )
                == base_count
            )
            assert (
                frontier_count_goal_paths(
                    catalog, START, goal, END, config=CONFIG, cache=cache
                ).path_count
                == base_frontier.path_count
            )

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
                cached = generate_goal_driven(
                    catalog, start, goal, end, config=config, cache=cache
                )
                assert cached.path_count == base.path_count
                assert path_keys(cached) == path_keys(base)
                assert (
                    cached.pruning_stats.as_dict() == base.pruning_stats.as_dict()
                )

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


# ---------------------------------------------------------------------------
# eviction under pressure


class TestEviction:
    def test_tiny_capacities_still_exact(self):
        catalog = brandeis_catalog()
        base = run_goal(catalog, brandeis_major_goal())
        cache = ExplorationCache(
            flow_capacity=32, eval_capacity=32, transposition_capacity=32
        )
        for _ in range(2):
            cached = run_goal(catalog, brandeis_major_goal(), cache=cache)
            assert cached.path_count == base.path_count
            assert path_keys(cached) == path_keys(base)
        assert cache.flow.memo.evictions > 0
        assert len(cache.flow.memo) <= 32


# ---------------------------------------------------------------------------
# persistent store


class TestCacheStore:
    def test_round_trip_and_warm_start(self, tmp_path):
        catalog = brandeis_catalog()
        cache = ExplorationCache.with_store(catalog, str(tmp_path))
        run_goal(catalog, brandeis_major_goal(), cache=cache)
        saved = cache.save()
        assert saved > 0
        assert os.path.exists(cache.store.path)

        fresh = ExplorationCache.with_store(catalog, str(tmp_path))
        assert fresh.store.warm_start
        assert fresh.store.loaded_entries == saved
        assert len(fresh.flow.memo) == saved
        # preloading must not pollute hit-rate accounting
        assert fresh.flow.memo.hits == 0 and fresh.flow.memo.misses == 0
        base = run_goal(catalog, brandeis_major_goal())
        warm = run_goal(catalog, brandeis_major_goal(), cache=fresh)
        assert warm.path_count == base.path_count
        assert path_keys(warm) == path_keys(base)
        assert fresh.flow.memo.hits > 0

    def test_catalog_change_invalidates(self, tmp_path):
        catalog = brandeis_catalog()
        cache = ExplorationCache.with_store(catalog, str(tmp_path))
        run_goal(catalog, brandeis_major_goal(), cache=cache)
        assert cache.save() > 0

        other = random_catalog(seed=5)
        cold = ExplorationCache.with_store(other, str(tmp_path))
        assert not cold.store.warm_start
        assert cold.store.loaded_entries == 0
        assert cold.store.path != cache.store.path

    def test_corrupt_file_cold_starts(self, tmp_path):
        catalog = brandeis_catalog()
        store = CacheStore(str(tmp_path), catalog_fingerprint(catalog))
        with open(store.path, "w", encoding="utf-8") as handle:
            handle.write("this is not json\n")
        cache = ExplorationCache.with_store(catalog, str(tmp_path))
        assert not cache.store.warm_start
        assert cache.store.loaded_entries == 0
        # and the run still works
        assert run_goal(catalog, SMALL_GOAL, cache=cache).path_count > 0

    def test_bad_header_cold_starts(self, tmp_path):
        catalog = brandeis_catalog()
        store = CacheStore(str(tmp_path), catalog_fingerprint(catalog))
        header = {
            "format": "something-else",
            "version": 99,
            "catalog": catalog_fingerprint(catalog),
        }
        with open(store.path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            handle.write(json.dumps({"kind": "sat"}) + "\n")
        fresh = ExplorationCache.with_store(catalog, str(tmp_path))
        assert fresh.store.loaded_entries == 0

    def test_bad_lines_skipped_good_lines_kept(self, tmp_path):
        catalog = brandeis_catalog()
        cache = ExplorationCache.with_store(catalog, str(tmp_path))
        run_goal(catalog, SMALL_GOAL, cache=cache)
        saved = cache.save()
        with open(cache.store.path, "a", encoding="utf-8") as handle:
            handle.write("{ broken json\n")
            handle.write(json.dumps({"kind": "sat", "goal": 3}) + "\n")
        fresh = ExplorationCache.with_store(catalog, str(tmp_path))
        assert fresh.store.loaded_entries == saved

    def test_missing_dir_is_cold_not_fatal(self, tmp_path):
        catalog = brandeis_catalog()
        cache = ExplorationCache.with_store(
            catalog, str(tmp_path / "does" / "not" / "exist")
        )
        assert not cache.store.warm_start
        run_goal(catalog, SMALL_GOAL, cache=cache)
        assert cache.save() > 0  # save_from creates the directory


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
        assert 'layer="flow"' in text and 'layer="transposition"' in text
        snapshot = registry.snapshot()
        flow_hits = sum(
            m["value"]
            for m in snapshot["metrics"]
            if m["name"] == "repro_cache_hits_total"
            and m["labels"].get("layer") == "flow"
        )
        assert flow_hits == cache.flow.memo.hits > 0

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
# the shared offered-window memo (satellite: hoisted per-pruner cache)


class TestSharedOfferedWindow:
    def test_fresh_pruner_instances_share_windows(self):
        # each pruner keeps a lookup-free per-instance dict, but the window
        # computation itself lives in the shared eval memo: a second pruner
        # (as a new run would build) starts with an empty dict yet hits
        catalog = brandeis_catalog()
        cache = ExplorationCache()
        context = PruningContext(
            catalog=catalog, goal=SMALL_GOAL, end_term=END, config=CONFIG,
            cache=cache,
        )
        first = AvailabilityPruner(context)
        second = AvailabilityPruner(context)
        window = first._offered_from(START)
        assert cache.eval.offered_memo.misses == 1
        assert second._offered_from(START) == window
        assert cache.eval.offered_memo.hits == 1
        # the per-instance first level absorbs repeats without memo traffic
        first._offered_from(START)
        assert cache.eval.offered_memo.hits == 1

    def test_offered_window_matches_schedule(self):
        catalog = brandeis_catalog()
        cache = ExplorationCache()
        window = cache.eval.offered_window(
            catalog.schedule, Term(2013, "Fall"), Term(2014, "Spring"), frozenset()
        )
        expected = catalog.schedule.offered_between(
            Term(2013, "Fall"), Term(2014, "Spring")
        )
        assert window == frozenset(expected)
        assert cache.eval.offered_window(
            catalog.schedule, Term(2014, "Spring"), Term(2013, "Fall"), frozenset()
        ) == frozenset()


# ---------------------------------------------------------------------------
# CLI surface


class TestCacheCLI:
    def _goal_args(self, catalog_path, extra=()):
        return [
            "goal",
            "--catalog", str(catalog_path),
            "--start", "Fall 2013",
            "--end", "Fall 2015",
            "--goal-courses", "COSI 11a,COSI 21a,COSI 29a",
            "--count-only",
            *extra,
        ]

    @pytest.fixture()
    def catalog_path(self, tmp_path):
        path = tmp_path / "catalog.json"
        save_catalog(brandeis_catalog(), path)
        return path

    def test_second_run_hits(self, capsys, tmp_path, catalog_path):
        cache_dir = tmp_path / "cache"
        metrics = tmp_path / "metrics.json"
        first = cli_main(
            self._goal_args(
                catalog_path, ["--cache-dir", str(cache_dir)]
            )
        )
        err_first = capsys.readouterr().err
        assert first == 0
        assert "flow entries saved to" in err_first
        code = cli_main(
            self._goal_args(
                catalog_path,
                ["--cache-dir", str(cache_dir), "--metrics-out", str(metrics)],
            )
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "cache hits:" in captured.err
        snapshot = json.loads(metrics.read_text())
        hits = sum(
            m["value"]
            for m in snapshot["metrics"]
            if m["name"] == "repro_cache_hits_total"
        )
        assert hits > 0

    def test_same_output_with_and_without_cache(self, capsys, catalog_path, tmp_path):
        cli_main(self._goal_args(catalog_path, ["--no-cache"]))
        without = capsys.readouterr()
        cli_main(
            self._goal_args(catalog_path, ["--cache-dir", str(tmp_path / "c")])
        )
        with_cache = capsys.readouterr()
        cli_main(
            self._goal_args(catalog_path, ["--cache-dir", str(tmp_path / "c")])
        )
        warm = capsys.readouterr()
        assert with_cache.out == without.out == warm.out

    def test_no_cache_prints_no_cache_line(self, capsys, catalog_path):
        code = cli_main(self._goal_args(catalog_path, ["--no-cache"]))
        captured = capsys.readouterr()
        assert code == 0
        assert "cache hits:" not in captured.err

    @pytest.mark.parametrize("flags, cached", [([], False), (["--cache"], True)])
    def test_cache_is_opt_in(self, tmp_path, catalog_path, flags, cached):
        metrics = tmp_path / "metrics.json"
        code = cli_main(
            self._goal_args(catalog_path, [*flags, "--metrics-out", str(metrics)])
        )
        assert code == 0
        names = {m["name"] for m in json.loads(metrics.read_text())["metrics"]}
        assert ("repro_cache_hits_total" in names) is cached

    def test_cache_on_without_dir_is_memory_only(self, capsys, catalog_path):
        code = cli_main(self._goal_args(catalog_path, ["--cache"]))
        captured = capsys.readouterr()
        assert code == 0
        assert "flow entries saved" not in captured.err
