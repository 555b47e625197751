"""Tests for run statistics containers."""

import copy
import json
import pickle
from unittest import mock

import pytest

from repro.core import ExplorationStats
from repro.core.pruning import PruningStats, suppressed_selection_count
from repro.graph.status import EnrollmentStatus
from repro.semester import Term

CLONES = {
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "deepcopy": copy.deepcopy,
}
each_clone = pytest.mark.parametrize("clone", list(CLONES.values()), ids=list(CLONES))


class TestExplorationStats:
    def test_counters(self):
        stats = ExplorationStats()
        stats.record_node()
        stats.record_node()
        stats.record_edge()
        stats.record_terminal("goal")
        stats.record_terminal("goal")
        stats.record_terminal("deadline")
        stats.record_prune("time")
        stats.record_prune("time", 4)
        stats.record_prune("availability")
        stats.record_merge()
        assert stats.nodes_created == 2
        assert stats.edges_created == 1
        assert stats.terminal_count("goal") == 2
        assert stats.terminal_count("deadline") == 1
        assert stats.terminal_count("dead_end") == 0
        assert stats.total_prunes == 6
        assert stats.prune_share("time") == 5 / 6
        assert stats.merged_hits == 1

    def test_prune_share_empty(self):
        assert ExplorationStats().prune_share("time") == 0.0

    def test_timer(self):
        stats = ExplorationStats()
        stats.start_timer()
        stats.stop_timer()
        assert stats.elapsed_seconds >= 0.0

    def test_stop_without_start_is_noop(self):
        stats = ExplorationStats()
        stats.stop_timer()
        assert stats.elapsed_seconds == 0.0

    def test_timer_accumulates_across_pairs(self):
        stats = ExplorationStats()
        with mock.patch("repro.core.stats.time.perf_counter",
                        side_effect=[10.0, 12.5, 100.0, 101.0]):
            stats.start_timer()
            stats.stop_timer()
            stats.start_timer()
            stats.stop_timer()
        assert stats.elapsed_seconds == 3.5

    def test_double_stop_does_not_double_count(self):
        stats = ExplorationStats()
        with mock.patch("repro.core.stats.time.perf_counter",
                        side_effect=[10.0, 12.0]):
            stats.start_timer()
            stats.stop_timer()
            stats.stop_timer()  # second stop: timer no longer running
        assert stats.elapsed_seconds == 2.0

    def test_timer_counts_epoch_zero_start(self):
        # perf_counter may legitimately be 0.0; a falsy check would
        # silently drop the interval.
        stats = ExplorationStats()
        with mock.patch("repro.core.stats.time.perf_counter",
                        side_effect=[0.0, 1.25]):
            stats.start_timer()
            stats.stop_timer()
        assert stats.elapsed_seconds == 1.25

    def test_merge_sums_all_counters(self):
        a = ExplorationStats()
        a.record_node()
        a.record_edge()
        a.record_terminal("goal")
        a.record_prune("time", 3)
        a.record_merge()
        a.elapsed_seconds = 1.5
        b = ExplorationStats()
        b.record_node()
        b.record_node()
        b.record_terminal("goal")
        b.record_terminal("deadline")
        b.record_prune("time")
        b.record_prune("availability", 2)
        b.elapsed_seconds = 0.5

        returned = a.merge(b)
        assert returned is a
        assert a.nodes_created == 3
        assert a.edges_created == 1
        assert a.terminals == {"goal": 2, "deadline": 1}
        assert a.prune_events == {"time": 4, "availability": 2}
        assert a.merged_hits == 1
        assert a.elapsed_seconds == 2.0
        # b untouched
        assert b.nodes_created == 2
        assert b.prune_events == {"time": 1, "availability": 2}

    def test_merge_with_empty_is_identity(self):
        a = ExplorationStats()
        a.record_node()
        a.record_terminal("goal")
        before = a.as_dict()
        a.merge(ExplorationStats())
        assert a.as_dict() == before

    def test_as_dict_round_trips_through_json(self):
        stats = ExplorationStats()
        stats.record_node()
        stats.record_edge()
        stats.record_terminal("goal")
        stats.record_prune("time", 2)
        stats.record_merge()
        stats.elapsed_seconds = 0.25
        parsed = json.loads(json.dumps(stats.as_dict()))
        assert parsed == stats.as_dict()
        assert parsed["prune_events"] == {"time": 2}
        assert parsed["elapsed_seconds"] == 0.25

    def test_as_dict_and_summary(self):
        stats = ExplorationStats()
        stats.record_node()
        stats.record_terminal("goal")
        data = stats.as_dict()
        assert data["nodes_created"] == 1
        assert data["terminals"] == {"goal": 1}
        assert "1 nodes" in stats.summary()
        assert "goal=1" in stats.summary()


class TestPruningStats:
    def test_record_and_share(self):
        stats = PruningStats()
        stats.record("time", 8)
        stats.record("availability", 2)
        assert stats.total == 10
        assert stats.share("time") == 0.8
        assert stats.share("availability") == 0.2
        assert stats.as_dict() == {"time": 8, "availability": 2}

    def test_share_empty(self):
        assert PruningStats().share("time") == 0.0


class TestPickleAndCopy:
    """Result objects round-trip as equal, independent values."""

    @each_clone
    def test_exploration_stats(self, clone):
        stats = ExplorationStats()
        stats.record_node()
        stats.record_edge()
        stats.record_terminal("goal")
        stats.record_prune("time", 2)
        stats.record_merge()
        stats.elapsed_seconds = 0.25
        twin = clone(stats)
        assert twin == stats
        twin.record_prune("time")
        assert stats.prune_events == {"time": 2}

    @each_clone
    def test_pruning_stats(self, clone):
        stats = PruningStats()
        stats.record("time", 8)
        stats.record("availability", 2)
        twin = clone(stats)
        assert twin == stats
        twin.record("time")
        assert stats.events == {"time": 8, "availability": 2}

    @each_clone
    def test_enrollment_status(self, clone):
        status = EnrollmentStatus(
            Term.parse("Fall 2013"), frozenset({"A"}), frozenset({"B", "C"})
        )
        twin = clone(status)
        # Equality ignores the derived options, so compare all three fields.
        assert (twin.term, twin.completed, twin.options) == (
            status.term, status.completed, status.options
        )

    def test_enrollment_status_shallow_copy(self):
        # __setattr__ is blocked, so copying must rebuild through __init__.
        status = EnrollmentStatus(Term.parse("Fall 2013"), frozenset({"A"}))
        assert copy.copy(status) == status


class TestSuppressedSelectionCount:
    def test_no_floor_no_suppression(self):
        assert suppressed_selection_count(5, 0) == 0
        assert suppressed_selection_count(5, 1) == 0

    def test_floor_two_counts_singletons(self):
        assert suppressed_selection_count(5, 2) == 5

    def test_floor_three_counts_singletons_and_pairs(self):
        assert suppressed_selection_count(4, 3) == 4 + 6

    def test_floor_beyond_options_counts_everything_below(self):
        assert suppressed_selection_count(2, 5) == 2 + 1

    def test_empty_options(self):
        assert suppressed_selection_count(0, 3) == 0
