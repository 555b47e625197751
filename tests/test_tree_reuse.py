"""Telemetry and limits inside replayed subtrees.

Table 1 at 5 semesters builds 60,448 tree nodes in 21,763 distinct
``(term, X)`` states, so 64% of its nodes replay a decision made at an
earlier node (:func:`~repro.core.deadline.grow_tree`).  Every stream a
caller can see must read as if each node had been decided afresh: the
pinned values below were recorded from the tree before it reused
decisions.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.core.step as step_module
from repro import Observability
from repro.core import ExplorationConfig, generate_goal_driven
from repro.data import brandeis_catalog, brandeis_major_goal, start_term_for_semesters
from repro.data.brandeis import EVALUATION_END_TERM
from repro.errors import BudgetExceededError, RunCancelledError
from repro.obs.live import ProgressTracker

START = start_term_for_semesters(5)
SRC = Path(__file__).resolve().parents[1] / "src"

#: SHA-256 of ``goal --start "Spring 2013" --end "Fall 2015" --explain``.
EXPLAIN_SHA256 = "02b0dabc6caf70f56172c60bba2f617459232676fe297b25b7050baf9d42e6f8"

FINAL_SNAPSHOT = {
    "budget": None,
    "cancelled": None,
    "depth": 5,
    "estimated_total_nodes": 60448.0,
    "finished": True,
    "frontier_size": 105,
    "generation": 73684,
    "horizon": 5,
    "nodes_expanded": 1452,
    "nodes_pruned": 17632,
    "nodes_seen": 60448,
    "paths_emitted": 11783,
    "per_depth": {
        "0": {"children": 7, "expanded": 1},
        "1": {"children": 46, "expanded": 7},
        "2": {"children": 479, "expanded": 38, "terminal": 8},
        "3": {"children": 18606, "expanded": 335, "pruned": 97, "terminal": 47},
        "4": {"children": 41309, "expanded": 1071, "pruned": 17535},
        "5": {"terminal": 41309},
    },
    "progress_fraction": 1.0,
    "run": "goal_driven",
    "terminals": {"dead_end": 55, "deadline": 29526, "goal": 11783},
}

#: ``max_nodes`` → the partial stats of the run it stops.
NODE_LIMITS = {
    30000: {
        "edges_created": 29999,
        "merged_hits": 0,
        "nodes_created": 30000,
        "prune_events": {"availability": 7753, "time": 12755},
        "terminals": {"dead_end": 26, "deadline": 13701, "goal": 5916, "pruned": 9553},
    },
    45000: {
        "edges_created": 44999,
        "merged_hits": 0,
        "nodes_created": 45000,
        "prune_events": {"availability": 11521, "time": 22020},
        "terminals": {"dead_end": 43, "deadline": 20721, "goal": 8835, "pruned": 14240},
    },
}


def _run(config=None, obs=None):
    return generate_goal_driven(
        brandeis_catalog(), START, brandeis_major_goal(), EVALUATION_END_TERM,
        config=config, obs=obs,
    )


def _counters(stats):
    data = stats.as_dict()
    del data["elapsed_seconds"]
    return data


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_explain_stream_is_unchanged(tmp_path, hash_seed):
    path = tmp_path / "explain.jsonl"
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
    subprocess.run(
        [sys.executable, "-m", "repro.system.cli", "goal", "--start", str(START),
         "--end", str(EVALUATION_END_TERM), "--explain", str(path)],
        check=True, capture_output=True, env=env,
    )
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXPLAIN_SHA256


def test_final_progress_snapshot_is_unchanged():
    tracker = ProgressTracker()
    _run(obs=Observability(progress=tracker))
    snapshot = tracker.snapshot().as_dict()
    del snapshot["elapsed_seconds"], snapshot["eta_seconds"]
    assert snapshot == FINAL_SNAPSHOT


@pytest.mark.parametrize("limit", sorted(NODE_LIMITS))
def test_node_limit_inside_a_replayed_subtree(limit):
    with pytest.raises(BudgetExceededError) as info:
        _run(ExplorationConfig(max_nodes=limit))
    assert info.value.kind == "nodes"
    assert info.value.observed == limit + 1
    assert _counters(info.value.partial_stats) == NODE_LIMITS[limit]


class _CancelAt(ProgressTracker):
    """Has another thread cancel the run once ``count`` terminals are in."""

    def __init__(self, count: int):
        super().__init__()
        self._left = count

    def record_terminal(self, kind, depth, emitted=0):
        super().record_terminal(kind, depth, emitted)
        self._left -= 1
        if self._left == 0:
            thread = threading.Thread(target=self.cancel, args=("operator stop",))
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()


def test_cancel_from_another_thread_stops_a_replayed_subtree():
    tracker = _CancelAt(30000)
    with pytest.raises(RunCancelledError) as info:
        _run(obs=Observability(progress=tracker))
    assert info.value.reason == "operator stop"
    assert info.value.progress.nodes_seen == 45460
    assert info.value.progress.generation == 55564
    assert _counters(info.value.partial_stats) == {
        "edges_created": 45556,
        "merged_hits": 0,
        "nodes_created": 45557,
        "prune_events": {"availability": 11600, "time": 22391},
        "terminals": {"dead_end": 43, "deadline": 20988, "goal": 8969, "pruned": 14326},
    }


def test_wall_limit_stops_a_replayed_subtree(monkeypatch):
    # Each clock read advances 10 µs: the run passes 0.4 s at its
    # 40,001st node check, deep in the tree's replayed part.
    ticks = iter(range(1, 10**7))
    clock = SimpleNamespace(perf_counter=lambda: next(ticks) * 1e-5)
    monkeypatch.setattr(step_module, "time", clock)
    with pytest.raises(BudgetExceededError) as info:
        _run(ExplorationConfig(max_wall_seconds=0.4))
    assert info.value.kind == "wall seconds"
    assert info.value.observed > 0.4
    assert _counters(info.value.partial_stats) == {
        "edges_created": 40217,
        "merged_hits": 0,
        "nodes_created": 40218,
        "prune_events": {"availability": 10114, "time": 18813},
        "terminals": {"dead_end": 36, "deadline": 18491, "goal": 8045, "pruned": 12426},
    }
