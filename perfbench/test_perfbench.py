"""Smoke tests for the benchmark harness, at reduced sizes that take seconds.

Run from the repository root::

    python3 -m pytest perfbench -q

Each workload runs once untraced and once traced at its smoke size
(``goal_tree`` at 4 semesters, ``deadline_count`` at 3, ``ranked_session``
at 6 only, ``random_ranked`` as in the benchmark) and must reproduce the
golden outputs in ``workloads.py``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

if not run.import_library():
    raise ImportError(f"cannot import the library from {run.ROOT}/src")

from layertrace import LayerTracer  # noqa: E402
from workloads import WORKLOADS, build_workload  # noqa: E402

COUNT_METRICS = [name for name, unit in run.PER_LAYER if unit == "count"]
SECONDS_METRICS = [
    name for name, unit in run.PER_LAYER if unit == "s" and not name.startswith(("core.", "trace."))
]


def _traced(name):
    measured = run.measure(build_workload(name, smoke=True), 0, trace=True)
    return measured, run.per_layer_metrics(measured)


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_matches_golden_outputs(name):
    measured, _ = _traced(name)
    assert measured.failed == 0
    assert measured.attempted == 2 * measured.workload.queries


@pytest.mark.parametrize("name", WORKLOADS)
def test_layer_self_times_add_up_to_traced_time(name):
    _, metrics = _traced(name)
    layers = sum(metrics[key] for key in SECONDS_METRICS)
    assert all(metrics[key] >= 0 for key in SECONDS_METRICS)
    assert metrics["core.engine_s"] > 0
    assert math.isclose(layers + metrics["core.engine_s"], metrics["trace.query_s"])


def test_deadline_count_bypasses_goal_layers():
    _, metrics = _traced("deadline_count")
    for key in ("requirements.goal_calls", "flow.solves", "pruning.checks", "ranking.bound_calls"):
        assert metrics[key] == 0, key
    assert metrics["catalog.options_calls"] > 0
    assert metrics["expansion.children"] > 0


def test_layer_counts_repeat_exactly():
    first = _traced("goal_tree")[1]
    second = _traced("goal_tree")[1]
    assert {key: first[key] for key in COUNT_METRICS} == {key: second[key] for key in COUNT_METRICS}
    assert first["graph.nodes"] == 5_564  # every tree node but the root


def test_tracer_restores_the_original_methods():
    targets = run.layer_targets()
    before = [owner.__dict__[name] for _layer, owner, name, _kind in targets]
    with LayerTracer(targets):
        assert [owner.__dict__[name] for _layer, owner, name, _kind in targets] != before
    assert [owner.__dict__[name] for _layer, owner, name, _kind in targets] == before


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(run.PER_LAYER)


def _command(*extra):
    return [sys.executable, os.path.join("perfbench", "run.py"), "--seed", "3", *extra]


def test_command_line_prints_one_result_line():
    done = subprocess.run(
        _command("--workload", "deadline_count", "--seconds", "0", "--trace", "0", "--smoke"),
        cwd=run.ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _unit in run.END_TO_END}


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        _command("--workload", "goal_tree", "--seconds", "1", "--trace", "0"),
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout
