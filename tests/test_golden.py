"""Golden digests: every engine's observable output, pinned.

Each case runs one engine on the bundled Brandeis catalog and hashes a
canonical JSON rendering of what a caller can see: decision streams,
``graph_to_json`` exports (whose tree node ids pin expansion order), run
statistics, pruning tallies and final progress snapshots.  The goal tree
and the ranked search also run with their goal wrapped by a cold and a
warm :class:`~repro.cache.ExplorationCache`; each must match its uncached
digests.  A refactor that changes any output — an extra decision, a
reordered tree node, a shifted prune credit — fails here by name.

Timing fields (``elapsed_seconds``, ``eta_seconds``) are dropped before
hashing.

To re-record after an intended output change, run this file as a script
(``PYTHONPATH=src python tests/test_golden.py``) and paste its output.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict

import pytest

from repro import DecisionRecorder, ExplorationCache, Observability, TimeRanking
from repro.core import (
    frontier_count_deadline_paths,
    frontier_count_goal_paths,
    generate_deadline_driven,
    generate_goal_driven,
    generate_ranked,
)
from repro.data import brandeis_catalog, brandeis_major_goal, start_term_for_semesters
from repro.data.brandeis import EVALUATION_END_TERM
from repro.graph.export import graph_to_json
from repro.obs.live import ProgressTracker

END = EVALUATION_END_TERM


def _digest(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _stats(stats) -> Dict[str, Any]:
    data = stats.as_dict()
    del data["elapsed_seconds"]
    return data


def _snapshot(progress: ProgressTracker) -> Dict[str, Any]:
    data = progress.snapshot().as_dict()
    for timing in ("elapsed_seconds", "eta_seconds"):
        del data[timing]
    return data


def _observed(explain: bool = True):
    recorder = DecisionRecorder() if explain else None
    progress = ProgressTracker()
    return Observability(decisions=recorder, progress=progress), recorder, progress


def _events(recorder: DecisionRecorder):
    return [event.as_dict() for event in recorder.events]


def _goal(cache):
    goal = brandeis_major_goal()
    return goal if cache is None else cache.wrap_goal(goal)


def _goal_tree(cache) -> Dict[str, Any]:
    obs, recorder, progress = _observed()
    result = generate_goal_driven(
        brandeis_catalog(), start_term_for_semesters(4), _goal(cache), END, obs=obs
    )
    return {
        "explain": _events(recorder),
        "graph": graph_to_json(result.graph),
        "stats": _stats(result.stats),
        "pruning": result.pruning_stats.as_dict(),
        "progress": _snapshot(progress),
    }


def _deadline_tree() -> Dict[str, Any]:
    obs, _, progress = _observed(explain=False)
    result = generate_deadline_driven(
        brandeis_catalog(), start_term_for_semesters(2), END, obs=obs
    )
    return {
        "graph": graph_to_json(result.graph),
        "stats": _stats(result.stats),
        "progress": _snapshot(progress),
    }


def _ranked(cache=None) -> Dict[str, Any]:
    obs, recorder, progress = _observed()
    result = generate_ranked(
        brandeis_catalog(),
        start_term_for_semesters(4),
        _goal(cache),
        END,
        k=25,
        ranking=TimeRanking(),
        obs=obs,
    )
    return {
        "explain": _events(recorder),
        "paths": [
            [sorted(selection) for selection in path.selections] for path in result.paths
        ],
        "costs": result.costs,
        "stats": _stats(result.stats),
        "pruning": result.pruning_stats.as_dict(),
        "progress": _snapshot(progress),
    }


def _frontier_goal() -> Dict[str, Any]:
    obs, recorder, progress = _observed()
    result = frontier_count_goal_paths(
        brandeis_catalog(),
        start_term_for_semesters(4),
        brandeis_major_goal(),
        END,
        obs=obs,
    )
    return {
        "explain": _events(recorder),
        "count": result.path_count,
        "terminals": result.terminal_path_counts,
        "widths": result.layer_widths,
        "pruning": result.pruning_stats.as_dict(),
        "progress": _snapshot(progress),
    }


def _frontier_deadline() -> Dict[str, Any]:
    obs, _, progress = _observed(explain=False)
    result = frontier_count_deadline_paths(
        brandeis_catalog(), start_term_for_semesters(3), END, obs=obs
    )
    return {
        "count": result.path_count,
        "terminals": result.terminal_path_counts,
        "widths": result.layer_widths,
        "progress": _snapshot(progress),
    }


def _goal_tree_warm() -> Dict[str, Any]:
    cache = ExplorationCache()
    _goal_tree(cache)
    return _goal_tree(cache)


def _ranked_cached(warm: bool) -> Dict[str, Any]:
    cache = ExplorationCache()
    if warm:
        _ranked(cache)
    outputs = _ranked(cache)
    return {name: outputs[name] for name in ("explain", "paths", "stats")}


CASES: Dict[str, Callable[[], Dict[str, Any]]] = {
    "goal_tree_uncached": lambda: _goal_tree(None),
    "goal_tree_cached": lambda: _goal_tree(ExplorationCache()),
    "goal_tree_warm": _goal_tree_warm,
    "deadline_tree": _deadline_tree,
    "ranked": _ranked,
    "ranked_cached": lambda: _ranked_cached(warm=False),
    "ranked_warm": lambda: _ranked_cached(warm=True),
    "frontier_goal": _frontier_goal,
    "frontier_deadline": _frontier_deadline,
}

GOLDEN: Dict[str, Dict[str, str]] = {
    'deadline_tree': {
        'graph': '7ea8f7960f5de0f70b9ab2556945f4abe80689952e3b20b73f38d8220e4ba6fa',
        'stats': '8fa89bb5d97e9f0afe7a0c75a6d17cbb8f75cdffce43dd1bf6f502fe713b9fcf',
        'progress': 'd10bacc03555e9cca28395a40a5326e900d3cf8d216c277420ea89cfa11b51a4',
    },
    'frontier_deadline': {
        'count': '2f1987bf98c09d2f5d2a23a6ae29fa53b9aec8f07ed1330bd439122f5a1a2c2c',
        'terminals': 'e4f79b7b1faa57d34075b72844d6ce262624659282d62947d4777533a6212370',
        'widths': '87a0b9ed8f0ea3e4802573f1c38e4bbbe547ee809743153326ed833755e06841',
        'progress': '00ab9ab7ecd30e28a5b11ea9cb62c6100f20e40e8add25121ea15fb531e58e3b',
    },
    'frontier_goal': {
        'explain': '2447a924a67637915d2b3b391f836c864cdeb73738e2a897d404da3420b4b6ee',
        'count': '43f64dc77762f69f9f52d5f70b53170679cb9abfc688f4cf77bdfc8077f022bc',
        'terminals': '7bc16c5424e4816f09bf84caa37ffe81bcea6645e38f26f2ebd4124bf09b6262',
        'widths': '1370c4a87ae57df45384e60810767be93120ddd6ebb24c2ca18207a5ac978fa8',
        'pruning': '1430da163c55dc3a54606a4c46c85fdd7624dd4aee3c7d318740c724ca5a4ab7',
        'progress': 'b24e39250aee19a9a8da5258cfb85c30de307aab588103c9afe7fed6e0cbca3e',
    },
    'goal_tree_cached': {
        'explain': 'b0da7291d65a414797bf9af0f6bd7282eeaa66841d9eb9e37ba55533be74d9b9',
        'graph': 'c2f4a3542ecfeec72cdb459d95fe2ce905f2e7ccd1ac91d43da204209f6c2dd2',
        'stats': '825655829cb1d3c78a6f8f61785261a663d2edec1a98447e8b1583eea9334628',
        'pruning': '4bdde2b10b712ddd89ec2a579079a6f5833b0bff635330e28185036f568fd8f8',
        'progress': 'c0ee6b054a0c577795aa5213ac3d57d06aeab845f5dfcd086a178c62ca0d927e',
    },
    'goal_tree_uncached': {
        'explain': 'b0da7291d65a414797bf9af0f6bd7282eeaa66841d9eb9e37ba55533be74d9b9',
        'graph': 'c2f4a3542ecfeec72cdb459d95fe2ce905f2e7ccd1ac91d43da204209f6c2dd2',
        'stats': '825655829cb1d3c78a6f8f61785261a663d2edec1a98447e8b1583eea9334628',
        'pruning': '4bdde2b10b712ddd89ec2a579079a6f5833b0bff635330e28185036f568fd8f8',
        'progress': 'c0ee6b054a0c577795aa5213ac3d57d06aeab845f5dfcd086a178c62ca0d927e',
    },
    'goal_tree_warm': {
        'explain': 'b0da7291d65a414797bf9af0f6bd7282eeaa66841d9eb9e37ba55533be74d9b9',
        'graph': 'c2f4a3542ecfeec72cdb459d95fe2ce905f2e7ccd1ac91d43da204209f6c2dd2',
        'stats': '825655829cb1d3c78a6f8f61785261a663d2edec1a98447e8b1583eea9334628',
        'pruning': '4bdde2b10b712ddd89ec2a579079a6f5833b0bff635330e28185036f568fd8f8',
        'progress': 'c0ee6b054a0c577795aa5213ac3d57d06aeab845f5dfcd086a178c62ca0d927e',
    },
    'ranked': {
        'explain': '38919e2ec7755e9f622548e33e1ab800d546b6f5782e9f5c1e9ae8c3ec96249c',
        'paths': 'c2cb575e9ea97deddbc97fd29861eba47a59ed71259ea09e98633598d1fb8821',
        'costs': '7acb5cf54423181f141cb0d2e037e4aaa5ac5a68091dd679449bf4a35596e00b',
        'stats': '037f6c1b8225f4a60b78813cef205f47519fc0786c8e02bd5fe8b8c537bc75cb',
        'pruning': 'b0779f3702ed4b7de1b8bc14ef249ca543599a6b648ea115639f35f3c778a517',
        'progress': 'ad38c3d085a04d7fbb422e32038062cbd0a20541c3892bbad7a9f7851acf13c1',
    },
    'ranked_cached': {
        'explain': '38919e2ec7755e9f622548e33e1ab800d546b6f5782e9f5c1e9ae8c3ec96249c',
        'paths': 'c2cb575e9ea97deddbc97fd29861eba47a59ed71259ea09e98633598d1fb8821',
        'stats': '037f6c1b8225f4a60b78813cef205f47519fc0786c8e02bd5fe8b8c537bc75cb',
    },
    'ranked_warm': {
        'explain': '38919e2ec7755e9f622548e33e1ab800d546b6f5782e9f5c1e9ae8c3ec96249c',
        'paths': 'c2cb575e9ea97deddbc97fd29861eba47a59ed71259ea09e98633598d1fb8821',
        'stats': '037f6c1b8225f4a60b78813cef205f47519fc0786c8e02bd5fe8b8c537bc75cb',
    },
}


def fingerprint(case: str) -> Dict[str, str]:
    """Per-output digests of one case."""
    return {name: _digest(value) for name, value in CASES[case]().items()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_digests(case):
    assert fingerprint(case) == GOLDEN[case]


if __name__ == "__main__":
    print("GOLDEN: Dict[str, Dict[str, str]] = {")
    for name in sorted(CASES):
        print(f"    {name!r}: {{")
        for output, digest in fingerprint(name).items():
            print(f"        {output!r}: {digest!r},")
        print("    },")
    print("}")
