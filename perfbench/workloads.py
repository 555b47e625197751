"""The benchmark's four workloads and the golden outputs they must match.

Each workload splits one measured unit into a set-up step (catalog build
or generation, goal construction, cache creation) and the queries a user
waits for.  Every unit builds its inputs afresh, so no unit can warm the
next: ``DegreeGoal`` keeps a private seat memo and an ``ExplorationCache``
keeps memos across queries.

Golden values were recorded from the library before any optimisation;
a query whose output differs from them counts as failed.  Node counts of
ranked searches are not golden, because a tighter admissible bound may
legitimately change them; the ordered ``(cost, path)`` list is.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Sequence, Tuple

from repro import (
    CourseNavigator,
    DegreeGoal,
    ExplorationConfig,
    RequirementGroup,
    TimeRanking,
    generate_goal_driven,
    generate_ranked,
)
from repro.cache import ExplorationCache
from repro.core import frontier_count_deadline_paths
from repro.data import brandeis_catalog, brandeis_major_goal, start_term_for_semesters
from repro.data.brandeis import EVALUATION_END_TERM
from repro.data.generator import GeneratorSettings, random_catalog

__all__ = ["WORKLOADS", "Workload", "build_workload", "ranked_digest"]

#: The paper's per-semester course cap ``m``.
MAX_COURSES_PER_TERM = 3

#: Shape of the scale workload's catalog: about 24 options per term.
RANDOM_SETTINGS = GeneratorSettings(n_courses=60, n_terms=6, layers=4)

#: Table 1 golden counts per horizon: (tree nodes, goal paths, prune tallies).
GOAL_TREE_GOLDEN = {
    5: (60_448, 11_783, {"time": 30_880, "availability": 14_441}),
    4: (5_565, 905, {"time": 3_813, "availability": 1_071}),
}

#: Table 2 deadline-row golden counts per horizon:
#: (paths, frontier states, widest layer).
DEADLINE_GOLDEN = {
    4: (611_998, 270_099, 261_614),
    3: (1_030, 513, 465),
}

#: Digest of the ordered (cost, path) list of each ranked k=100 query,
#: keyed by horizon in semesters.
RANKED_SESSION_GOLDEN = {
    6: "28277bae4c05c81e62af5db0e336672a9431eb3b8d37271ca781163d84ee070a",
    7: "d5fdc97c125fc89c31d2a87f8c9b91afb557f3ba1b3f78fd65c809098ab3ecf9",
    8: "5a8121cbc3788d03a38379fadbe001fe8e2d14370c7be30b56d1937c487c79b5",
}

#: Digest of the scale workload's ordered (cost, path) list, keyed by the
#: random catalog's seed.
RANDOM_RANKED_GOLDEN = {
    7: "018990643eac04b4d79e132ec1b9d7e634d3cfba1670f2313a41975112779164",
}


def _config() -> ExplorationConfig:
    return ExplorationConfig(max_courses_per_term=MAX_COURSES_PER_TERM)


def ranked_digest(result) -> str:
    """SHA-256 over a ranked result's ordered ``(cost, path)`` list."""
    listing = [
        [cost, [[str(term), list(courses)] for term, courses in path.steps()]]
        for cost, path in result.ranked()
    ]
    return hashlib.sha256(json.dumps(listing).encode()).hexdigest()


def _check_ranked(result, k: int, digest: str, label: str) -> List[str]:
    if len(result.paths) != k:
        return [f"{label}: {len(result.paths)} paths, expected {k}"]
    if result.costs != sorted(result.costs):
        return [f"{label}: costs are not non-decreasing"]
    if ranked_digest(result) != digest:
        return [f"{label}: (cost, path) digest differs from the golden one"]
    return []


def overlapping_goal(catalog) -> DegreeGoal:
    """A degree goal whose elective groups share courses.

    Core: the four most-offered first-layer courses (ties by id).  Two
    3-seat elective groups over the second layer, in id order: the first
    six courses and the fourth to ninth, so they share three courses and
    seat assignment needs a real matching.
    """
    layers: Dict[str, List[str]] = {}
    for course_id in sorted(catalog.course_ids()):
        for tag in catalog[course_id].tags:
            layers.setdefault(tag, []).append(course_id)
    schedule = catalog.schedule
    core = sorted(layers["layer0"], key=lambda cid: (-len(schedule.offerings(cid)), cid))[:4]
    second = layers["layer1"]
    return DegreeGoal(
        (
            RequirementGroup("core", core, len(core)),
            RequirementGroup("track_a", second[0:6], 3),
            RequirementGroup("track_b", second[3:9], 3),
        ),
        name="random major",
    )


class Workload:
    """One benchmark workload: set-up, the timed queries, and their check."""

    name = "workload"
    #: Queries issued per measured unit (each one can fail on its own).
    queries = 1

    def setup(self) -> Dict[str, Any]:
        """Fresh inputs for one unit (timed as set-up)."""
        raise NotImplementedError

    def run(self, inputs: Dict[str, Any]) -> List[Any]:
        """The unit's queries (timed as query time); one output per query."""
        raise NotImplementedError

    def check(self, outputs: Sequence[Any]) -> List[str]:
        """Mismatches against the golden outputs; empty when all match."""
        raise NotImplementedError


class GoalTree(Workload):
    """Table 1: goal-driven tree, Brandeis major, no cache."""

    name = "goal_tree"

    def __init__(self, semesters: int = 5):
        self.semesters = semesters
        self.golden = GOAL_TREE_GOLDEN[semesters]

    def setup(self):
        return {"catalog": brandeis_catalog(), "goal": brandeis_major_goal(), "config": _config()}

    def run(self, inputs):
        start = start_term_for_semesters(self.semesters)
        return [
            generate_goal_driven(
                inputs["catalog"], start, inputs["goal"], EVALUATION_END_TERM,
                config=inputs["config"],
            )
        ]

    def check(self, outputs):
        (result,) = outputs
        got = (result.graph.num_nodes, result.path_count, result.pruning_stats.as_dict())
        if got != self.golden:
            return [f"{self.name}@{self.semesters}: got {got}, expected {self.golden}"]
        return []


class DeadlineCount(Workload):
    """Table 2 deadline row: frontier count with no goal."""

    name = "deadline_count"

    def __init__(self, semesters: int = 4):
        self.semesters = semesters
        self.golden = DEADLINE_GOLDEN[semesters]

    def setup(self):
        return {"catalog": brandeis_catalog(), "config": _config()}

    def run(self, inputs):
        start = start_term_for_semesters(self.semesters)
        return [
            frontier_count_deadline_paths(
                inputs["catalog"], start, EVALUATION_END_TERM, config=inputs["config"]
            )
        ]

    def check(self, outputs):
        (result,) = outputs
        got = (result.path_count, result.total_states, result.peak_frontier)
        if got != self.golden:
            return [f"{self.name}@{self.semesters}: got {got}, expected {self.golden}"]
        return []


class RankedSession(Workload):
    """Figure 4: ranked top-k at widening horizons through one navigator
    whose exploration cache is shared by the session's queries."""

    name = "ranked_session"

    def __init__(self, horizons: Tuple[int, ...] = (6, 7, 8), k: int = 100):
        self.horizons = horizons
        self.queries = len(horizons)
        self.k = k

    def setup(self):
        catalog = brandeis_catalog()
        cache = ExplorationCache()
        return {
            "navigator": CourseNavigator(catalog, cache=cache),
            "cache": cache,
            "goal": brandeis_major_goal(),
            "config": _config(),
        }

    def run(self, inputs):
        navigator = inputs["navigator"]
        return [
            navigator.explore_ranked(
                start_term_for_semesters(semesters), inputs["goal"], EVALUATION_END_TERM,
                self.k, TimeRanking(), config=inputs["config"],
            )
            for semesters in self.horizons
        ]

    def check(self, outputs):
        failures = []
        for semesters, result in zip(self.horizons, outputs):
            failures += _check_ranked(
                result, self.k, RANKED_SESSION_GOLDEN[semesters], f"{self.name}@{semesters}"
            )
        return failures


class RandomRanked(Workload):
    """Scale: ranked top-k on a generated catalog with overlapping groups."""

    name = "random_ranked"

    def __init__(self, catalog_seed: int = 7, k: int = 100):
        if catalog_seed not in RANDOM_RANKED_GOLDEN:
            raise ValueError(
                f"no golden output for catalog seed {catalog_seed}; "
                f"recorded seeds: {sorted(RANDOM_RANKED_GOLDEN)}"
            )
        self.catalog_seed = catalog_seed
        self.k = k

    def setup(self):
        catalog = random_catalog(self.catalog_seed, RANDOM_SETTINGS)
        return {"catalog": catalog, "goal": overlapping_goal(catalog), "config": _config()}

    def run(self, inputs):
        start = RANDOM_SETTINGS.start_term
        return [
            generate_ranked(
                inputs["catalog"], start, inputs["goal"], start + RANDOM_SETTINGS.n_terms,
                self.k, TimeRanking(), config=inputs["config"],
            )
        ]

    def check(self, outputs):
        (result,) = outputs
        return _check_ranked(
            result, self.k, RANDOM_RANKED_GOLDEN[self.catalog_seed],
            f"{self.name}@seed{self.catalog_seed}",
        )


WORKLOADS = ("goal_tree", "ranked_session", "deadline_count", "random_ranked")


def build_workload(name: str, catalog_seed: int = 7, smoke: bool = False) -> Workload:
    """The named workload at full size, or at its reduced smoke size."""
    if name == "goal_tree":
        return GoalTree(4 if smoke else 5)
    if name == "deadline_count":
        return DeadlineCount(3 if smoke else 4)
    if name == "ranked_session":
        return RankedSession((6,) if smoke else (6, 7, 8))
    if name == "random_ranked":
        return RandomRanked(catalog_seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
