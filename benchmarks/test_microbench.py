"""Micro-benchmarks for the library's hot primitives.

Not paper experiments — these watch the building blocks every algorithm
leans on, so a performance regression in one of them shows up here before
it smears across the table benchmarks:

* option-set derivation (``Y_i``) — executed once per generated node,
  timed both as a memo hit and as a compile-and-miss on a fresh catalog;
* prerequisite evaluation and DNF expansion;
* the ``left_i`` seat count for the 7-core/5-elective degree goal (closed
  form) and for a goal with overlapping groups (matching);
* one full Expander successor sweep;
* prerequisite-text parsing.
"""

from __future__ import annotations

import pytest

from repro.core import ExplorationConfig
from repro.core.expansion import Expander
from repro.data import brandeis_catalog, brandeis_major_goal
from repro.parsing import parse_prerequisites
from repro.requirements import DegreeGoal, RequirementGroup
from repro.semester import Term

F13 = Term(2013, "Fall")
S14 = Term(2014, "Spring")
F15 = Term(2015, "Fall")


@pytest.fixture(scope="module")
def catalog():
    return brandeis_catalog()


@pytest.fixture(scope="module")
def midway_completed():
    return frozenset(
        {"COSI 11a", "COSI 29a", "COSI 12b", "COSI 21a", "COSI 65a"}
    )


@pytest.mark.benchmark(group="micro")
def test_bench_eligible_courses_hit(benchmark, catalog, midway_completed):
    # Same catalog every round: after the first call this is a memo hit
    # (the mask projection plus one lookup).
    def run():
        return len(catalog.eligible_courses(midway_completed, S14))

    count = benchmark(run)
    assert count > 0


@pytest.mark.benchmark(group="micro")
def test_bench_eligible_courses_miss(benchmark, midway_completed):
    # A fresh catalog per round (built untimed): compiling the term's
    # clause masks plus one derivation.
    def run(fresh):
        return len(fresh.eligible_courses(midway_completed, S14))

    count = benchmark.pedantic(
        run, setup=lambda: ((brandeis_catalog(),), {}), rounds=200
    )
    assert count > 0


@pytest.mark.benchmark(group="micro")
def test_bench_prereq_evaluation(benchmark, catalog, midway_completed):
    prereqs = [catalog[cid].prereq for cid in catalog]

    def run():
        return sum(1 for p in prereqs if p.evaluate(midway_completed))

    satisfied = benchmark(run)
    assert satisfied > 0


@pytest.mark.benchmark(group="micro")
def test_bench_prereq_dnf(benchmark, catalog):
    prereqs = [catalog[cid].prereq for cid in catalog]

    def run():
        return sum(len(p.to_dnf()) for p in prereqs)

    total = benchmark(run)
    assert total > 0


@pytest.mark.benchmark(group="micro")
def test_bench_degree_left_i(benchmark, midway_completed):
    goal = brandeis_major_goal()

    def run():
        # Disjoint groups: the closed-form seat count runs on every call.
        return goal.remaining_courses(midway_completed)

    left = benchmark(run)
    assert left == 7


@pytest.mark.benchmark(group="micro")
def test_bench_degree_left_i_overlapping(benchmark):
    # Core plus two 3-seat tracks sharing three courses: a real matching.
    goal = DegreeGoal(
        (
            RequirementGroup("core", ["c1", "c2", "c3", "c4"], 4),
            RequirementGroup("track_a", ["e1", "e2", "e3", "e4", "e5", "e6"], 3),
            RequirementGroup("track_b", ["e4", "e5", "e6", "e7", "e8", "e9"], 3),
        )
    )
    completed = frozenset({"c1", "c3", "e4", "e5", "e6", "e7", "x1"})

    def run():
        # Call the matcher behind the LRU memo: measure the matching, not the memo.
        return goal._seat_memo.__wrapped__(completed & goal.courses())

    filled = benchmark(run)
    assert filled == 6


@pytest.mark.benchmark(group="micro")
def test_bench_expander_successor_sweep(benchmark, catalog, midway_completed):
    expander = Expander(catalog, F15, ExplorationConfig())
    status = expander.initial_status(S14, midway_completed)

    def run():
        return sum(1 for _ in expander.successors(status))

    branches = benchmark(run)
    assert branches > 10


@pytest.mark.benchmark(group="micro")
def test_bench_prereq_parser(benchmark):
    texts = [
        "COSI 11a",
        "COSI 12b AND COSI 21a",
        "COSI 21a AND COSI 29a",
        "COSI 31a OR COSI 107a",
        "2 OF [COSI 101a, COSI 103a, COSI 107a, COSI 127b]",
        "Prerequisites: COSI 11a and (COSI 21a or COSI 22b).",
    ]

    def run():
        return [parse_prerequisites(text) for text in texts]

    parsed = benchmark(run)
    assert len(parsed) == len(texts)


@pytest.mark.benchmark(group="micro")
def test_bench_term_arithmetic(benchmark):
    start = Term(2011, "Fall")

    def run():
        term = start
        for _ in range(100):
            term = term + 1
        return term - start

    distance = benchmark(run)
    assert distance == 100
