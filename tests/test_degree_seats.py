"""DegreeGoal's seat counter against the max-flow oracle.

``DegreeGoal`` counts the seats a completed set fills with a closed form
(disjoint groups) or an augmenting-path matcher (overlapping groups).  The
paper's formulation is max-flow on source → course → group → sink; these
tests rebuild that network with :class:`repro.requirements.flow.FlowNetwork`
and check every answer against its Edmonds–Karp solver.
"""

import copy
import json
import math
import pickle
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.requirements import DegreeGoal, FlowNetwork, RequirementGroup

_UNIVERSE = tuple(f"C{i}" for i in range(9))


def _oracle_seats(goal, completed):
    """Max-flow seats, built the way the paper states the problem."""
    network = FlowNetwork()
    source, sink = ("src",), ("snk",)
    network.add_node(source)
    network.add_node(sink)
    for group in goal.groups:
        if group.required > 0:
            network.add_edge(("group", group.name), sink, group.required)
    for course_id in sorted(goal.courses() & frozenset(completed)):
        network.add_edge(source, ("course", course_id), 1)
        for group in goal.groups:
            if group.required > 0 and course_id in group.course_ids:
                network.add_edge(("course", course_id), ("group", group.name), 1)
    return network.max_flow(source, sink)


@st.composite
def _groups(draw, disjoint):
    pool = list(_UNIVERSE)
    groups = []
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        if disjoint and not pool:
            break
        members = draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True)
        )
        if disjoint:
            pool = [c for c in pool if c not in members]
        required = draw(st.integers(min_value=0, max_value=len(members)))
        groups.append(RequirementGroup(f"g{i}", members, required))
    return groups


_disjoint_goals = _groups(disjoint=True).map(DegreeGoal)
_any_goals = _groups(disjoint=False).map(DegreeGoal)
_completed = st.sets(st.sampled_from(_UNIVERSE))


def _check_against_oracle(goal, completed):
    satisfiable = _oracle_seats(goal, goal.courses()) >= goal.total_required
    for as_set in (frozenset(completed), set(completed)):
        filled = goal._count_seats(as_set)
        assert filled == _oracle_seats(goal, as_set)
        if not satisfiable:
            assert goal.remaining_courses(as_set) == math.inf
        else:
            assert goal.remaining_courses(as_set) == goal.total_required - filled
        assert goal.is_satisfied(as_set) == (filled >= goal.total_required)


@settings(max_examples=150, deadline=None)
@given(_disjoint_goals, _completed)
def test_disjoint_closed_form_matches_max_flow(goal, completed):
    assert goal._disjoint
    _check_against_oracle(goal, completed)


@settings(max_examples=300, deadline=None)
@given(_any_goals, _completed)
@example(
    DegreeGoal((RequirementGroup("a", {"C0"}, 1), RequirementGroup("b", {"C0"}, 1))),
    set(),
)
@example(
    DegreeGoal(
        (
            RequirementGroup("a", {"C0", "C1"}, 1),
            RequirementGroup("b", {"C0"}, 1),
            RequirementGroup("z", {"C1", "C2"}, 0),
        )
    ),
    {"C0", "C1", "C2"},
)
def test_matcher_matches_max_flow(goal, completed):
    _check_against_oracle(goal, completed)


@settings(max_examples=300, deadline=None)
@given(_any_goals, _completed)
def test_assignment_is_a_maximum_assignment(goal, completed):
    assignment = goal.assignment(set(completed))
    by_name = {group.name: group for group in goal.groups}
    assert len(assignment) == goal._count_seats(completed)
    for course_id, name in assignment.items():
        assert course_id in completed
        assert course_id in by_name[name].course_ids
    for group in goal.groups:
        held = sum(1 for name in assignment.values() if name == group.name)
        assert held <= group.required


def test_empty_completed_fills_nothing():
    goal = DegreeGoal(
        (RequirementGroup("a", {"A", "B"}, 1), RequirementGroup("b", {"B"}, 1))
    )
    assert not goal._disjoint
    assert goal._count_seats(frozenset()) == 0
    assert goal._count_seats(set()) == 0
    assert goal.remaining_courses(set()) == 2
    assert goal.assignment(set()) == {}


@pytest.mark.parametrize(
    "copier", [lambda goal: pickle.loads(pickle.dumps(goal)), copy.deepcopy]
)
def test_goals_survive_pickle_and_deepcopy(copier):
    overlapping = DegreeGoal(
        (RequirementGroup("a", {"A", "B"}, 1), RequirementGroup("b", {"B"}, 1))
    )
    disjoint = DegreeGoal.from_core_electives({"A"}, {"B", "C"}, 1)
    for goal in (overlapping, disjoint):
        clone = copier(goal)
        assert clone == goal
        assert clone.remaining_courses({"B"}) == goal.remaining_courses({"B"}) == 1
        assert clone.assignment({"A", "B"}) == goal.assignment({"A", "B"})


def test_brandeis_major_closed_form_matches_max_flow():
    from repro.data import brandeis_major_goal
    from repro.data.brandeis import CORE_COURSE_IDS, ELECTIVE_COURSE_IDS

    goal = brandeis_major_goal()
    assert goal._disjoint
    done = set(sorted(CORE_COURSE_IDS)[:4]) | set(sorted(ELECTIVE_COURSE_IDS)[:9])
    assert goal._count_seats(done) == _oracle_seats(goal, done) == 9


_ASSIGNMENT_SCRIPT = """
import json
from repro.data import brandeis_major_goal
from repro.data.brandeis import CORE_COURSE_IDS, ELECTIVE_COURSE_IDS
from repro.requirements import DegreeGoal, RequirementGroup, progress_report

major = brandeis_major_goal()
done = set(CORE_COURSE_IDS) | set(sorted(ELECTIVE_COURSE_IDS)[:8])
overlapping = DegreeGoal((
    RequirementGroup("a", ["A", "B", "C", "D"], 2),
    RequirementGroup("b", ["C", "D", "E", "F"], 2),
    RequirementGroup("c", ["A", "D", "F"], 1),
))
report = progress_report(major, done)
print(json.dumps({
    "major": major.assignment(done),
    "overlapping": overlapping.assignment({"A", "B", "C", "D", "E", "F"}),
    "partial": overlapping.assignment({"A", "C", "D"}),
    "report": {g.name: sorted(g.assigned_courses) for g in report.groups},
}, sort_keys=True))
"""


def test_assignment_is_identical_across_hash_seeds():
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    outputs = set()
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        completed = subprocess.run(
            [sys.executable, "-c", _ASSIGNMENT_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.add(completed.stdout)
    assert len(outputs) == 1
    result = json.loads(outputs.pop())
    assert len(result["overlapping"]) == 5
    assert len(result["report"]["electives"]) == 5
