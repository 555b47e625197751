"""Every engine run pauses the cyclic garbage collector.

The run scope each engine enters through ``NodeStep.start`` disables the
generational collector for the run and restores its prior state when the
outermost run ends, on every path: normal, raising, nested inside a
plug-in, or overlapping another thread's run.  Plug-ins (goals, pruners,
rankings, constraints) run inside the pause, so they observe
``gc.isenabled() is False``.
"""

import gc
import sys
import threading
import weakref

import pytest

from repro.core import (
    ExplorationConfig,
    SelectionConstraint,
    TimeRanking,
    frontier_count_deadline_paths,
    frontier_count_goal_paths,
    generate_deadline_driven,
    generate_goal_driven,
    generate_ranked,
)
from repro.data.brandeis import EVALUATION_END_TERM, brandeis_catalog
from repro.errors import BudgetExceededError
from repro.obs import Observability
from repro.obs.tracing import Tracer
from repro.requirements import CourseSetGoal, DegreeGoal, RequirementGroup

END = EVALUATION_END_TERM
START = END - 2
GOAL_COURSES = ("COSI 11a", "COSI 12b")


@pytest.fixture(scope="module")
def catalog():
    return brandeis_catalog()


@pytest.fixture(autouse=True)
def collector_on():
    """Each test starts with the collector on and leaves it on."""
    gc.enable()
    yield
    gc.enable()


class ProbeConstraint(SelectionConstraint):
    """Allows every selection; records ``gc.isenabled()`` at each call and
    runs ``hook`` once, on the first call."""

    name = "gc_probe"

    def __init__(self, hook=None):
        self.seen = []
        self.hook = hook

    def allows(self, selection, term, status):
        self.seen.append(gc.isenabled())
        if self.hook is not None:
            hook, self.hook = self.hook, None
            hook()
        return True


class ProbeGoal(CourseSetGoal):
    """A course-set goal that records ``gc.isenabled()`` at each test."""

    def __init__(self, course_ids):
        super().__init__(course_ids)
        self.seen = []

    def is_satisfied(self, completed):
        self.seen.append(gc.isenabled())
        return super().is_satisfied(completed)


def _config(probe, **kwargs):
    return ExplorationConfig(constraints=(probe,), **kwargs)


ENGINES = {
    "generate_goal_driven": lambda catalog, goal, config: generate_goal_driven(
        catalog, START, goal, END, config=config
    ),
    "generate_deadline_driven": lambda catalog, goal, config: generate_deadline_driven(
        catalog, START, END, config=config
    ),
    "generate_ranked": lambda catalog, goal, config: generate_ranked(
        catalog, START, goal, END, 5, TimeRanking(), config=config
    ),
    "frontier_count_goal_paths": lambda catalog, goal, config: frontier_count_goal_paths(
        catalog, START, goal, END, config=config
    ),
    "frontier_count_deadline_paths": lambda catalog, goal, config: (
        frontier_count_deadline_paths(catalog, START, END, config=config)
    ),
}
GOAL_ENGINES = {
    "generate_goal_driven",
    "generate_ranked",
    "frontier_count_goal_paths",
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_plugins_run_with_the_collector_paused(catalog, engine):
    probe = ProbeConstraint()
    goal = ProbeGoal(GOAL_COURSES)
    ENGINES[engine](catalog, goal, _config(probe))
    assert probe.seen and not any(probe.seen)
    if engine in GOAL_ENGINES:
        assert goal.seen and not any(goal.seen)
    assert gc.isenabled()


def test_a_run_that_raises_restores_the_collector(catalog):
    probe = ProbeConstraint()
    with pytest.raises(BudgetExceededError):
        generate_goal_driven(
            catalog, START, CourseSetGoal(GOAL_COURSES), END,
            config=_config(probe, max_nodes=5),
        )
    assert probe.seen and not any(probe.seen)
    assert gc.isenabled()


def test_a_plugin_error_restores_the_collector(catalog):
    def fail():
        raise RuntimeError("plug-in failure")

    with pytest.raises(RuntimeError, match="plug-in failure"):
        frontier_count_deadline_paths(catalog, START, END, config=_config(ProbeConstraint(fail)))
    assert gc.isenabled()


def test_a_run_started_with_the_collector_off_leaves_it_off(catalog):
    probe = ProbeConstraint()
    gc.disable()
    generate_ranked(
        catalog, START, CourseSetGoal(GOAL_COURSES), END, 5, TimeRanking(),
        config=_config(probe),
    )
    assert not gc.isenabled()
    assert probe.seen and not any(probe.seen)


def test_a_nested_run_keeps_the_outer_run_paused(catalog):
    after_nested = []

    def nested():
        generate_deadline_driven(catalog, END - 1, END)
        after_nested.append(gc.isenabled())

    probe = ProbeConstraint(nested)
    generate_goal_driven(
        catalog, START, CourseSetGoal(GOAL_COURSES), END, config=_config(probe)
    )
    assert after_nested == [False]
    assert not any(probe.seen)
    assert gc.isenabled()


def test_overlapping_runs_in_two_threads(catalog):
    barrier = threading.Barrier(2, timeout=30)
    probes = [ProbeConstraint(barrier.wait) for _ in range(2)]
    errors = []

    def run(probe):
        try:
            frontier_count_goal_paths(
                catalog, START, CourseSetGoal(GOAL_COURSES), END, config=_config(probe)
            )
        except BaseException as error:  # surfaced by the assertion below
            errors.append(error)

    threads = [threading.Thread(target=run, args=(probe,)) for probe in probes]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for probe in probes:
        assert probe.seen and not any(probe.seen)
    assert gc.isenabled()


def test_many_threads_racing_runs_keep_the_pause_counted(catalog):
    """More threads than cores start and end short runs with a tiny switch
    interval: a lost update of the pause count would let one run see the
    collector on, or leave it off at the end."""
    probes = [ProbeConstraint() for _ in range(4)]

    def run(probe):
        for _ in range(5):
            generate_deadline_driven(catalog, START, END, config=_config(probe))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(probe,)) for probe in probes]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for probe in probes:
        assert probe.seen and not any(probe.seen)
    assert gc.isenabled()


def test_the_deferred_pass_runs_inside_the_run_scope(catalog):
    """A run makes one collector pass, the young-generation pass the pause
    deferred, and pays it before the ``run:<name>`` scope closes, so query
    times and the run span keep it."""
    passes = []

    def on_collect(phase, info):
        if phase == "start":
            passes.append((info["generation"], obs.tracer.current_span is not None))

    obs = Observability(tracer=Tracer())
    goal = CourseSetGoal(GOAL_COURSES)
    gc.collect()  # no pass is due when the run starts
    gc.callbacks.append(on_collect)
    try:
        # Table 1 at 4 semesters: thousands of nodes, enough allocation
        # for many passes were the collector running.
        generate_goal_driven(catalog, END - 4, goal, END, obs=obs)
    finally:
        gc.callbacks.remove(on_collect)
    assert passes == [(0, True)]


def test_seat_matching_leaves_no_cyclic_garbage():
    """``DegreeGoal``'s matcher frees everything it allocates by reference
    counting, so a paused collector has nothing to find afterwards."""
    goal = DegreeGoal(
        (
            RequirementGroup("systems", ["COSI 21a", "COSI 29a", "COSI 12b"], 2),
            RequirementGroup("theory", ["COSI 21a", "COSI 12b"], 1),
            RequirementGroup("practice", ["COSI 29a", "COSI 11a", "COSI 65a"], 2),
        )
    )
    completed = {"COSI 21a", "COSI 29a", "COSI 12b", "COSI 11a"}
    gc.collect()
    gc.disable()
    assignment = goal.assignment(completed)
    remaining = goal.remaining_courses(frozenset(completed))
    assert gc.collect() == 0
    assert assignment == {
        "COSI 11a": "practice",
        "COSI 12b": "theory",
        "COSI 21a": "systems",
        "COSI 29a": "systems",
    }
    assert remaining == 1


@pytest.mark.parametrize(
    "groups",
    [
        (
            RequirementGroup("core", ["COSI 11a", "COSI 12b"], 2),
            RequirementGroup("electives", ["COSI 21a", "COSI 29a"], 1),
        ),
        (
            RequirementGroup("systems", ["COSI 21a", "COSI 29a", "COSI 12b"], 2),
            RequirementGroup("theory", ["COSI 21a", "COSI 12b"], 1),
        ),
    ],
    ids=["disjoint", "overlapping"],
)
def test_a_dropped_degree_goal_is_freed_without_the_collector(groups):
    """A goal holds no reference cycle, so dropping it frees it at once even
    with the collector paused (as it is for the length of every run)."""
    gc.disable()
    goal = DegreeGoal(groups)
    assert goal.remaining_courses(frozenset({"COSI 21a", "COSI 12b"})) >= 0
    ref = weakref.ref(goal)
    del goal
    assert ref() is None
