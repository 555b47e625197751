"""The out-tree against the engine-free enumerator and a plain DFS.

* **Oracle** — on generated small catalogs (two- and three-season
  calendars, the Lakeside trimester catalog, KOf prerequisites,
  constraints, avoid-lists, all three empty-selection policies), the goal
  tree's goal paths equal :func:`tests.oracle.enumerate_tree`'s, pruned or
  not; unpruned, its terminal census does too.  The deadline tree's paths
  of every kind and its census equal the enumerator's.
* **Plain DFS** — the tree decides each distinct ``(term, X)`` once and
  replays that decision at the state's later nodes.  A test-local DFS that
  calls :meth:`NodeStep.decide` at every node, with no reuse, must build
  the same nodes ``(parent, selection, term, X, kind)``, stats and prune
  tallies, on Table 1 and on generated cases, which must replay a real
  share of their nodes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog import Catalog, Course, Schedule
from repro.catalog.prereq import TRUE, KOf, CourseReq, all_of, any_of
from repro.core import ExplorationConfig, generate_deadline_driven, generate_goal_driven
from repro.core.constraints import ForbiddenCombination, MaxCoursesInTerm, TermBlackout
from repro.core.step import NodeStep
from repro.data import brandeis_catalog, brandeis_major_goal, start_term_for_semesters
from repro.data.brandeis import EVALUATION_END_TERM
from repro.data.trimester import LAKESIDE_CALENDAR, LAKESIDE_FIRST_TERM, lakeside_catalog
from repro.requirements import CourseSetGoal, DegreeGoal, RequirementGroup
from repro.semester import SPRING_FALL, Term

from .oracle import enumerate_tree


def _prereqs(earlier):
    if not earlier:
        return st.just(TRUE)
    single = st.sampled_from(earlier).map(CourseReq)
    if len(earlier) < 2:
        return st.one_of(st.just(TRUE), single)
    group = st.lists(st.sampled_from(earlier), min_size=2, max_size=3, unique=True)
    return st.one_of(
        st.just(TRUE),
        single,
        group.map(lambda ids: all_of(CourseReq(c) for c in ids)),
        group.map(lambda ids: any_of(CourseReq(c) for c in ids)),
        group.flatmap(
            lambda ids: st.integers(1, len(ids)).map(
                lambda k: KOf(k, [CourseReq(c) for c in ids])
            )
        ),
    )


class Case:
    """One generated run: catalog, window, config and the oracle's view."""

    def __init__(self, catalog, start, horizon, m, completed, avoid, policy, rules, goal):
        self.catalog = catalog
        self.start = start
        self.end = start + horizon
        self.m = m
        self.completed = completed
        self.avoid = avoid
        self.policy = policy
        self.rules = rules  # (forbidden pair or None, blackout term or None, (term, cap) or None)
        self.goal, self.goal_sets = goal

    def config(self, enforce_min_selection: bool = True) -> ExplorationConfig:
        forbidden, blackout, capped = self.rules
        constraints = []
        if forbidden is not None:
            constraints.append(ForbiddenCombination(forbidden))
        if blackout is not None:
            constraints.append(TermBlackout([blackout]))
        if capped is not None:
            constraints.append(MaxCoursesInTerm(*capped))
        return ExplorationConfig(
            max_courses_per_term=self.m,
            avoid_courses=self.avoid,
            empty_selection=self.policy,
            enforce_min_selection=enforce_min_selection,
            constraints=tuple(constraints),
        )

    def allowed(self, selection, term, completed) -> bool:
        forbidden, blackout, capped = self.rules
        if forbidden is not None and forbidden <= selection:
            return False
        if blackout is not None and term == blackout and selection:
            return False
        return capped is None or term != capped[0] or len(selection) <= capped[1]

    def satisfied(self, completed) -> bool:
        return all(len(completed & group) >= k for group, k in self.goal_sets)

    def oracle(self, with_goal: bool):
        return enumerate_tree(
            self.catalog, self.start, self.end, self.m,
            completed=self.completed, avoid=self.avoid, policy=self.policy,
            allowed=self.allowed, satisfied=self.satisfied if with_goal else None,
        )

    def __repr__(self) -> str:
        return (
            f"Case({len(self.catalog)} courses, {self.start}..{self.end}, m={self.m}, "
            f"X={sorted(self.completed)}, avoid={sorted(self.avoid)}, {self.policy}, "
            f"rules={self.rules}, goal={self.goal.describe()})"
        )


@st.composite
def _cases(draw, courses=(2, 5), horizon=(1, 3)):
    """Runs on Lakeside or on a random catalog of ``courses`` courses over
    ``horizon`` terms, each course offered in at least half of them."""
    if draw(st.integers(0, 3)) == 0:
        catalog = lakeside_catalog()
        start = LAKESIDE_FIRST_TERM + draw(st.integers(0, 4))
        horizon = draw(st.integers(1, 2))
        m = draw(st.integers(1, 2))
        ids = sorted(catalog.course_ids())
    else:
        calendar = draw(st.sampled_from([SPRING_FALL, LAKESIDE_CALENDAR]))
        start = Term(2020, "Spring", calendar)
        horizon = draw(st.integers(*horizon))
        m = draw(st.integers(1, 3))
        ids = [f"C{i}" for i in range(draw(st.integers(*courses)))]
        terms = [start + i for i in range(horizon + 1)]
        offered = st.frozensets(st.sampled_from(terms), min_size=(len(terms) + 1) // 2)
        courses = [Course(cid, prereq=draw(_prereqs(ids[:i]))) for i, cid in enumerate(ids)]
        offerings = {cid: draw(offered) for cid in ids}
        catalog = Catalog(courses, schedule=Schedule(offerings))
    window = [start + i for i in range(horizon)]
    some = st.frozensets(st.sampled_from(ids), max_size=2)
    rules = (
        draw(st.none() | st.frozensets(st.sampled_from(ids), min_size=2, max_size=2)),
        draw(st.none() | st.sampled_from(window)),
        draw(st.none() | st.tuples(st.sampled_from(window), st.integers(0, 2))),
    )
    targets = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=4, unique=True))
    if len(targets) >= 2 and draw(st.booleans()):
        split = draw(st.integers(1, len(targets) - 1))
        first, second = frozenset(targets[:split]), frozenset(targets[split:])
        k_first, k_second = draw(st.integers(0, len(first))), draw(st.integers(1, len(second)))
        goal = DegreeGoal(
            [RequirementGroup("a", first, k_first), RequirementGroup("b", second, k_second)]
        )
        goal_sets = ((first, k_first), (second, k_second))
    else:
        goal = CourseSetGoal(targets)
        goal_sets = ((frozenset(targets), len(targets)),)
    return Case(
        catalog, start, horizon, m, draw(some), draw(some),
        draw(st.sampled_from(["auto", "always", "never"])), rules, (goal, goal_sets),
    )


def _kind_paths(graph, *kinds):
    return {
        kind: {graph.path_to(node).selections for node in graph.terminal_ids(kind)}
        for kind in kinds
    }


@settings(max_examples=150, deadline=None)
@given(case=_cases(), enforce=st.booleans())
def test_goal_tree_matches_the_oracle(case, enforce):
    census, paths = case.oracle(with_goal=True)
    run = dict(config=case.config(enforce), completed=case.completed)
    pruned = generate_goal_driven(case.catalog, case.start, case.goal, case.end, **run)
    unpruned = generate_goal_driven(
        case.catalog, case.start, case.goal, case.end, pruners=[], **run
    )
    assert _kind_paths(pruned.graph, "goal")["goal"] == paths["goal"]
    assert _kind_paths(unpruned.graph, "goal", "deadline", "dead_end") == paths
    assert unpruned.stats.terminals == {kind: n for kind, n in census.items() if n}


@settings(max_examples=150, deadline=None)
@given(case=_cases())
def test_deadline_tree_matches_the_oracle(case):
    census, paths = case.oracle(with_goal=False)
    result = generate_deadline_driven(
        case.catalog, case.start, case.end, completed=case.completed, config=case.config()
    )
    del paths["goal"]
    assert _kind_paths(result.graph, "deadline", "dead_end") == paths
    assert result.stats.terminals == {kind: n for kind, n in census.items() if n}


# -- the tree against a DFS that decides every node ------------------------------


def _plain_tree(step: NodeStep):
    """Algorithm 1 with no reuse: every node decided by ``step.decide``."""
    expander = step.expander
    nodes = [(None, frozenset(), expander.initial_status(step.start_term, step.completed))]
    kinds = {}
    step.stats.record_node()
    with step.start():
        stack = [0]
        while stack:
            node_id = stack.pop()
            status = nodes[node_id][2]
            decision = step.decide(status, node_id)
            if decision.kind is not None:
                kinds[node_id] = decision.kind
                continue
            children = 0
            for selection, completed in expander.successors(status, decision.floor):
                child = expander.initial_status(status.term + 1, completed)
                nodes.append((node_id, selection, child))
                stack.append(len(nodes) - 1)
                step.stats.record_node()
                step.stats.record_edge()
                children += 1
            if step.close(status, node_id, children, len(stack)) is not None:
                kinds[node_id] = "dead_end"
    step.finish()
    return [
        (parent, selection, status.term, status.completed, kinds.get(node_id))
        for node_id, (parent, selection, status) in enumerate(nodes)
    ]


def _tree_nodes(graph):
    return [
        (
            graph.parent(node_id),
            graph.selection_into(node_id),
            graph.status(node_id).term,
            graph.status(node_id).completed,
            graph.terminal_kind(node_id),
        )
        for node_id in graph.node_ids()
    ]


def _counters(stats):
    data = stats.as_dict()
    del data["elapsed_seconds"]
    return data


def _differential(name, catalog, start, end, config, goal=None, pruners=None, completed=()):
    """The tree's nodes, stats and prune tallies next to the plain DFS's,
    and its node and distinct-state counts."""
    step = NodeStep(name, catalog, start, end, completed, config, goal=goal, pruners=pruners)
    plain = _plain_tree(step)
    if goal is not None:
        result = generate_goal_driven(
            catalog, start, goal, end, completed=completed, config=config, pruners=pruners
        )
    else:
        result = generate_deadline_driven(
            catalog, start, end, completed=completed, config=config
        )
    tree = _tree_nodes(result.graph)
    assert tree == plain
    assert _counters(result.stats) == _counters(step.stats)
    assert result.stats.prune_events == step.pruning_stats.as_dict()
    return len(tree), len({(term, x) for _, _, term, x, _ in tree})


@pytest.mark.parametrize(
    "run, semesters", [("goal_driven", 4), ("goal_driven", 5), ("deadline", 3)]
)
def test_table1_tree_equals_a_dfs_that_decides_every_node(run, semesters):
    goal = brandeis_major_goal() if run == "goal_driven" else None
    nodes, states = _differential(
        run, brandeis_catalog(), start_term_for_semesters(semesters),
        EVALUATION_END_TERM, ExplorationConfig(), goal=goal,
    )
    assert states < nodes


def test_tree_equals_a_dfs_that_decides_every_node():
    seen = {"nodes": 0, "replayed": 0}

    @settings(max_examples=120, deadline=None)
    @given(
        case=_cases(courses=(4, 6), horizon=(2, 4)),
        with_goal=st.booleans(),
        pruned=st.booleans(),
    )
    def check(case, with_goal, pruned):
        nodes, states = _differential(
            "goal_driven" if with_goal else "deadline",
            case.catalog, case.start, case.end, case.config(),
            goal=case.goal if with_goal else None,
            pruners=None if pruned else [],
            completed=case.completed,
        )
        seen["nodes"] += nodes
        seen["replayed"] += nodes - states

    check()
    # The generated trees meet their states again: a real share of the
    # nodes compared above took an earlier node's decision.
    assert seen["replayed"] >= 0.25 * seen["nodes"]
