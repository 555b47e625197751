"""Tests for goal-driven generation and its pruning strategies — including
the paper's §4.2.3 worked example."""

import pytest

from repro.core import ExplorationConfig, generate_goal_driven
from repro.core.expansion import Expander
from repro.core.pruning import DEFAULT_PRUNERS, AvailabilityPruner, TimeBasedPruner
from repro.errors import BudgetExceededError, ExplorationError
from repro.graph import EnrollmentStatus
from repro.requirements import CourseSetGoal
from repro.semester import Term

from .conftest import F11, F12, S12, S13

GOAL = CourseSetGoal({"11A", "29A", "21A"})


def _run(catalog, goal, end_term, config):
    """What a run builds its pruners from: its goal and its expander."""
    return goal, Expander(catalog, end_term, config)


def _default_stack(run):
    return [make(*run) for make in DEFAULT_PRUNERS]


class TestPaperWorkedExample:
    """§4.2.3: goal = take all three courses, end semester = Fall '12.

    The paper walks through this on Fig. 3's catalog: n4 is pruned by the
    availability strategy, n5 stops at the deadline, and the only output
    path is n1 --{11A,29A}--> n3 --{21A}--> n6.
    """

    @pytest.fixture
    def result(self, fig3_catalog):
        return generate_goal_driven(fig3_catalog, F11, GOAL, F12)

    def test_single_goal_path(self, result):
        assert result.path_count == 1
        path = next(result.paths())
        assert path.selections == (frozenset({"11A", "29A"}), frozenset({"21A"}))
        assert path.end.term == F12

    def test_pruning_happened(self, result):
        # n4 (X={29A}) and n2 (X={11A}) both fail the availability check.
        assert result.pruning_stats.events.get("availability", 0) >= 1

    def test_no_pruning_baseline_same_output(self, fig3_catalog):
        unpruned = generate_goal_driven(fig3_catalog, F11, GOAL, F12, pruners=[])
        assert unpruned.path_count == 1
        assert {p.selections for p in unpruned.paths()} == {
            (frozenset({"11A", "29A"}), frozenset({"21A"})),
        }

    def test_pruned_graph_is_smaller(self, fig3_catalog):
        pruned = generate_goal_driven(fig3_catalog, F11, GOAL, F12)
        unpruned = generate_goal_driven(fig3_catalog, F11, GOAL, F12, pruners=[])
        assert pruned.graph.num_nodes <= unpruned.graph.num_nodes


class TestGoalSemantics:
    def test_paths_end_at_first_goal_status(self, fig3_catalog):
        # Horizon extends past the goal; paths must stop when satisfied.
        result = generate_goal_driven(fig3_catalog, F11, GOAL, S13)
        for path in result.paths():
            assert GOAL.is_satisfied(path.end.completed)
            if len(path) > 0:
                assert not GOAL.is_satisfied(path.statuses[-2].completed)

    def test_goal_satisfied_at_start(self, fig3_catalog):
        result = generate_goal_driven(
            fig3_catalog, F11, CourseSetGoal({"11A"}), S13, completed={"11A"}
        )
        assert result.path_count == 1
        assert len(next(result.paths())) == 0

    def test_unreachable_goal_yields_no_paths(self, fig3_catalog):
        # 21A requires 11A which is only offered in Fall; 1-semester horizon.
        result = generate_goal_driven(fig3_catalog, F11, CourseSetGoal({"21A"}), S12)
        assert result.path_count == 0

    def test_end_before_start_rejected(self, fig3_catalog):
        with pytest.raises(ExplorationError):
            generate_goal_driven(fig3_catalog, S12, GOAL, F11)

    def test_unknown_completed_rejected(self, fig3_catalog):
        with pytest.raises(ExplorationError):
            generate_goal_driven(fig3_catalog, F11, GOAL, F12, completed={"99Z"})

    def test_max_nodes_exceeded(self, fig3_catalog):
        with pytest.raises(BudgetExceededError):
            generate_goal_driven(
                fig3_catalog, F11, GOAL, S13, config=ExplorationConfig(max_nodes=2)
            )

    def test_min_selection_toggle_preserves_output(self, fig3_catalog):
        with_floor = generate_goal_driven(
            fig3_catalog, F11, GOAL, F12,
            config=ExplorationConfig(enforce_min_selection=True),
        )
        without_floor = generate_goal_driven(
            fig3_catalog, F11, GOAL, F12,
            config=ExplorationConfig(enforce_min_selection=False),
        )
        assert {p.selections for p in with_floor.paths()} == {
            p.selections for p in without_floor.paths()
        }

    def test_every_output_path_is_valid(self, fig3_catalog):
        result = generate_goal_driven(fig3_catalog, F11, GOAL, S13)
        for path in result.paths():
            completed = set()
            for term, selection in path:
                assert len(selection) <= 3
                for course_id in selection:
                    assert fig3_catalog.schedule.is_offered(course_id, term)
                    assert fig3_catalog[course_id].prereq.evaluate(completed)
                completed |= selection


class TestTimeBasedPruner:
    @pytest.fixture
    def run(self, fig3_catalog):
        return _run(fig3_catalog, GOAL, F12, ExplorationConfig(max_courses_per_term=1))

    def test_min_required_formula(self, run):
        # m=1, d=Fall'12. At Fall '11 with nothing done: left=3,
        # semesters after this = 1, min_i = 3 - 1 = 2 > m -> prune.
        pruner = TimeBasedPruner(*run)
        status = EnrollmentStatus(F11, frozenset())
        assert pruner.min_required_this_term(status) == 2
        assert pruner.should_prune(status)

    def test_not_pruned_when_feasible(self, fig3_catalog):
        pruner = TimeBasedPruner(
            *_run(fig3_catalog, GOAL, F12, ExplorationConfig(max_courses_per_term=3))
        )
        status = EnrollmentStatus(F11, frozenset())
        # left=3, after-this=1 -> min_i = 0 <= 3.
        assert pruner.min_required_this_term(status) == 0
        assert not pruner.should_prune(status)

    def test_unsatisfiable_goal_always_pruned(self, fig3_catalog):
        from repro.requirements import DegreeGoal, RequirementGroup

        impossible = DegreeGoal(
            (
                RequirementGroup("g1", {"11A"}, 1),
                RequirementGroup("g2", {"11A"}, 1),
            )
        )
        pruner = TimeBasedPruner(*_run(fig3_catalog, impossible, S13, ExplorationConfig()))
        assert pruner.should_prune(EnrollmentStatus(F11, frozenset()))


class TestAvailabilityPruner:
    @pytest.fixture
    def run(self, fig3_catalog):
        return _run(fig3_catalog, GOAL, F12, ExplorationConfig())

    def test_paper_n4_pruned(self, run):
        # n4: X={29A} at Spring '12; only 21A is offered before Fall '12,
        # so 11A can never complete -> prune.
        pruner = AvailabilityPruner(*run)
        assert pruner.should_prune(EnrollmentStatus(S12, {"29A"}))

    def test_paper_n3_not_pruned(self, run):
        pruner = AvailabilityPruner(*run)
        assert not pruner.should_prune(EnrollmentStatus(S12, {"11A", "29A"}))

    def test_cache_is_consistent(self, run):
        pruner = AvailabilityPruner(*run)
        status = EnrollmentStatus(S12, {"29A"})
        assert pruner.should_prune(status) == pruner.should_prune(status)

    def test_avoided_courses_not_assumed_taken(self, fig3_catalog):
        pruner = AvailabilityPruner(
            *_run(
                fig3_catalog, GOAL, S13,
                ExplorationConfig(avoid_courses=frozenset({"21A"})),
            )
        )
        # 21A is avoided, so the goal can never complete.
        assert pruner.should_prune(EnrollmentStatus(F11, frozenset()))

    def test_default_pruners_order(self, run):
        pruners = _default_stack(run)
        assert [p.name for p in pruners] == ["time", "availability"]


class TestFirstStrategyWinsAttribution:
    """PruningStats credits a cut to the *first* strategy that fires.

    The default stack consults time before availability, which is what
    produces the paper's 82%/18% Table 1 split; a node where both
    strategies would fire must therefore be attributed to time.
    """

    @pytest.fixture
    def both_fire_catalog(self):
        """Four goal courses, all offered only in Fall '11.

        From Spring '12 with nothing completed, *both* strategies fire:
        time (left=4, min_i = 4 > m=1) and availability (no goal course
        is ever offered again).
        """
        from repro.catalog import Catalog, Course, Schedule

        courses = ["A1", "A2", "A3", "A4"]
        return Catalog(
            [Course(c) for c in courses],
            schedule=Schedule({c: {F11} for c in courses}),
        )

    @pytest.fixture
    def run(self, both_fire_catalog):
        return _run(
            both_fire_catalog,
            CourseSetGoal({"A1", "A2", "A3", "A4"}),
            F12,
            ExplorationConfig(max_courses_per_term=1),
        )

    def test_both_strategies_fire_independently(self, run):
        status = EnrollmentStatus(S12, frozenset())
        assert TimeBasedPruner(*run).should_prune(status)
        assert AvailabilityPruner(*run).should_prune(status)

    def test_first_firing_pruner_picks_time(self, run):
        from repro.core.pruning import first_firing_pruner

        status = EnrollmentStatus(S12, frozenset())
        firing = first_firing_pruner(_default_stack(run), status)
        assert firing is not None
        assert firing.name == "time"

    def test_examine_stops_at_first_firing(self, run):
        from repro.core.pruning import examine_pruners

        status = EnrollmentStatus(S12, frozenset())
        firing, verdicts = examine_pruners(_default_stack(run), status)
        assert firing.name == "time"
        # availability was never consulted: first-fires-wins
        assert [v.strategy for v in verdicts] == ["time"]

    def test_run_attributes_cut_to_time(self, both_fire_catalog, run):
        goal, expander = run
        result = generate_goal_driven(
            both_fire_catalog,
            S12,
            goal,
            F12,
            config=expander.config,
        )
        assert result.path_count == 0
        stats = result.pruning_stats.as_dict()
        assert stats.get("time", 0) >= 1
        assert stats.get("availability", 0) == 0

    def test_reversed_stack_attributes_to_availability(self, both_fire_catalog, run):
        goal, expander = run
        result = generate_goal_driven(
            both_fire_catalog,
            S12,
            goal,
            F12,
            config=expander.config,
            pruners=list(reversed(DEFAULT_PRUNERS)),
        )
        assert result.path_count == 0
        stats = result.pruning_stats.as_dict()
        assert stats.get("availability", 0) >= 1
        assert stats.get("time", 0) == 0
