"""Tests for the CourseNavigator façade."""

import pytest

from repro.core import (
    ExplorationConfig,
    RankedResult,
    TimeRanking,
    WorkloadRanking,
    frontier_count_deadline_paths,
    frontier_count_goal_paths,
    generate_deadline_driven,
    generate_goal_driven,
    generate_ranked,
)
from repro.errors import BudgetExceededError, ExplorationError
from repro.obs import DecisionRecorder, Observability, ProgressTracker
from repro.requirements import CourseSetGoal
from repro.system import CourseNavigator

from .conftest import F11, F12, S12, S13

GOAL = CourseSetGoal({"11A", "29A", "21A"})


@pytest.fixture
def navigator(fig3_catalog):
    return CourseNavigator(fig3_catalog)


class TestExploration:
    def test_explore_deadline(self, navigator):
        result = navigator.explore_deadline(F11, S13)
        assert result.path_count == 3

    def test_explore_goal(self, navigator):
        result = navigator.explore_goal(F11, GOAL, F12)
        assert result.path_count == 1

    def test_explore_ranked(self, navigator):
        result = navigator.explore_ranked(F11, GOAL, S13, k=1)
        assert result.costs == [2.0]

    def test_count_deadline(self, navigator):
        assert navigator.count_deadline(F11, S13) == 3

    def test_count_goal(self, navigator):
        assert navigator.count_goal(F11, GOAL, F12) == 1

    def test_config_constraints_apply(self, navigator):
        config = ExplorationConfig(max_courses_per_term=1, avoid_courses={"29A"})
        result = navigator.explore_deadline(F11, S13, config=config)
        assert result.path_count
        for path in result.paths():
            assert all(len(sel) <= 1 for sel in path.selections)
            assert "29A" not in path.courses_taken()

    def test_explicit_config_wins(self, navigator):
        config = ExplorationConfig(max_courses_per_term=1)
        result = navigator.explore_deadline(F11, S12, config=config)
        for path in result.paths():
            assert all(len(sel) <= 1 for sel in path.selections)


#: Each navigator method, and the engine call it stands for.
PASS_THROUGH = {
    "explore_deadline": (
        lambda nav, **kw: nav.explore_deadline(F11, S13, **kw),
        lambda catalog, config, obs: generate_deadline_driven(
            catalog, F11, S13, config=config, obs=obs
        ),
    ),
    "explore_goal": (
        lambda nav, **kw: nav.explore_goal(F11, GOAL, S13, **kw),
        lambda catalog, config, obs: generate_goal_driven(
            catalog, F11, GOAL, S13, config=config, obs=obs
        ),
    ),
    "explore_ranked": (
        lambda nav, **kw: nav.explore_ranked(F11, GOAL, S13, 2, **kw),
        lambda catalog, config, obs: generate_ranked(
            catalog, F11, GOAL, S13, 2, TimeRanking(), config=config, obs=obs
        ),
    ),
    "count_deadline": (
        lambda nav, **kw: nav.count_deadline(F11, S13, **kw),
        lambda catalog, config, obs: frontier_count_deadline_paths(
            catalog, F11, S13, config=config, obs=obs
        ).path_count,
    ),
    "count_goal": (
        lambda nav, **kw: nav.count_goal(F11, GOAL, S13, **kw),
        lambda catalog, config, obs: frontier_count_goal_paths(
            catalog, F11, GOAL, S13, config=config, obs=obs
        ).path_count,
    ),
}
EXPLORE_METHODS = ("explore_deadline", "explore_goal", "explore_ranked")


def _outcome(result):
    """A run's outputs and stats, timing aside."""
    if isinstance(result, int):
        return result
    paths = result.paths if isinstance(result, RankedResult) else list(result.paths())
    stats = result.stats.as_dict()
    del stats["elapsed_seconds"]
    return [path.selections for path in paths], stats


def _observed_run(run):
    """``run(obs)`` under a fresh recorder and tracker: its outcome, its
    decision events and its final progress snapshot, timing aside."""
    recorder, tracker = DecisionRecorder(), ProgressTracker()
    outcome = _outcome(run(Observability(progress=tracker, decisions=recorder)))
    snapshot = tracker.snapshot().as_dict()
    for timing in ("elapsed_seconds", "eta_seconds"):
        del snapshot[timing]
    return outcome, [event.as_dict() for event in recorder.events], snapshot


class TestPassThrough:
    """The navigator hands each call's config and its one bundle to the
    engine unchanged."""

    @pytest.mark.parametrize("method", sorted(PASS_THROUGH))
    def test_matches_the_engine_call(self, fig3_catalog, method):
        via_navigator, direct = PASS_THROUGH[method]
        # m = 1 changes every method's outputs on Fig. 3, so a dropped
        # config cannot go unnoticed.
        config = ExplorationConfig(max_courses_per_term=1)
        navigated = _observed_run(
            lambda obs: via_navigator(
                CourseNavigator(fig3_catalog, obs=obs), config=config
            )
        )
        expected = _observed_run(lambda obs: direct(fig3_catalog, config, obs))
        assert navigated == expected
        _, events, snapshot = navigated
        assert events and snapshot["finished"]
        default = _observed_run(
            lambda obs: direct(fig3_catalog, ExplorationConfig(), obs)
        )
        assert navigated[0] != default[0]

    @pytest.mark.parametrize("method", EXPLORE_METHODS)
    def test_config_node_limit_applies(self, navigator, method):
        via_navigator, _direct = PASS_THROUGH[method]
        with pytest.raises(BudgetExceededError, match="nodes limit 2"):
            via_navigator(navigator, config=ExplorationConfig(max_nodes=2))

    @pytest.mark.parametrize(
        "keyword", ["tracer", "metrics", "capture_memory", "decisions", "progress"]
    )
    def test_constructor_takes_no_backend_keywords(self, fig3_catalog, keyword):
        with pytest.raises(TypeError, match=keyword):
            CourseNavigator(fig3_catalog, **{keyword: ProgressTracker()})

    @pytest.mark.parametrize("method", EXPLORE_METHODS)
    @pytest.mark.parametrize(
        "keyword, value",
        [("max_courses_per_term", 1), ("avoid_courses", {"29A"}), ("max_nodes", 2)],
    )
    def test_explore_methods_take_no_config_keywords(
        self, navigator, method, keyword, value
    ):
        via_navigator, _direct = PASS_THROUGH[method]
        with pytest.raises(TypeError, match=keyword):
            via_navigator(navigator, **{keyword: value})

    def test_observability_is_the_bundle_given(self, fig3_catalog):
        obs = Observability(progress=ProgressTracker())
        assert CourseNavigator(fig3_catalog, obs=obs).observability is obs


class TestRankingResolution:
    def test_named_rankings(self, navigator):
        assert isinstance(navigator.resolve_ranking("time"), TimeRanking)
        assert isinstance(navigator.resolve_ranking("workload"), WorkloadRanking)
        assert navigator.resolve_ranking("reliability").name == "reliability"

    def test_instance_passthrough(self, navigator):
        ranking = TimeRanking()
        assert navigator.resolve_ranking(ranking) is ranking

    def test_unknown_name_rejected(self, navigator):
        with pytest.raises(ExplorationError, match="unknown ranking"):
            navigator.resolve_ranking("karma")

    def test_ranked_with_named_ranking(self, navigator):
        result = navigator.explore_ranked(F11, GOAL, S13, k=1, ranking="workload")
        assert len(result.paths) == 1


class TestTranscriptChecks:
    def test_check_transcript(self, navigator):
        goal_paths = list(navigator.explore_goal(F11, GOAL, S13).paths())
        verdict, reason = navigator.check_transcript(goal_paths[0], GOAL, S13)
        assert verdict, reason

    def test_check_transcripts_report(self, navigator):
        goal_paths = list(navigator.explore_goal(F11, GOAL, S13).paths())
        report = navigator.check_transcripts(goal_paths, GOAL, S13)
        assert report.all_contained

    def test_properties(self, navigator, fig3_catalog):
        assert navigator.catalog is fig3_catalog
        assert navigator.offering_model is fig3_catalog.offering_model
