"""Tests for the trimester (summer-session) dataset — calendar generality
end-to-end."""

import pytest

from repro.core import (
    ExplorationConfig,
    TimeRanking,
    frontier_count_goal_paths,
    generate_goal_driven,
    generate_ranked,
)
from repro.data import LAKESIDE_CALENDAR, lakeside_catalog, lakeside_minor_goal
from repro.data.trimester import (
    CORE_MINOR_IDS,
    ELECTIVE_MINOR_IDS,
    LAKESIDE_FIRST_TERM,
    LAKESIDE_LAST_TERM,
)
from repro.semester import Term


@pytest.fixture(scope="module")
def catalog():
    return lakeside_catalog()


@pytest.fixture(scope="module")
def minor():
    return lakeside_minor_goal()


class TestDataset:
    def test_three_season_calendar(self):
        assert len(LAKESIDE_CALENDAR) == 3
        spring = Term(2020, "Spring", LAKESIDE_CALENDAR)
        assert (spring + 1).season == "Summer"
        assert (spring + 2).season == "Fall"
        assert (spring + 3) == Term(2021, "Spring", LAKESIDE_CALENDAR)

    def test_catalog_valid(self, catalog):
        assert len(catalog) == 10
        assert catalog.find_prerequisite_cycle() is None

    def test_summer_offerings_exist(self, catalog):
        summer = Term(2020, "Summer", LAKESIDE_CALENDAR)
        offered = catalog.schedule.offered_in(summer)
        assert "DATA 101" in offered
        assert "DATA 210" in offered
        assert "DATA 201" not in offered  # no summer section

    def test_minor_structure(self, minor):
        assert minor.total_required == 5
        assert len(CORE_MINOR_IDS) == 3
        assert len(ELECTIVE_MINOR_IDS) == 4

    def test_schedule_window(self, catalog):
        span = catalog.schedule.span()
        assert span == (LAKESIDE_FIRST_TERM, LAKESIDE_LAST_TERM)


class TestExplorationOnTrimesters:
    def test_goal_paths_exist(self, catalog, minor):
        start = LAKESIDE_FIRST_TERM
        end = start + 6  # two calendar years of trimesters
        count = frontier_count_goal_paths(catalog, start, minor, end).path_count
        assert count > 0

    def test_summer_attendance_speeds_completion(self, catalog, minor):
        """With summers, the minor completes in 4 terms; skipping summers
        (blacking them out) needs more."""
        start = LAKESIDE_FIRST_TERM
        end = start + 8
        with_summers = generate_ranked(
            catalog, start, minor, end, 1, TimeRanking()
        )
        assert with_summers.costs, "minor unreachable with summers"

        summers = [
            term
            for term in [start + i for i in range(8)]
            if term.season == "Summer"
        ]
        from repro.core import TermBlackout

        config = ExplorationConfig(constraints=(TermBlackout(summers),))
        without_summers = generate_ranked(
            catalog, start, minor, end, 1, TimeRanking(), config=config
        )
        assert without_summers.costs, "minor unreachable without summers"
        assert with_summers.costs[0] < without_summers.costs[0]

    def test_goal_driven_paths_valid(self, catalog, minor):
        start = LAKESIDE_FIRST_TERM
        end = start + 5
        result = generate_goal_driven(
            catalog, start, minor, end,
            config=ExplorationConfig(max_courses_per_term=2),
        )
        for path in result.paths():
            completed = set()
            for term, selection in path:
                assert term.calendar == LAKESIDE_CALENDAR
                for course_id in selection:
                    assert catalog.schedule.is_offered(course_id, term)
                    assert catalog[course_id].prereq.evaluate(completed)
                completed |= selection
            assert minor.is_satisfied(completed)

    def test_pruning_sound_on_trimesters(self, catalog, minor):
        start = LAKESIDE_FIRST_TERM
        end = start + 5
        config = ExplorationConfig(max_courses_per_term=2)
        pruned = generate_goal_driven(catalog, start, minor, end, config=config)
        unpruned = generate_goal_driven(
            catalog, start, minor, end, config=config, pruners=[]
        )
        assert {p.selections for p in pruned.paths()} == {
            p.selections for p in unpruned.paths()
        }

    def test_fastest_plan_uses_a_summer(self, catalog, minor):
        start = LAKESIDE_FIRST_TERM
        end = start + 8
        result = generate_ranked(catalog, start, minor, end, 1, TimeRanking())
        best = result.paths[0]
        seasons_used = {
            term.season for term, selection in best if selection
        }
        assert "Summer" in seasons_used
