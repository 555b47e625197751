"""Tests for EnrollmentStatus and LearningPath."""

import math

import pytest

from repro.catalog import Catalog, Course, DeterministicOfferings, Schedule
from repro.graph import EnrollmentStatus, LearningPath
from repro.semester import Term

F11, S12, F12 = Term(2011, "Fall"), Term(2012, "Spring"), Term(2012, "Fall")


class TestEnrollmentStatus:
    def test_sets_coerced(self):
        status = EnrollmentStatus(F11, {"A"}, {"B"})
        assert isinstance(status.completed, frozenset)
        assert isinstance(status.options, frozenset)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="options may not include"):
            EnrollmentStatus(F11, {"A"}, {"A", "B"})

    def test_equality_ignores_options(self):
        a = EnrollmentStatus(F11, {"A"}, {"B"})
        b = EnrollmentStatus(F11, {"A"}, frozenset())
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_on_term_or_completed(self):
        a = EnrollmentStatus(F11, {"A"})
        assert a != EnrollmentStatus(S12, {"A"})
        assert a != EnrollmentStatus(F11, {"B"})

    def test_after_selection(self):
        status = EnrollmentStatus(F11, frozenset(), {"11A", "29A"})
        child = status.after_selection(frozenset({"11A"}), options={"21A"})
        assert child.term == S12
        assert child.completed == {"11A"}
        assert child.options == {"21A"}

    def test_after_selection_outside_options_rejected(self):
        status = EnrollmentStatus(F11, frozenset(), {"11A"})
        with pytest.raises(ValueError, match="not in options"):
            status.after_selection(frozenset({"29A"}))

    def test_describe(self):
        status = EnrollmentStatus(F11, {"11A"}, {"29A"})
        text = status.describe()
        assert "Fall '11" in text
        assert "11A" in text and "29A" in text


def _make_path():
    s0 = EnrollmentStatus(F11, frozenset(), {"11A", "29A"})
    s1 = EnrollmentStatus(S12, frozenset({"11A", "29A"}), {"21A"})
    s2 = EnrollmentStatus(F12, frozenset({"11A", "29A", "21A"}))
    return LearningPath([s0, s1, s2], [frozenset({"11A", "29A"}), frozenset({"21A"})])


class TestLearningPathValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LearningPath([], [])

    def test_selection_count_mismatch(self):
        s0 = EnrollmentStatus(F11, frozenset())
        with pytest.raises(ValueError, match="selections"):
            LearningPath([s0], [frozenset({"A"})])

    def test_terms_must_advance_one(self):
        s0 = EnrollmentStatus(F11, frozenset())
        s2 = EnrollmentStatus(F12, frozenset({"A"}))
        with pytest.raises(ValueError, match="advance one term"):
            LearningPath([s0, s2], [frozenset({"A"})])

    def test_completed_must_grow_by_selection(self):
        s0 = EnrollmentStatus(F11, frozenset())
        s1 = EnrollmentStatus(S12, frozenset({"B"}))
        with pytest.raises(ValueError, match="grow by exactly"):
            LearningPath([s0, s1], [frozenset({"A"})])

    def test_single_status_path(self):
        path = LearningPath([EnrollmentStatus(F11, frozenset())], [])
        assert len(path) == 0
        assert path.start == path.end


class TestLearningPathAccessors:
    def test_iteration_and_steps(self):
        path = _make_path()
        steps = path.steps()
        assert steps == [(F11, ("11A", "29A")), (S12, ("21A",))]
        assert len(path) == 2

    def test_courses_taken(self):
        assert _make_path().courses_taken() == {"11A", "29A", "21A"}

    def test_extended(self):
        path = _make_path()
        s3 = EnrollmentStatus(Term(2013, "Spring"), path.end.completed)
        longer = path.extended(frozenset(), s3)
        assert len(longer) == 3
        assert len(path) == 2  # original untouched

    def test_equality_and_hash(self):
        assert _make_path() == _make_path()
        assert hash(_make_path()) == hash(_make_path())

    def test_to_dict(self):
        data = _make_path().to_dict()
        assert data["start_term"] == "Fall 2011"
        assert data["steps"][0]["take"] == ["11A", "29A"]
        assert data["final_completed"] == ["11A", "21A", "29A"]


class TestLearningPathCosts:
    @pytest.fixture
    def catalog(self):
        return Catalog(
            [
                Course("11A", workload_hours=12),
                Course("29A", workload_hours=10),
                Course("21A", workload_hours=14),
            ],
            schedule=Schedule(
                {"11A": {F11}, "29A": {F11}, "21A": {S12}}
            ),
        )

    def test_length_cost(self):
        assert _make_path().length_cost() == 2

    def test_workload_cost(self, catalog):
        assert _make_path().workload_cost(catalog) == 12 + 10 + 14

    def test_reliability_certain_schedule(self, catalog):
        model = DeterministicOfferings(catalog.schedule)
        path = _make_path()
        assert path.reliability(model) == 1.0
        assert path.reliability_cost(model) == 0.0

    def test_reliability_zero_probability(self, catalog):
        # 21A is not offered in Fall; reroute the path through a bad term.
        model = DeterministicOfferings(Schedule({"11A": {F11}, "29A": {F11}}))
        path = _make_path()
        assert path.reliability(model) == 0.0
        assert path.reliability_cost(model) == math.inf

    def test_reliability_multiplies(self):
        class Half:
            def probability(self, course_id, term):
                return 0.5

            def selection_probability(self, ids, term):
                result = 1.0
                for _ in ids:
                    result *= 0.5
                return result

        path = _make_path()
        assert path.reliability(Half()) == pytest.approx(0.125)
        assert path.reliability_cost(Half()) == pytest.approx(-math.log(0.125))
