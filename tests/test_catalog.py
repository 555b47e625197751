"""Tests for the Catalog container."""

import pytest

from repro.catalog import Catalog, Course, Schedule
from repro.catalog.prereq import CourseReq, Or, requires
from repro.errors import CatalogError, DuplicateCourseError, UnknownCourseError
from repro.semester import Term

F11, S12, F12 = Term(2011, "Fall"), Term(2012, "Spring"), Term(2012, "Fall")


@pytest.fixture
def fig3_catalog():
    """The paper's Fig. 3 example catalog."""
    return Catalog(
        [
            Course("11A"),
            Course("29A"),
            Course("21A", prereq=CourseReq("11A")),
        ],
        schedule=Schedule(
            {"11A": {F11, F12}, "29A": {F11, F12}, "21A": {S12}}
        ),
    )


class TestConstruction:
    def test_mapping_protocol(self, fig3_catalog):
        assert len(fig3_catalog) == 3
        assert "11A" in fig3_catalog
        assert fig3_catalog["21A"].prereq == CourseReq("11A")
        assert set(fig3_catalog) == {"11A", "29A", "21A"}
        assert set(fig3_catalog.keys()) == {"11A", "29A", "21A"}

    def test_unknown_lookup_raises(self, fig3_catalog):
        with pytest.raises(UnknownCourseError):
            fig3_catalog["99Z"]

    def test_unknown_error_is_keyerror(self, fig3_catalog):
        with pytest.raises(KeyError):
            fig3_catalog["99Z"]

    def test_duplicate_id_rejected(self):
        with pytest.raises(DuplicateCourseError):
            Catalog([Course("A"), Course("A")])

    def test_unknown_prereq_reference_rejected(self):
        with pytest.raises(UnknownCourseError, match="prerequisite"):
            Catalog([Course("A", prereq=CourseReq("MISSING"))])

    def test_unknown_schedule_entry_rejected(self):
        with pytest.raises(UnknownCourseError, match="schedule"):
            Catalog([Course("A")], schedule=Schedule({"B": {F11}}))

    def test_prerequisite_cycle_rejected(self):
        with pytest.raises(CatalogError, match="cycle"):
            Catalog(
                [
                    Course("A", prereq=CourseReq("B")),
                    Course("B", prereq=CourseReq("A")),
                ]
            )

    def test_non_strict_skips_validation(self):
        catalog = Catalog([Course("A", prereq=CourseReq("MISSING"))], strict=False)
        assert "A" in catalog

    def test_courses_with_tag(self):
        catalog = Catalog([Course("A", tags={"core"}), Course("B", tags={"elective"})])
        assert catalog.courses_with_tag("core") == {"A"}


class TestEligibleCourses:
    """The Y_i derivation — checked against the paper's Fig. 3 values."""

    def test_root_options(self, fig3_catalog):
        # Y1 = {11A, 29A}: offered Fall '11, no prerequisites.
        assert fig3_catalog.eligible_courses(frozenset(), F11) == {"11A", "29A"}

    def test_prereq_gates_option(self, fig3_catalog):
        # Node n3: X={11A, 29A} -> 21A eligible in Spring '12.
        assert fig3_catalog.eligible_courses({"11A", "29A"}, S12) == {"21A"}
        # Node n4: X={29A} -> nothing eligible in Spring '12.
        assert fig3_catalog.eligible_courses({"29A"}, S12) == frozenset()

    def test_completed_excluded(self, fig3_catalog):
        # Node n7: X={29A} at Fall '12 -> only 11A.
        assert fig3_catalog.eligible_courses({"29A"}, F12) == {"11A"}

    def test_exclude_list(self, fig3_catalog):
        assert fig3_catalog.eligible_courses(frozenset(), F11, exclude={"29A"}) == {"11A"}

    def test_schedule_override(self, fig3_catalog):
        override = Schedule({"29A": {S12}})
        assert fig3_catalog.eligible_courses(frozenset(), S12, schedule=override) == {"29A"}

    def test_or_prerequisite(self):
        catalog = Catalog(
            [
                Course("A"),
                Course("B"),
                Course("C", prereq=Or(CourseReq("A"), CourseReq("B"))),
            ],
            schedule=Schedule({"C": {F11}}),
        )
        assert catalog.eligible_courses({"B"}, F11) == {"C"}
        assert catalog.eligible_courses(frozenset(), F11) == frozenset()


class TestPrerequisiteStructure:
    @pytest.fixture
    def chain(self):
        return Catalog(
            [
                Course("A"),
                Course("B", prereq=CourseReq("A")),
                Course("C", prereq=requires("A", "B")),
                Course("D"),
            ]
        )

    def test_edges(self, chain):
        assert sorted(chain.prerequisite_edges()) == [("A", "B"), ("A", "C"), ("B", "C")]

    def test_no_cycle_found(self, chain):
        assert chain.find_prerequisite_cycle() is None

    def test_topological_order(self, chain):
        order = chain.topological_order()
        assert order.index("A") < order.index("B") < order.index("C")
        assert len(order) == 4

    def test_depth(self, chain):
        assert chain.prerequisite_depth("A") == 0
        assert chain.prerequisite_depth("B") == 1
        assert chain.prerequisite_depth("C") == 2
        assert chain.prerequisite_depth("D") == 0

    def test_depth_unknown_course(self, chain):
        with pytest.raises(UnknownCourseError):
            chain.prerequisite_depth("Z")

    def test_closure(self, chain):
        assert chain.prerequisite_closure("C") == {"A", "B"}
        assert chain.prerequisite_closure("A") == frozenset()

    def test_closure_unknown_course(self, chain):
        with pytest.raises(UnknownCourseError):
            chain.prerequisite_closure("Z")


class TestDerivationAndSerialization:
    def test_with_schedule(self, fig3_catalog):
        new_schedule = Schedule({"11A": {S12}})
        updated = fig3_catalog.with_schedule(new_schedule)
        assert updated.schedule.offerings("11A") == {S12}
        assert fig3_catalog.schedule.offerings("11A") == {F11, F12}

    def test_with_schedule_keeps_non_strict(self):
        catalog = Catalog(
            [Course("A", prereq=CourseReq("EXTERNAL 1"))],
            schedule=Schedule({"A": {F11}}),
            strict=False,
        )
        updated = catalog.with_schedule(Schedule({"A": {S12}}))
        assert updated.eligible_courses({"EXTERNAL 1"}, S12) == {"A"}
        assert updated.eligible_courses(frozenset(), S12) == frozenset()

    def test_with_schedule_stays_strict(self, fig3_catalog):
        with pytest.raises(UnknownCourseError, match="schedule"):
            fig3_catalog.with_schedule(Schedule({"NEW": {F11}}))

    def test_dict_roundtrip(self, fig3_catalog):
        rebuilt = Catalog.from_dict(fig3_catalog.to_dict())
        assert set(rebuilt) == set(fig3_catalog)
        assert rebuilt.schedule == fig3_catalog.schedule
        assert rebuilt["21A"].prereq == CourseReq("11A")
