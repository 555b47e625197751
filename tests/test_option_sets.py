"""``Catalog.eligible_courses`` against an inline reference.

The catalog compiles each term's option set to prerequisite clause masks
and memoises answers on the slice of the completed set the term can read.
These tests check every answer against the definition of ``Y`` in §2,

    { c ∈ offered_in(t) | c ∉ X, c ∉ exclude, catalog[c].prereq.evaluate(X) }

over random strict and non-strict catalogs, schedule overrides, two- and
three-season calendars, plain-set arguments, repeated calls (memo hits)
and memos small enough to evict on every call.
"""

import copy
import pickle
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog import Catalog, Course, Schedule
from repro.catalog.prereq import FALSE, TRUE, And, CourseReq, KOf, Or
from repro.errors import UnknownCourseError
from repro.semester import SPRING_FALL, SPRING_SUMMER_FALL, Term

_COURSES = tuple(f"C{i}" for i in range(7))
_EXTERNAL = ("EXT0", "EXT1")
_UNKNOWN = ("U0", "U1")


def _reference(catalog, completed, term, exclude, schedule):
    """``Y`` by definition; raises like the catalog for unknown offerings."""
    schedule = schedule if schedule is not None else catalog.schedule
    result = set()
    for course_id in schedule.offered_in(term):
        if course_id in completed or course_id in exclude:
            continue
        if course_id not in catalog:
            raise UnknownCourseError(course_id)
        if catalog[course_id].prereq.evaluate(completed):
            result.add(course_id)
    return frozenset(result)


def _expressions(refs):
    leaves = st.one_of(
        st.sampled_from(refs).map(CourseReq),
        st.just(TRUE),
        st.just(FALSE),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, min_size=1, max_size=3).map(lambda c: And(*c)),
            st.lists(children, min_size=1, max_size=3).map(lambda c: Or(*c)),
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.lists(children, min_size=1, max_size=3),
            ).map(lambda kc: KOf(kc[0], kc[1])),
        ),
        max_leaves=5,
    )


@st.composite
def _scenarios(draw):
    """A catalog, its terms, an override schedule and a query list."""
    strict = draw(st.booleans())
    calendar = draw(st.sampled_from([SPRING_FALL, SPRING_SUMMER_FALL]))
    first = Term.from_ordinal(2013 * len(calendar), calendar)
    terms = [first + i for i in range(4)]
    courses = []
    for index, course_id in enumerate(_COURSES):
        # Prerequisites point only to earlier courses, so strict catalogs
        # stay acyclic; non-strict ones may also name external ids.
        refs = list(_COURSES[:index]) + ([] if strict else list(_EXTERNAL))
        prereq = draw(_expressions(refs)) if refs and draw(st.booleans()) else TRUE
        courses.append(Course(course_id, prereq=prereq))

    def schedule(ids):
        return Schedule(
            {
                course_id: draw(st.sets(st.sampled_from(terms), max_size=len(terms)))
                for course_id in ids
            }
        )

    catalog = Catalog(courses, schedule=schedule(_COURSES), strict=strict)
    # Overrides may offer ids the catalog lacks (the UnknownCourseError path).
    override = schedule(_COURSES + _UNKNOWN)
    pool = _COURSES + _UNKNOWN + ((() if strict else _EXTERNAL))
    queries = draw(
        st.lists(
            st.tuples(
                st.sets(st.sampled_from(pool)),
                st.sampled_from(terms),
                st.sets(st.sampled_from(pool), max_size=3),
                st.booleans(),  # frozensets rather than plain sets
                st.booleans(),  # the override schedule
            ),
            min_size=1,
            max_size=12,
        )
    )
    return catalog, override, queries


def _check(catalog, override, queries):
    for completed, term, exclude, frozen, use_override in queries:
        if frozen:
            completed, exclude = frozenset(completed), frozenset(exclude)
        schedule = override if use_override else None
        try:
            expected = _reference(catalog, completed, term, exclude, schedule)
        except UnknownCourseError:
            with pytest.raises(UnknownCourseError, match="schedule entry"):
                catalog.eligible_courses(completed, term, exclude, schedule)
            continue
        # Twice: a compile-and-miss, then a memo hit.
        for _ in range(2):
            got = catalog.eligible_courses(completed, term, exclude, schedule)
            assert type(got) is frozenset
            assert got == expected


@settings(max_examples=150, deadline=None)
@given(_scenarios())
def test_matches_reference(scenario):
    catalog, override, queries = scenario
    _check(catalog, override, queries)
    # Replaying the whole list answers from warm memos.
    _check(catalog, override, queries)


@settings(max_examples=60, deadline=None)
@given(_scenarios())
def test_matches_reference_while_evicting(scenario):
    catalog, override, queries = scenario
    with mock.patch.object(Catalog, "_OPTIONS_MEMO_SIZE", 2), mock.patch.object(
        Catalog, "_KERNEL_LIMIT", 1
    ):
        small = Catalog(catalog.courses(), catalog.schedule, strict=False)
        _check(small, override, queries + queries)
    assert small._options.cache_info().currsize <= 2
    assert len(small._kernels) <= 1


class TestUnknownCourses:
    """An offered id missing from the catalog raises unless it is completed
    or excluded — the same rule the uncompiled derivation had."""

    @pytest.fixture
    def setup(self):
        fall = Term(2013, "Fall")
        catalog = Catalog([Course("A"), Course("B", prereq=CourseReq("A"))])
        override = Schedule({"A": {fall}, "B": {fall}, "GHOST": {fall}})
        return catalog, override, fall

    def test_raises_when_pending(self, setup):
        catalog, override, fall = setup
        with pytest.raises(UnknownCourseError, match="GHOST"):
            catalog.eligible_courses(frozenset(), fall, schedule=override)

    def test_completed_unknown_is_skipped(self, setup):
        catalog, override, fall = setup
        got = catalog.eligible_courses({"GHOST", "A"}, fall, schedule=override)
        assert got == {"B"}

    def test_excluded_unknown_is_skipped(self, setup):
        catalog, override, fall = setup
        got = catalog.eligible_courses(
            frozenset(), fall, exclude={"GHOST"}, schedule=override
        )
        assert got == {"A"}

    def test_failure_is_not_memoised(self, setup):
        catalog, override, fall = setup
        for _ in range(2):
            with pytest.raises(UnknownCourseError):
                catalog.eligible_courses(frozenset(), fall, schedule=override)


class TestMemoIsNotState:
    @pytest.fixture
    def warm(self):
        # Prerequisite-free: prerequisite expressions themselves do not
        # pickle yet, and this class checks only the catalog's own state.
        fall = Term(2013, "Fall")
        catalog = Catalog(
            [Course("A"), Course("B")],
            schedule=Schedule({"A": {fall}, "B": {fall}}),
        )
        assert catalog.eligible_courses({"A"}, fall) == {"B"}
        return catalog, fall

    @pytest.mark.parametrize(
        "clone",
        [lambda c: pickle.loads(pickle.dumps(c)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_clones_start_cold_and_agree(self, warm, clone):
        catalog, fall = warm
        twin = clone(catalog)
        assert twin == catalog
        assert twin.to_dict() == catalog.to_dict()
        assert twin._options.cache_info().currsize == 0
        assert twin.eligible_courses({"A"}, fall) == {"B"}
        assert twin.eligible_courses(frozenset(), fall) == {"A", "B"}

    def test_pickled_state_has_no_memo(self, warm):
        catalog, _ = warm
        state = catalog.__getstate__()
        assert not {"_bits", "_kernels", "_options"} & set(state)

    def test_equality_ignores_memo(self, warm):
        catalog, _ = warm
        assert catalog == Catalog(catalog.courses(), catalog.schedule)
