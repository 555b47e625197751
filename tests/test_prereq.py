"""Tests for the prerequisite expression AST."""

import copy
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.catalog.prereq import (
    FALSE,
    TRUE,
    And,
    CourseReq,
    KOf,
    Or,
    all_of,
    any_of,
    from_dict,
    requires,
)
from repro.errors import CatalogError


class TestConstants:
    def test_true_evaluates(self):
        assert TRUE.evaluate(frozenset())
        assert TRUE.evaluate({"A"})

    def test_false_evaluates(self):
        assert not FALSE.evaluate(frozenset())
        assert not FALSE.evaluate({"A"})

    def test_true_dnf_and_min(self):
        assert TRUE.to_dnf() == frozenset({frozenset()})
        assert TRUE.min_courses_to_satisfy(frozenset()) == 0
        assert TRUE.is_satisfiable()

    def test_false_dnf_and_min(self):
        assert FALSE.to_dnf() == frozenset()
        assert FALSE.min_courses_to_satisfy(frozenset()) == math.inf
        assert not FALSE.is_satisfiable()

    def test_no_courses(self):
        assert TRUE.courses() == frozenset()
        assert FALSE.courses() == frozenset()


class TestCourseReq:
    def test_evaluate(self):
        req = CourseReq("11A")
        assert req.evaluate({"11A", "29A"})
        assert not req.evaluate({"29A"})

    def test_min_courses(self):
        req = CourseReq("11A")
        assert req.min_courses_to_satisfy(frozenset()) == 1
        assert req.min_courses_to_satisfy({"11A"}) == 0

    def test_strips_whitespace(self):
        assert CourseReq(" 11A ").course_id == "11A"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CourseReq("  ")

    def test_immutable(self):
        req = CourseReq("11A")
        with pytest.raises(AttributeError):
            req.course_id = "29A"

    def test_equality_hash(self):
        assert CourseReq("11A") == CourseReq("11A")
        assert hash(CourseReq("11A")) == hash(CourseReq("11A"))
        assert CourseReq("11A") != CourseReq("29A")


class TestAndOr:
    def test_and_semantics(self):
        expr = And(CourseReq("A"), CourseReq("B"))
        assert expr.evaluate({"A", "B"})
        assert not expr.evaluate({"A"})

    def test_or_semantics(self):
        expr = Or(CourseReq("A"), CourseReq("B"))
        assert expr.evaluate({"A"})
        assert expr.evaluate({"B"})
        assert not expr.evaluate({"C"})

    def test_nested_flattening(self):
        expr = And(And(CourseReq("A"), CourseReq("B")), CourseReq("C"))
        assert expr.children == (CourseReq("A"), CourseReq("B"), CourseReq("C"))

    def test_duplicate_children_removed(self):
        expr = Or(CourseReq("A"), CourseReq("A"))
        assert expr.children == (CourseReq("A"),)

    def test_operators(self):
        expr = CourseReq("A") & CourseReq("B") | CourseReq("C")
        assert expr.evaluate({"C"})
        assert expr.evaluate({"A", "B"})
        assert not expr.evaluate({"A"})

    def test_paper_shape_dnf(self):
        # Q = (A ∧ B) ∨ (C ∧ D)
        expr = Or(And(CourseReq("A"), CourseReq("B")), And(CourseReq("C"), CourseReq("D")))
        assert expr.to_dnf() == frozenset(
            {frozenset({"A", "B"}), frozenset({"C", "D"})}
        )

    def test_dnf_absorption(self):
        # A ∨ (A ∧ B) simplifies to A
        expr = Or(CourseReq("A"), And(CourseReq("A"), CourseReq("B")))
        assert expr.to_dnf() == frozenset({frozenset({"A"})})

    def test_and_distributes_over_or(self):
        # A ∧ (B ∨ C) -> {A,B}, {A,C}
        expr = And(CourseReq("A"), Or(CourseReq("B"), CourseReq("C")))
        assert expr.to_dnf() == frozenset(
            {frozenset({"A", "B"}), frozenset({"A", "C"})}
        )

    def test_min_courses_picks_cheapest_disjunct(self):
        expr = Or(And(CourseReq("A"), CourseReq("B"), CourseReq("C")), CourseReq("D"))
        assert expr.min_courses_to_satisfy(frozenset()) == 1
        assert expr.min_courses_to_satisfy({"A", "B"}) == 1  # C or D

    def test_and_with_false_is_unsatisfiable(self):
        expr = And(CourseReq("A"), FALSE)
        assert expr.to_dnf() == frozenset()
        assert not expr.evaluate({"A"})

    def test_courses_union(self):
        expr = And(CourseReq("A"), Or(CourseReq("B"), CourseReq("C")))
        assert expr.courses() == {"A", "B", "C"}

    def test_equality_ignores_order(self):
        assert And(CourseReq("A"), CourseReq("B")) == And(CourseReq("B"), CourseReq("A"))
        assert Or(CourseReq("A"), CourseReq("B")) == Or(CourseReq("B"), CourseReq("A"))

    def test_rejects_non_expr_children(self):
        with pytest.raises(TypeError):
            And(CourseReq("A"), "B")

    def test_satisfying_sets_sorted_smallest_first(self):
        expr = Or(And(CourseReq("A"), CourseReq("B")), CourseReq("C"))
        sets = expr.satisfying_sets()
        assert sets[0] == frozenset({"C"})


class TestKOf:
    def test_semantics(self):
        expr = KOf(2, [CourseReq("A"), CourseReq("B"), CourseReq("C")])
        assert expr.evaluate({"A", "B"})
        assert expr.evaluate({"A", "C"})
        assert not expr.evaluate({"A"})

    def test_zero_of_is_true(self):
        assert KOf(0, [CourseReq("A")]).evaluate(frozenset())
        assert KOf(0, []).to_dnf() == TRUE.to_dnf()

    def test_more_than_children_is_false(self):
        expr = KOf(3, [CourseReq("A"), CourseReq("B")])
        assert not expr.evaluate({"A", "B"})
        assert expr.to_dnf() == frozenset()

    def test_dnf_expansion(self):
        expr = KOf(2, [CourseReq("A"), CourseReq("B"), CourseReq("C")])
        assert expr.to_dnf() == frozenset(
            {frozenset({"A", "B"}), frozenset({"A", "C"}), frozenset({"B", "C"})}
        )

    def test_min_courses(self):
        expr = KOf(2, [CourseReq("A"), CourseReq("B"), CourseReq("C")])
        assert expr.min_courses_to_satisfy(frozenset()) == 2
        assert expr.min_courses_to_satisfy({"A"}) == 1

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            KOf(-1, [CourseReq("A")])


class TestFactories:
    def test_requires_single(self):
        assert requires("11A") == CourseReq("11A")

    def test_requires_many(self):
        assert requires("A", "B") == And(CourseReq("A"), CourseReq("B"))

    def test_requires_none_is_true(self):
        assert requires() == TRUE

    def test_all_of_drops_true(self):
        assert all_of([TRUE, CourseReq("A")]) == CourseReq("A")

    def test_all_of_collapses_false(self):
        assert all_of([CourseReq("A"), FALSE]) == FALSE

    def test_all_of_empty_is_true(self):
        assert all_of([]) == TRUE

    def test_any_of_drops_false(self):
        assert any_of([FALSE, CourseReq("A")]) == CourseReq("A")

    def test_any_of_collapses_true(self):
        assert any_of([CourseReq("A"), TRUE]) == TRUE

    def test_any_of_empty_is_false(self):
        assert any_of([]) == FALSE


class TestSerialization:
    @pytest.mark.parametrize(
        "expr",
        [
            TRUE,
            FALSE,
            CourseReq("COSI 11a"),
            And(CourseReq("A"), CourseReq("B")),
            Or(And(CourseReq("A"), CourseReq("B")), CourseReq("C")),
            KOf(2, [CourseReq("A"), CourseReq("B"), CourseReq("C")]),
            And(CourseReq("A"), KOf(1, [CourseReq("B"), CourseReq("C")])),
        ],
    )
    def test_dict_roundtrip(self, expr):
        assert from_dict(expr.to_dict()) == expr

    def test_from_dict_unknown_op(self):
        with pytest.raises(CatalogError, match="unknown prerequisite op"):
            from_dict({"op": "xor"})

    def test_to_string_shapes(self):
        assert CourseReq("COSI 11a").to_string() == "COSI 11a"
        assert TRUE.to_string() == "NONE"
        expr = And(CourseReq("A"), Or(CourseReq("B"), CourseReq("C")))
        assert expr.to_string() == "A AND (B OR C)"


# -- property tests ----------------------------------------------------------

_COURSES = ["A", "B", "C", "D", "E"]


def _exprs(depth=3):
    leaves = st.sampled_from(
        [TRUE, FALSE] + [CourseReq(c) for c in _COURSES]
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, min_size=1, max_size=3).map(lambda cs: And(*cs)),
            st.lists(children, min_size=1, max_size=3).map(lambda cs: Or(*cs)),
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.lists(children, min_size=1, max_size=3),
            ).map(lambda kv: KOf(kv[0], kv[1])),
        ),
        max_leaves=8,
    )


@given(_exprs(), st.sets(st.sampled_from(_COURSES)))
def test_dnf_agrees_with_evaluate(expr, completed):
    """The DNF is semantically equivalent to the original expression."""
    dnf = expr.to_dnf()
    dnf_value = any(conj <= completed for conj in dnf)
    assert dnf_value == expr.evaluate(frozenset(completed))


@given(_exprs(), st.sets(st.sampled_from(_COURSES)))
def test_min_courses_is_exact(expr, completed):
    """min_courses_to_satisfy matches brute force over all course subsets."""
    import itertools

    completed = frozenset(completed)
    claimed = expr.min_courses_to_satisfy(completed)
    universe = sorted(set(_COURSES) - completed)
    best = math.inf
    for size in range(len(universe) + 1):
        if size >= best:
            break
        for extra in itertools.combinations(universe, size):
            if expr.evaluate(completed | set(extra)):
                best = size
                break
    assert claimed == best


@given(_exprs())
def test_dnf_has_no_absorbed_supersets(expr):
    dnf = expr.to_dnf()
    for conj in dnf:
        assert not any(other < conj for other in dnf)


_ROUND_TRIPS = {
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}

_EXPRESSIONS = {
    "course": CourseReq("A"),
    "and": And(CourseReq("A"), CourseReq("B")),
    "or": Or(CourseReq("A"), And(CourseReq("B"), CourseReq("C"))),
    "kof": KOf(2, [CourseReq("A"), CourseReq("B"), Or(CourseReq("C"), CourseReq("D"))]),
}


class TestCopyAndPickle:
    @pytest.mark.parametrize("how", sorted(_ROUND_TRIPS))
    @pytest.mark.parametrize("name", sorted(_EXPRESSIONS))
    def test_expression_round_trips(self, name, how):
        expr = _EXPRESSIONS[name]
        restored = _ROUND_TRIPS[how](expr)
        assert type(restored) is type(expr)
        assert restored == expr
        assert hash(restored) == hash(expr)
        assert restored.to_dict() == expr.to_dict()

    @pytest.mark.parametrize("how", sorted(_ROUND_TRIPS))
    def test_constants_stay_singletons(self, how):
        assert _ROUND_TRIPS[how](TRUE) is TRUE
        assert _ROUND_TRIPS[how](FALSE) is FALSE

    @pytest.mark.parametrize("how", sorted(_ROUND_TRIPS))
    def test_catalog_with_prerequisites_round_trips(self, how):
        from repro.data import brandeis_catalog
        from repro.semester import Term

        catalog = brandeis_catalog()
        assert any(course.prereq is not TRUE for course in catalog.courses())
        restored = _ROUND_TRIPS[how](catalog)
        assert restored.to_dict() == catalog.to_dict()
        completed = frozenset({"COSI 11a", "COSI 12b"})
        term = Term(2014, "Fall")
        assert restored.eligible_courses(completed, term) == catalog.eligible_courses(
            completed, term
        )
