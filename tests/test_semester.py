"""Tests for terms, calendars, and semester arithmetic."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import repro
from repro.errors import ScheduleParseError
from repro.semester import (
    SPRING_FALL,
    SPRING_SUMMER_FALL,
    AcademicCalendar,
    Term,
    parse_term,
    term_range,
)


class TestAcademicCalendar:
    def test_default_seasons(self):
        assert SPRING_FALL.seasons == ("Spring", "Fall")
        assert len(SPRING_FALL) == 2

    def test_three_season_calendar(self):
        assert SPRING_SUMMER_FALL.seasons == ("Spring", "Summer", "Fall")

    def test_season_index_case_insensitive(self):
        assert SPRING_FALL.season_index("fall") == 1
        assert SPRING_FALL.season_index("SPRING") == 0

    def test_unknown_season_raises(self):
        with pytest.raises(ValueError, match="unknown season"):
            SPRING_FALL.season_index("Winter")

    def test_empty_calendar_rejected(self):
        with pytest.raises(ValueError):
            AcademicCalendar(())

    def test_duplicate_season_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            AcademicCalendar(("Fall", "fall"))

    def test_blank_season_rejected(self):
        with pytest.raises(ValueError):
            AcademicCalendar(("Fall", "  "))

    def test_structural_equality_and_hash(self):
        a = AcademicCalendar(("Spring", "Fall"))
        assert a == SPRING_FALL
        assert hash(a) == hash(SPRING_FALL)
        assert a != SPRING_SUMMER_FALL


class TestTermBasics:
    def test_season_canonicalized(self):
        assert Term(2011, "fall").season == "Fall"
        assert Term(2011, "fall") == Term(2011, "Fall")

    def test_non_int_year_rejected(self):
        with pytest.raises(TypeError):
            Term("2011", "Fall")

    def test_unknown_season_rejected(self):
        with pytest.raises(ValueError):
            Term(2011, "Winter")

    def test_str_and_short(self):
        term = Term(2011, "Fall")
        assert str(term) == "Fall 2011"
        assert term.short == "Fall '11"

    def test_short_pads_year(self):
        assert Term(2005, "Spring").short == "Spring '05"

    def test_hashable_usable_in_sets(self):
        assert len({Term(2011, "Fall"), Term(2011, "fall"), Term(2012, "Fall")}) == 2


class TestTermArithmetic:
    def test_fall_plus_one_is_next_spring(self):
        assert Term(2011, "Fall") + 1 == Term(2012, "Spring")

    def test_spring_plus_one_is_same_year_fall(self):
        assert Term(2012, "Spring") + 1 == Term(2012, "Fall")

    def test_paper_sequence(self):
        # Fall '11 -> Spring '12 -> Fall '12 (Fig. 1 / Fig. 3)
        term = Term(2011, "Fall")
        assert term + 1 == Term(2012, "Spring")
        assert term + 2 == Term(2012, "Fall")

    def test_subtraction_of_int(self):
        assert Term(2012, "Spring") - 1 == Term(2011, "Fall")

    def test_difference_of_terms(self):
        assert Term(2015, "Fall") - Term(2012, "Fall") == 6
        assert Term(2012, "Fall") - Term(2015, "Fall") == -6

    def test_next_previous(self):
        term = Term(2013, "Fall")
        assert term.next() == Term(2014, "Spring")
        assert term.previous() == Term(2013, "Spring")

    def test_ordering(self):
        assert Term(2011, "Fall") < Term(2012, "Spring") < Term(2012, "Fall")
        assert Term(2012, "Fall") >= Term(2012, "Spring")

    def test_cross_calendar_comparison_raises(self):
        with pytest.raises(ValueError, match="different calendars"):
            _ = Term(2011, "Fall") < Term(2011, "Fall", SPRING_SUMMER_FALL)

    def test_cross_calendar_difference_raises(self):
        with pytest.raises(ValueError, match="different calendars"):
            _ = Term(2011, "Fall") - Term(2011, "Fall", SPRING_SUMMER_FALL)

    def test_three_season_arithmetic(self):
        term = Term(2011, "Spring", SPRING_SUMMER_FALL)
        assert term + 1 == Term(2011, "Summer", SPRING_SUMMER_FALL)
        assert term + 3 == Term(2012, "Spring", SPRING_SUMMER_FALL)

    def test_radd(self):
        assert 2 + Term(2011, "Fall") == Term(2012, "Fall")

    def test_add_non_int_not_supported(self):
        with pytest.raises(TypeError):
            _ = Term(2011, "Fall") + 1.5


class _SubTerm(Term):
    """A ``Term`` subclass: constructed fresh, never interned."""


class TestTermRoundTrips:
    """The cached ordinal lives outside the dataclass fields; every way of
    cloning a term must keep it, and equality and hashing must ignore it."""

    @pytest.mark.parametrize(
        "clone",
        [
            lambda t: pickle.loads(pickle.dumps(t)),
            copy.copy,
            copy.deepcopy,
            lambda t: dataclasses.replace(t),
        ],
        ids=["pickle", "copy", "deepcopy", "replace"],
    )
    @pytest.mark.parametrize(
        "term",
        [Term(2013, "Fall"), Term(2014, "Summer", SPRING_SUMMER_FALL)],
        ids=str,
    )
    def test_clone_keeps_ordinal_equality_and_hash(self, term, clone):
        twin = clone(term)
        assert twin.ordinal == term.ordinal
        assert twin == term
        assert hash(twin) == hash(term)
        assert twin + 1 == term + 1
        assert twin - term == 0
        assert not twin < term and not term < twin

    def test_replace_recomputes_ordinal(self):
        term = Term(2013, "Fall")
        moved = dataclasses.replace(term, year=2015)
        assert moved.ordinal == term.ordinal + 4
        assert moved == Term(2015, "Fall")

    def test_fields_and_repr_unchanged(self):
        term = Term(2013, "Fall")
        names = [field.name for field in dataclasses.fields(term)]
        assert names == ["year", "season", "calendar"]
        assert "ordinal" not in repr(term)

    def test_from_ordinal_interns_terms(self):
        ordinal = Term(2013, "Fall").ordinal
        assert Term.from_ordinal(ordinal) is Term.from_ordinal(ordinal)
        assert Term(2013, "Fall") + 2 is Term(2014, "Fall") + 0

    def test_from_ordinal_does_not_intern_subclasses(self):
        ordinal = Term(2030, "Spring").ordinal
        first = _SubTerm.from_ordinal(ordinal)
        again = _SubTerm.from_ordinal(ordinal)
        assert type(first) is _SubTerm and type(again) is _SubTerm
        assert first is not again
        assert first == again
        assert type(Term.from_ordinal(ordinal)) is Term

    def test_interned_table_is_bounded_and_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(AcademicCalendar, "_INTERNED_TERMS", 3)
        calendar = AcademicCalendar(("Winter", "Spring", "Fall"))
        terms = [Term.from_ordinal(ordinal, calendar) for ordinal in range(10)]
        assert [t.ordinal for t in terms] == list(range(10))
        assert len(calendar._terms) == 3
        assert Term.from_ordinal(9, calendar) is terms[9]
        assert Term.from_ordinal(0, calendar) == terms[0]

    def test_equal_calendars_still_compare(self):
        twin = AcademicCalendar(("Spring", "Fall"))
        assert twin is not SPRING_FALL
        assert Term(2011, "Fall", twin) < Term(2012, "Spring")
        assert Term(2012, "Spring") - Term(2011, "Fall", twin) == 1

    @pytest.mark.parametrize(
        "operation",
        [
            lambda a, b: a < b,
            lambda a, b: a > b,
            lambda a, b: a <= b,
            lambda a, b: a >= b,
            lambda a, b: a - b,
        ],
        ids=["lt", "gt", "le", "ge", "sub"],
    )
    def test_mixed_calendars_raise(self, operation):
        two = Term(2011, "Fall")
        three = Term(2011, "Fall", SPRING_SUMMER_FALL)
        with pytest.raises(ValueError, match="different calendars"):
            operation(two, three)
        with pytest.raises(ValueError, match="different calendars"):
            operation(three, two)


_ORDERINGS = ("__lt__", "__le__", "__gt__", "__ge__")


class TestTermOrderingAndHash:
    """The four orderings are written out (no total_ordering) and the hash
    is computed once at construction."""

    @pytest.mark.parametrize("method", _ORDERINGS)
    @pytest.mark.parametrize("other", [5, "Fall 2011", None, 2011.5])
    def test_non_term_operand_is_not_implemented(self, method, other):
        term = Term(2011, "Fall")
        assert getattr(term, method)(other) is NotImplemented

    @pytest.mark.parametrize(
        "operation",
        [
            lambda a, b: a < b,
            lambda a, b: a <= b,
            lambda a, b: a > b,
            lambda a, b: a >= b,
        ],
        ids=["lt", "le", "gt", "ge"],
    )
    def test_non_term_operand_raises_type_error(self, operation):
        with pytest.raises(TypeError):
            operation(Term(2011, "Fall"), 5)
        with pytest.raises(TypeError):
            operation(5, Term(2011, "Fall"))

    @pytest.mark.parametrize("method", _ORDERINGS)
    def test_cross_calendar_raises(self, method):
        two = Term(2011, "Fall")
        three = Term(2011, "Fall", SPRING_SUMMER_FALL)
        with pytest.raises(ValueError, match="different calendars"):
            getattr(two, method)(three)

    def test_orderings_follow_the_ordinal(self):
        terms = [Term.from_ordinal(o) for o in range(4020, 4026)]
        for a in terms:
            for b in terms:
                assert (a < b, a <= b, a > b, a >= b) == (
                    a.ordinal < b.ordinal,
                    a.ordinal <= b.ordinal,
                    a.ordinal > b.ordinal,
                    a.ordinal >= b.ordinal,
                )

    def test_hash_is_the_dataclass_field_hash(self):
        for term in (Term(2013, "fall"), Term(2014, "Summer", SPRING_SUMMER_FALL)):
            assert hash(term) == hash((term.year, term.season, term.calendar))

    def test_interned_and_constructed_terms_agree(self):
        constructed = Term(2013, "Fall")
        interned = Term.from_ordinal(constructed.ordinal)
        assert interned == constructed
        assert hash(interned) == hash(constructed)
        assert {constructed: "x"}[interned] == "x"
        assert Term.from_ordinal(constructed.ordinal) is interned

    @pytest.mark.parametrize(
        "term",
        [Term(2013, "Fall"), Term(2014, "Summer", SPRING_SUMMER_FALL), _SubTerm(2012, "Spring")],
        ids=str,
    )
    def test_pickle_round_trip_keeps_hash_and_equality(self, term):
        twin = pickle.loads(pickle.dumps(term))
        assert type(twin) is type(term)
        assert twin == term and hash(twin) == hash(term)
        assert {term: 1}[twin] == 1

    def test_unpickled_term_hashes_like_a_fresh_one_in_another_process(self):
        # String hashes differ between processes, so a term pickled here
        # must not carry this process's hash into one with another seed.
        payload = pickle.dumps(
            [Term(2013, "Fall"), Term(2014, "Summer", SPRING_SUMMER_FALL)]
        ).hex()
        script = (
            "import pickle, sys\n"
            "from repro.semester import SPRING_SUMMER_FALL, Term\n"
            "terms = pickle.loads(bytes.fromhex(sys.argv[1]))\n"
            "fresh = [Term(2013, 'Fall'), Term(2014, 'Summer', SPRING_SUMMER_FALL)]\n"
            "assert terms == fresh\n"
            "assert [hash(t) for t in terms] == [hash(t) for t in fresh]\n"
            "assert all(t in set(fresh) for t in terms)\n"
        )
        source = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=source)
            subprocess.run([sys.executable, "-c", script, payload], env=env, check=True)


class TestTermParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Fall 2011", Term(2011, "Fall")),
            ("Fall '11", Term(2011, "Fall")),
            ("Fall‘11", Term(2011, "Fall")),  # the paper's typography
            ("spring 2012", Term(2012, "Spring")),
            ("2012 Spring", Term(2012, "Spring")),
            ("F11", Term(2011, "Fall")),
            ("Sp2012", Term(2012, "Spring")),
            ("  Fall  2011  ", Term(2011, "Fall")),
            ("Fall 99", Term(1999, "Fall")),
        ],
    )
    def test_accepted_spellings(self, text, expected):
        assert Term.parse(text) == expected

    @pytest.mark.parametrize("text", ["", "Fall", "2011", "Winter 2011", "Fall twenty"])
    def test_rejected_spellings(self, text):
        with pytest.raises(ScheduleParseError):
            Term.parse(text)

    def test_parse_term_alias(self):
        assert parse_term("Fall 2011") == Term(2011, "Fall")

    def test_parse_with_custom_calendar(self):
        term = Term.parse("Summer 2011", SPRING_SUMMER_FALL)
        assert term == Term(2011, "Summer", SPRING_SUMMER_FALL)


class TestTermRange:
    def test_inclusive(self):
        terms = list(term_range(Term(2011, "Fall"), Term(2012, "Fall")))
        assert terms == [Term(2011, "Fall"), Term(2012, "Spring"), Term(2012, "Fall")]

    def test_exclusive(self):
        terms = list(term_range(Term(2011, "Fall"), Term(2012, "Fall"), inclusive=False))
        assert terms == [Term(2011, "Fall"), Term(2012, "Spring")]

    def test_empty_when_reversed(self):
        assert list(term_range(Term(2012, "Fall"), Term(2011, "Fall"))) == []

    def test_single_term(self):
        assert list(term_range(Term(2011, "Fall"), Term(2011, "Fall"))) == [Term(2011, "Fall")]

    def test_cross_calendar_raises(self):
        with pytest.raises(ValueError):
            list(term_range(Term(2011, "Fall"), Term(2012, "Fall", SPRING_SUMMER_FALL)))


@given(st.integers(min_value=0, max_value=10000))
def test_ordinal_roundtrip(ordinal):
    term = Term.from_ordinal(ordinal)
    assert term.ordinal == ordinal


@given(
    st.integers(min_value=1900, max_value=2100),
    st.sampled_from(["Spring", "Fall"]),
    st.integers(min_value=-50, max_value=50),
)
def test_add_then_subtract_roundtrip(year, season, delta):
    term = Term(year, season)
    assert (term + delta) - delta == term
    assert (term + delta) - term == delta


@given(
    st.integers(min_value=1900, max_value=2100),
    st.sampled_from(["Spring", "Fall"]),
)
def test_parse_str_roundtrip(year, season):
    term = Term(year, season)
    assert Term.parse(str(term)) == term


@given(
    # two-digit years are only unambiguous inside the 1970–2069 window
    st.integers(min_value=1970, max_value=2069),
    st.sampled_from(["Spring", "Fall"]),
)
def test_parse_short_roundtrip(year, season):
    term = Term(year, season)
    assert Term.parse(term.short) == term


@given(
    st.integers(min_value=1900, max_value=2100),
    st.sampled_from(["Spring", "Summer", "Fall"]),
    st.integers(min_value=-50, max_value=50),
)
def test_three_season_roundtrip(year, season, delta):
    term = Term(year, season, SPRING_SUMMER_FALL)
    moved = term + delta
    assert moved.calendar is SPRING_SUMMER_FALL
    assert moved - delta == term
    assert moved - term == delta
    assert Term.from_ordinal(moved.ordinal, SPRING_SUMMER_FALL) == moved
    assert (moved < term) == (delta < 0)
