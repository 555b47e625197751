"""A synthetic 38-course Brandeis-style CS catalog (the evaluation dataset).

The paper's experiments draw on "38 Computer Science courses offered at
Brandeis University and the class schedules of the academic period ending
in Fall '15" with a major requiring "7 core courses and 5 elective
courses" (§5.1).  The real registrar export is not public, so this module
builds a stand-in with the same shape:

* 38 courses: 7 core (intro → theory/systems chains), 30 electives over
  AI / systems / theory / applications, 1 non-major service course;
* prerequisites forming a DAG of depth 4 with AND / OR / k-of structure;
* schedules over Spring '11 – Fall '15 in registrar-typical patterns —
  the intro course every term, gateway courses once a year, upper-level
  electives once a year or alternate years (the paper notes schedules
  "allow students to complete some core courses first", which is what
  makes its pruning so effective — the pattern below preserves that);
* a historical offering model (Fall '07 – Fall '10 history) for
  reliability ranking.

Experiments address horizons as "N semesters ending Fall '15", meaning N
course-taking terms with the goal checked at the Fall '15 status —
matching §5.2's "period from Fall '12 to Fall '15" being the 6-semester
row of Table 2.  :func:`start_term_for_semesters` encodes that mapping.

Everything is deterministic: no randomness, stable course ids, so every
test and benchmark sees the identical dataset.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from ..catalog import Catalog, Course, HistoricalOfferingModel, Schedule
from ..catalog.patterns import build_schedule, pattern_terms
from ..errors import InvalidConfigError
from ..parsing.prereq_parser import parse_prerequisites
from ..requirements import DegreeGoal
from ..semester import Term

__all__ = [
    "brandeis_catalog",
    "brandeis_major_goal",
    "brandeis_offering_model",
    "start_term_for_semesters",
    "CORE_COURSE_IDS",
    "ELECTIVE_COURSE_IDS",
    "GENERAL_COURSE_IDS",
    "EVALUATION_END_TERM",
    "SCHEDULE_FIRST_TERM",
]

#: The evaluation deadline ``d`` — all horizons end here (§5.1).
EVALUATION_END_TERM = Term(2015, "Fall")

#: First term covered by the released schedule.
SCHEDULE_FIRST_TERM = Term(2011, "Spring")

# (course id, title, prerequisite prose, schedule pattern, weekly hours, tag)
#
# Schedule patterns: "every" = all terms; "fall"/"spring" = once a year;
# "fall-even"/"fall-odd"/"spring-even"/"spring-odd" = alternate years
# (by calendar-year parity).
_COURSE_ROWS: List[Tuple[str, str, str, str, float, str]] = [
    # -- service (non-major) -------------------------------------------------
    ("COSI 2a",   "How Computers Work",                        "",                      "spring",      6.0,  "general"),
    # -- core (7) -------------------------------------------------------------
    ("COSI 11a",  "Programming in Java and C",                 "",                      "every",       12.0, "core"),
    ("COSI 12b",  "Advanced Programming Techniques",           "COSI 11a",              "spring",      12.0, "core"),
    ("COSI 21a",  "Data Structures and Algorithms",            "COSI 11a",              "spring",      14.0, "core"),
    ("COSI 29a",  "Discrete Structures",                       "",                      "fall",        10.0, "core"),
    ("COSI 30a",  "Introduction to the Theory of Computation", "COSI 21a AND COSI 29a", "fall",        14.0, "core"),
    ("COSI 31a",  "Computer Structures and Organization",      "COSI 12b AND COSI 21a", "spring",      14.0, "core"),
    ("COSI 121b", "Structure and Interpretation of Programs",  "COSI 21a",              "fall",        12.0, "core"),
    # -- electives (30) -----------------------------------------------------------
    ("COSI 65a",  "Introduction to Multimedia Computing",      "",                      "fall",        8.0,  "elective"),
    ("COSI 33b",  "Internet and Society",                      "",                      "spring",      6.0,  "elective"),
    ("COSI 45b",  "Programming Paradigms",                     "",                      "fall-odd",    10.0, "elective"),
    ("COSI 55a",  "Introduction to Computational Linguistics", "COSI 11a",              "fall-even",   10.0, "elective"),
    ("COSI 57a",  "Software Tools and Scripting",              "COSI 11a",              "spring-even", 8.0,  "elective"),
    ("COSI 64a",  "Human-Centered Computing",                  "COSI 11a OR COSI 2a",   "spring-odd",  8.0,  "elective"),
    ("COSI 101a", "Artificial Intelligence",                   "COSI 21a AND COSI 29a", "fall",        14.0, "elective"),
    ("COSI 102a", "Machine Learning",                          "COSI 21a AND COSI 29a", "spring",      14.0, "elective"),
    ("COSI 103a", "Natural Language Processing",               "COSI 21a",              "fall-odd",    12.0, "elective"),
    ("COSI 104a", "Computer Vision",                           "COSI 21a AND COSI 29a", "spring-even", 12.0, "elective"),
    ("COSI 105b", "Software Engineering for Scalability",      "COSI 12b",              "fall-even",   12.0, "elective"),
    ("COSI 107a", "Computer Networks",                         "COSI 12b",              "spring",      12.0, "elective"),
    ("COSI 112a", "Advanced Operating Systems",                "COSI 31a",              "spring-odd",  16.0, "elective"),
    ("COSI 114b", "Topics in Formal Verification",             "COSI 30a",              "spring-odd",  14.0, "elective"),
    ("COSI 118a", "Computer Graphics",                         "COSI 12b AND COSI 21a", "fall-even",   12.0, "elective"),
    ("COSI 120a", "Compiler Design",                           "COSI 12b AND COSI 21a", "spring-even", 16.0, "elective"),
    ("COSI 123a", "Statistical Learning Theory",               "COSI 102a",             "fall-even",   14.0, "elective"),
    ("COSI 125a", "Human-Computer Interaction",                "COSI 11a",              "spring",      10.0, "elective"),
    ("COSI 126b", "Computer Security",                         "COSI 31a OR COSI 107a", "fall",        12.0, "elective"),
    ("COSI 127b", "Database Management Systems",               "COSI 21a",              "fall",        12.0, "elective"),
    ("COSI 128a", "Distributed Systems",                       "COSI 31a",              "fall-odd",    14.0, "elective"),
    ("COSI 130a", "Advanced Algorithms",                       "COSI 30a",              "spring-even", 16.0, "elective"),
    ("COSI 132a", "Information Retrieval",                     "COSI 21a",              "fall",        12.0, "elective"),
    ("COSI 134a", "Web Application Development",               "COSI 12b",              "spring",      10.0, "elective"),
    ("COSI 135a", "Mobile Application Development",            "COSI 12b",              "fall",        10.0, "elective"),
    ("COSI 137b", "Autonomous Robotics",                       "COSI 101a",             "spring-odd",  14.0, "elective"),
    ("COSI 138b", "Computational Biology",                     "COSI 21a AND COSI 29a", "fall-even",   12.0, "elective"),
    ("COSI 140a", "Parallel Computing",                        "COSI 31a",              "spring",      14.0, "elective"),
    ("COSI 145b", "Cloud Computing Infrastructure",            "COSI 107a OR COSI 31a", "fall-odd",    12.0, "elective"),
    ("COSI 150a", "Senior Capstone in Software Systems",
     "2 OF [COSI 101a, COSI 103a, COSI 107a, COSI 127b]",                               "spring",      16.0, "elective"),
]

#: The 7 core courses of the major.
CORE_COURSE_IDS: FrozenSet[str] = frozenset(
    row[0] for row in _COURSE_ROWS if row[5] == "core"
)

#: The 30 elective-eligible courses.
ELECTIVE_COURSE_IDS: FrozenSet[str] = frozenset(
    row[0] for row in _COURSE_ROWS if row[5] == "elective"
)

#: Courses that do not count toward the major.
GENERAL_COURSE_IDS: FrozenSet[str] = frozenset(
    row[0] for row in _COURSE_ROWS if row[5] == "general"
)


def _build_schedule(first: Term, last: Term) -> Schedule:
    return build_schedule(
        {
            course_id: pattern
            for course_id, _title, _prereq, pattern, _hours, _tag in _COURSE_ROWS
        },
        first,
        last,
    )


def brandeis_catalog() -> Catalog:
    """The 38-course catalog with its Spring '11 – Fall '15 schedule.

    Deterministic; building it twice yields equal catalogs.
    """
    courses = [
        Course(
            course_id=course_id,
            title=title,
            prereq=parse_prerequisites(prereq_text),
            workload_hours=hours,
            tags=frozenset({tag}),
        )
        for course_id, title, prereq_text, _pattern, hours, tag in _COURSE_ROWS
    ]
    schedule = _build_schedule(SCHEDULE_FIRST_TERM, EVALUATION_END_TERM)
    return Catalog(courses, schedule=schedule)


def brandeis_major_goal(electives_required: int = 5) -> DegreeGoal:
    """The CS major: all 7 core courses plus ``electives_required``
    electives (paper default 5)."""
    return DegreeGoal.from_core_electives(
        CORE_COURSE_IDS, ELECTIVE_COURSE_IDS, electives_required, name="CS major"
    )


def start_term_for_semesters(semesters: int, end_term: Term = EVALUATION_END_TERM) -> Term:
    """The start term for an ``N``-semester horizon ending at ``end_term``.

    ``N`` counts course-taking terms: the exploration runs from the start
    status through ``N`` transitions, with goals checked at the ``end_term``
    status.  Example: 6 semesters ending Fall '15 start at Fall '12 — the
    §5.2 transcript-comparison period.  Raises
    :class:`~repro.errors.InvalidConfigError` (a ``ValueError``) for
    ``semesters < 1``.
    """
    if semesters < 1:
        raise InvalidConfigError(f"semesters must be >= 1, got {semesters}")
    return end_term - semesters


def brandeis_offering_model(
    release_horizon_end: Term = Term(2012, "Spring"),
) -> HistoricalOfferingModel:
    """An offering-probability model for reliability ranking.

    The released schedule is certain through ``release_horizon_end``
    (universities publish 1–2 terms ahead, §4.3.1); beyond it,
    probabilities come from a Fall '07 – Fall '10 synthetic history
    following the same per-course patterns — so a yearly fall course has
    ``prob = 1.0`` in future falls, an alternate-year course ``0.5``, and
    every course ``0.0`` in its off season.
    """
    history_start = Term(2007, "Fall")
    history_end = Term(2010, "Fall")
    history = Schedule(
        {
            course_id: pattern_terms(pattern, history_start, history_end)
            for course_id, _title, _prereq, pattern, _hours, _tag in _COURSE_ROWS
        }
    )
    released = _build_schedule(SCHEDULE_FIRST_TERM, EVALUATION_END_TERM)
    return HistoricalOfferingModel.from_history(
        history, history_start, history_end, released, release_horizon_end
    )


def course_rows() -> List[Dict[str, str]]:
    """The raw course table as dicts (used by docs and the CLI's
    ``catalog`` command)."""
    return [
        {
            "course_id": course_id,
            "title": title,
            "prerequisites": prereq_text or "none",
            "pattern": pattern,
            "workload_hours": str(hours),
            "tag": tag,
        }
        for course_id, title, prereq_text, pattern, hours, tag in _COURSE_ROWS
    ]
