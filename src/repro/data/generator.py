"""Seeded random catalog generation.

Property tests (pruning soundness, tree/frontier count equivalence, top-k
correctness) and scaling ablations need many *small*, *valid*, *varied*
catalogs rather than the one fixed Brandeis dataset.  This generator
produces them deterministically from a seed:

* courses are arranged in layers, prerequisites only reference earlier
  layers (acyclic by construction);
* prerequisite conditions mix literals, ANDs, and ORs with configurable
  density;
* every course is offered at least once inside the requested window, with
  extra offerings sprinkled by probability.

The same settings + seed always produce an identical catalog.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set

from ..catalog import Catalog, Course, Schedule
from ..catalog.prereq import PrereqExpr, TRUE, CourseReq, all_of, any_of
from ..requirements import CourseSetGoal
from ..semester import Term

__all__ = ["GeneratorSettings", "random_catalog", "random_course_set_goal"]


@dataclass(frozen=True)
class GeneratorSettings:
    """Knobs for :func:`random_catalog`.

    Parameters
    ----------
    n_courses:
        Catalog size.
    n_terms:
        Schedule window length (terms, starting at ``start_term``).
    start_term:
        First scheduled term.
    prereq_probability:
        Chance a non-first-layer course has any prerequisites at all.
    or_probability:
        Chance a prerequisite condition includes an OR alternative.
    offer_probability:
        Chance of each additional per-term offering (every course always
        gets at least one offered term in the window).
    layers:
        Number of prerequisite layers (depth of the DAG).
    """

    n_courses: int = 8
    n_terms: int = 4
    start_term: Term = Term(2011, "Fall")
    prereq_probability: float = 0.6
    or_probability: float = 0.3
    offer_probability: float = 0.5
    layers: int = 3

    def __post_init__(self) -> None:
        if self.n_courses < 1:
            raise ValueError(f"n_courses must be >= 1, got {self.n_courses}")
        if self.n_terms < 1:
            raise ValueError(f"n_terms must be >= 1, got {self.n_terms}")
        if self.layers < 1:
            raise ValueError(f"layers must be >= 1, got {self.layers}")
        for name in ("prereq_probability", "or_probability", "offer_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


def _random_prereq(rng: random.Random, earlier: List[str], settings: GeneratorSettings) -> PrereqExpr:
    """A small random condition over courses from earlier layers."""
    if not earlier or rng.random() > settings.prereq_probability:
        return TRUE
    picks = rng.sample(earlier, k=min(len(earlier), rng.randint(1, 3)))
    literals = [CourseReq(cid) for cid in picks]
    conjunction = all_of(literals)
    if len(earlier) > len(picks) and rng.random() < settings.or_probability:
        alternative = CourseReq(rng.choice([c for c in earlier if c not in picks]))
        return any_of([conjunction, alternative])
    return conjunction


def random_catalog(seed: int, settings: GeneratorSettings = GeneratorSettings()) -> Catalog:
    """A deterministic random catalog for ``seed`` and ``settings``."""
    rng = random.Random(seed)
    ids = [f"C{i:02d}" for i in range(settings.n_courses)]

    # Assign courses to layers; layer 0 always exists and has no prereqs.
    layer_of: Dict[str, int] = {}
    for i, course_id in enumerate(ids):
        if i == 0:
            layer_of[course_id] = 0
        else:
            layer_of[course_id] = rng.randrange(settings.layers)

    courses = []
    for course_id in ids:
        earlier = [cid for cid in ids if layer_of[cid] < layer_of[course_id]]
        prereq = _random_prereq(rng, earlier, settings)
        courses.append(
            Course(
                course_id=course_id,
                title=f"Course {course_id}",
                prereq=prereq,
                workload_hours=float(rng.randint(4, 16)),
                tags=frozenset({f"layer{layer_of[course_id]}"}),
            )
        )

    terms = [settings.start_term + i for i in range(settings.n_terms)]
    offerings: Dict[str, FrozenSet[Term]] = {}
    for course_id in ids:
        offered: Set[Term] = {rng.choice(terms)}
        for term in terms:
            if rng.random() < settings.offer_probability:
                offered.add(term)
        offerings[course_id] = frozenset(offered)

    return Catalog(courses, schedule=Schedule(offerings))


def random_course_set_goal(catalog: Catalog, seed: int, size: int = 2) -> CourseSetGoal:
    """A random complete-these-courses goal over ``catalog``.

    ``size`` is clamped to the catalog size; the same seed picks the same
    courses.
    """
    rng = random.Random(seed)
    ids = sorted(catalog.course_ids())
    size = max(1, min(size, len(ids)))
    return CourseSetGoal(rng.sample(ids, k=size))
