"""The :class:`Catalog`: courses + schedule + offering model, validated.

The catalog is what the paper's back-end hands to the Learning Path
Generator: the course set ``C`` with per-course prerequisite conditions
``Q_i``, the schedule ``S_i``, and (for reliability ranking) the offering
probability model.  It also exposes the one status-derivation primitive all
three algorithms share:

    Y_i = { c_j ∈ C − X_i  |  Q_j(X_i) == true, s_i ∈ S_j }

via :meth:`Catalog.eligible_courses`.  That query is compiled: course ids
become bit positions, each course offered in a term becomes a row of
prerequisite clause masks (its DNF), and answers are memoised on the
slice of ``X_i`` the term's rows can read.
"""

from __future__ import annotations

import functools
from typing import (
    AbstractSet,
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..errors import CatalogError, DuplicateCourseError, UnknownCourseError
from ..semester import Term
from .course import Course
from .schedule import DeterministicOfferings, OfferingModel, Schedule

__all__ = ["Catalog"]


class Catalog(Mapping[str, Course]):
    """An immutable, validated collection of courses plus their schedule.

    ``Catalog`` implements the :class:`~collections.abc.Mapping` protocol
    over course ids, so ``catalog["COSI 11a"]``, ``"COSI 11a" in catalog``,
    ``len(catalog)`` and iteration all behave as expected.

    Parameters
    ----------
    courses:
        The course records.  Duplicate ids raise
        :class:`~repro.errors.DuplicateCourseError`.
    schedule:
        The offered-term sets.  Courses scheduled but not in ``courses``
        raise :class:`~repro.errors.UnknownCourseError`.
    offering_model:
        Probability model for reliability ranking; defaults to the
        deterministic 0/1 model over ``schedule``.
    strict:
        When true (default), prerequisite conditions may only reference
        courses present in the catalog, and prerequisite cycles raise
        :class:`~repro.errors.CatalogError`.
    """

    def __init__(
        self,
        courses: Iterable[Course],
        schedule: Schedule = Schedule(),
        offering_model: Optional[OfferingModel] = None,
        strict: bool = True,
    ):
        table: Dict[str, Course] = {}
        for course in courses:
            if not isinstance(course, Course):
                raise TypeError(f"expected Course, got {course!r}")
            if course.course_id in table:
                raise DuplicateCourseError(course.course_id)
            table[course.course_id] = course
        self._courses = table
        self._schedule = schedule
        self._offering_model = offering_model or DeterministicOfferings(schedule)
        self._strict = strict
        if strict:
            self._validate()
        self._reset_kernels()

    def _validate(self) -> None:
        for course in self._courses.values():
            for ref in course.prereq.courses():
                if ref not in self._courses:
                    raise UnknownCourseError(
                        ref, context=f"prerequisite of {course.course_id!r}"
                    )
        for course_id in self._schedule.course_ids():
            if course_id not in self._courses:
                raise UnknownCourseError(course_id, context="schedule entry")
        cycle = self.find_prerequisite_cycle()
        if cycle:
            raise CatalogError(f"prerequisite cycle: {' -> '.join(cycle)}")

    # -- mapping protocol -----------------------------------------------------

    def __getitem__(self, course_id: str) -> Course:
        try:
            return self._courses[course_id]
        except KeyError:
            raise UnknownCourseError(course_id) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._courses)

    def __len__(self) -> int:
        return len(self._courses)

    def __repr__(self) -> str:
        return f"Catalog({len(self._courses)} courses)"

    # -- attributes ---------------------------------------------------------------

    @property
    def schedule(self) -> Schedule:
        """The offered-term sets (``S_i`` for every course)."""
        return self._schedule

    @property
    def offering_model(self) -> OfferingModel:
        """The probability model ``prob(c_i, s)`` used by reliability ranking."""
        return self._offering_model

    def course_ids(self) -> FrozenSet[str]:
        """Every course id in the catalog."""
        return frozenset(self._courses)

    def courses(self) -> Tuple[Course, ...]:
        """All course records, in insertion order."""
        return tuple(self._courses.values())

    def courses_with_tag(self, tag: str) -> FrozenSet[str]:
        """Ids of courses carrying ``tag``."""
        return frozenset(cid for cid, c in self._courses.items() if c.has_tag(tag))

    # -- the Y_i primitive ---------------------------------------------------------

    def eligible_courses(
        self,
        completed: AbstractSet[str],
        term: Term,
        exclude: AbstractSet[str] = frozenset(),
        schedule: Optional[Schedule] = None,
    ) -> FrozenSet[str]:
        """The option set ``Y`` for a student with ``completed`` in ``term``.

        A course is eligible iff it is not already completed, not in
        ``exclude`` (student avoid-lists), offered in ``term``, and its
        prerequisite condition evaluates to true over ``completed``.

        ``schedule`` overrides the catalog schedule — ranked exploration
        passes a projected schedule here.
        """
        schedule = schedule if schedule is not None else self._schedule
        kernel = self._kernels.get((id(schedule), term.ordinal))
        if (
            kernel is None
            or kernel.schedule is not schedule
            or (kernel.term is not term and kernel.term != term)
        ):
            kernel = self._compile(schedule, term)
        bits = self._bits
        mask = 0
        for course_id in completed:
            mask |= bits.get(course_id, 0)
        if type(exclude) is not frozenset:
            exclude = frozenset(exclude)
        return self._options(kernel, mask & kernel.relevant, exclude)

    # -- the compiled option-set kernel ------------------------------------------------

    #: Compiled ``(schedule, term)`` kernels kept per catalog.
    _KERNEL_LIMIT = 256
    #: Memoised option sets kept per catalog (least recently used go first).
    _OPTIONS_MEMO_SIZE = 32_768

    def _reset_kernels(self) -> None:
        # Bit positions are interned on first use, never in __init__.
        self._bits: Dict[str, int] = {}
        # Keyed by (schedule id, term ordinal): an int key skips hashing the
        # term; the kernel's own schedule and term confirm a hit.
        self._kernels: Dict[Tuple[int, int], _TermKernel] = {}
        self._options = functools.lru_cache(maxsize=self._OPTIONS_MEMO_SIZE)(
            _derive_options
        )

    def _bit(self, course_id: str) -> int:
        bit = self._bits.get(course_id)
        if bit is None:
            bit = self._bits[course_id] = 1 << len(self._bits)
        return bit

    def _compile(self, schedule: Schedule, term: Term) -> "_TermKernel":
        """Compile the rows of ``term`` under ``schedule`` (one per offered
        course, in ``offered_in`` order) and cache them by schedule
        identity; the kernel holds its schedule, so the id cannot be reused
        while the entry lives.

        Every id a row reads — the offered course and each prerequisite it
        mentions, catalog member or not — gets a bit here, so a completed
        id without a bit cannot affect any compiled kernel.
        """
        rows = []
        relevant = 0
        for course_id in schedule.offered_in(term):
            bit = self._bit(course_id)
            relevant |= bit
            course = self._courses.get(course_id)
            if course is None:
                rows.append((bit, course_id, None))
                continue
            clauses = []
            for conjunction in course.prereq.to_dnf():
                clause = 0
                for ref in conjunction:
                    clause |= self._bit(ref)
                clauses.append(clause)
                relevant |= clause
            rows.append((bit, course_id, tuple(clauses)))
        kernel = _TermKernel(schedule, term, tuple(rows), relevant)
        key = (id(schedule), term.ordinal)
        kernels = self._kernels
        kernels.pop(key, None)
        if len(kernels) >= self._KERNEL_LIMIT:
            del kernels[next(iter(kernels))]
        kernels[key] = kernel
        return kernel

    def __getstate__(self) -> Dict[str, Any]:
        # Compiled kernels and memoised option sets are caches, not state.
        state = dict(self.__dict__)
        for name in ("_bits", "_kernels", "_options"):
            del state[name]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._reset_kernels()

    # -- prerequisite structure -------------------------------------------------------

    def prerequisite_edges(self) -> List[Tuple[str, str]]:
        """All ``(prerequisite, course)`` pairs mentioned by any condition.

        Disjunctive structure is flattened: every course appearing anywhere
        in ``Q_i`` contributes an edge.  This over-approximates hard
        dependencies (an OR branch is optional) but is the right relation
        for cycle detection and for ordering courses by depth.
        """
        edges = []
        for course in self._courses.values():
            for ref in course.prereq.courses():
                edges.append((ref, course.course_id))
        return edges

    def find_prerequisite_cycle(self) -> Optional[List[str]]:
        """A prerequisite cycle as a course-id list, or ``None`` if acyclic."""
        graph: Dict[str, List[str]] = {cid: [] for cid in self._courses}
        for pre, post in self.prerequisite_edges():
            if pre in graph:
                graph[pre].append(post)
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {cid: WHITE for cid in graph}
        parent: Dict[str, Optional[str]] = {}

        for root in graph:
            if color[root] != WHITE:
                continue
            stack = [(root, iter(graph[root]))]
            color[root] = GRAY
            parent[root] = None
            while stack:
                node, children = stack[-1]
                advanced = False
                for child in children:
                    if color[child] == WHITE:
                        color[child] = GRAY
                        parent[child] = node
                        stack.append((child, iter(graph[child])))
                        advanced = True
                        break
                    if color[child] == GRAY:
                        cycle = [child, node]
                        walk = node
                        while parent[walk] is not None and walk != child:
                            walk = parent[walk]  # type: ignore[assignment]
                            cycle.append(walk)
                            if walk == child:
                                break
                        cycle.reverse()
                        return cycle
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return None

    def topological_order(self) -> List[str]:
        """Course ids ordered so prerequisites precede dependents.

        Ties broken by course id for determinism.
        """
        indegree = {cid: 0 for cid in self._courses}
        adjacency: Dict[str, List[str]] = {cid: [] for cid in self._courses}
        for pre, post in self.prerequisite_edges():
            adjacency[pre].append(post)
            indegree[post] += 1
        ready = sorted(cid for cid, deg in indegree.items() if deg == 0)
        order: List[str] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            inserted = []
            for child in adjacency[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    inserted.append(child)
            if inserted:
                ready.extend(inserted)
                ready.sort()
        if len(order) != len(self._courses):
            raise CatalogError("prerequisite graph contains a cycle")
        return order

    def prerequisite_depth(self, course_id: str) -> int:
        """Length of the longest prerequisite chain below ``course_id``.

        Intro courses have depth 0.
        """
        memo: Dict[str, int] = {}

        def depth(cid: str) -> int:
            if cid in memo:
                return memo[cid]
            memo[cid] = 0  # breaks ties on (validated-absent) cycles
            refs = self[cid].prereq.courses()
            memo[cid] = 1 + max((depth(ref) for ref in refs), default=-1)
            return memo[cid]

        if course_id not in self._courses:
            raise UnknownCourseError(course_id)
        return depth(course_id)

    def prerequisite_closure(self, course_id: str) -> FrozenSet[str]:
        """Every course reachable downward through prerequisite mentions."""
        if course_id not in self._courses:
            raise UnknownCourseError(course_id)
        seen: set = set()
        frontier = list(self[course_id].prereq.courses())
        while frontier:
            cid = frontier.pop()
            if cid in seen:
                continue
            seen.add(cid)
            frontier.extend(self[cid].prereq.courses())
        return frozenset(seen)

    # -- derivation ----------------------------------------------------------------

    def with_schedule(
        self, schedule: Schedule, offering_model: Optional[OfferingModel] = None
    ) -> "Catalog":
        """A copy of this catalog with a different schedule."""
        return Catalog(
            self._courses.values(),
            schedule=schedule,
            offering_model=offering_model,
            strict=self._strict,
        )

    # -- serialization ----------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation; inverse of :meth:`from_dict`.

        The offering model is not serialized (rebuild it from history).
        """
        return {
            "courses": [course.to_dict() for course in self._courses.values()],
            "schedule": self._schedule.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Catalog":
        """Rebuild a catalog from :meth:`to_dict` output."""
        return cls(
            [Course.from_dict(item) for item in data.get("courses", ())],
            schedule=Schedule.from_dict(data.get("schedule", {})),
        )


class _TermKernel:
    """The compiled option-set rows of one ``(schedule, term)``.

    ``rows`` holds ``(bit, course_id, clause masks)`` per offered course;
    the course is eligible iff some clause ``c`` has ``c & X == c``
    (``TRUE`` is the single clause ``0``, ``FALSE`` has none).  Courses
    missing from the catalog carry ``None`` instead of clauses.
    ``relevant`` is the OR of every row's bit and clauses: the only part
    of ``X`` the answer can depend on.
    """

    __slots__ = ("schedule", "term", "rows", "relevant")

    def __init__(self, schedule: Schedule, term: Term, rows: tuple, relevant: int):
        self.schedule = schedule
        self.term = term
        self.rows = rows
        self.relevant = relevant


def _derive_options(
    kernel: _TermKernel, completed: int, exclude: FrozenSet[str]
) -> FrozenSet[str]:
    """``Y`` over a kernel, for ``completed`` as a bit mask."""
    eligible = []
    for bit, course_id, clauses in kernel.rows:
        if completed & bit or course_id in exclude:
            continue
        if clauses is None:
            raise UnknownCourseError(course_id, context="schedule entry")
        for clause in clauses:
            if clause & completed == clause:
                eligible.append(course_id)
                break
    return frozenset(eligible)
