"""An engine-free path enumerator: the out-tree from the paper's definitions.

Built only from the catalog's data (``prereq.evaluate``,
``schedule.is_offered``), :func:`itertools.combinations` up to ``m``, the
avoid-list, per-selection constraints given as plain predicates and the
three empty-selection policies.  It imports nothing from ``repro.core``,
so a fault in the engines' shared machinery (option-set kernel, selection
memo, ``Expander``, ``NodeStep``, the tree's state table) cannot hide in
it.  Pruning is left out: it may only remove paths that reach no goal
(Lemma 1), so a pruned run is compared on its goal paths alone.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import AbstractSet, Callable, Dict, FrozenSet, Optional, Set, Tuple

#: ``allowed(selection, term, completed) -> bool``: the constraints.
Allowed = Callable[[FrozenSet[str], object, FrozenSet[str]], bool]

#: A path: its selections, one per term from the start term.
Path = Tuple[FrozenSet[str], ...]


def _no_constraint(selection, term, completed) -> bool:
    return True


def enumerate_tree(
    catalog,
    start,
    end,
    m: int,
    completed: AbstractSet[str] = frozenset(),
    avoid: AbstractSet[str] = frozenset(),
    policy: str = "auto",
    allowed: Allowed = _no_constraint,
    satisfied: Optional[Callable[[FrozenSet[str]], bool]] = None,
) -> Tuple[Counter, Dict[str, Set[Path]]]:
    """Every maximal path of the unpruned out-tree from ``(start, completed)``.

    A node ``(term, X)`` is a ``goal`` leaf when ``satisfied(X)`` (goal
    runs only), else a ``deadline`` leaf at ``end``.  Otherwise its moves
    are the non-empty ``W ⊆ Y`` with ``|W| ≤ m`` that ``allowed`` admits,
    ``Y`` being the courses offered at ``term``, not completed, not
    avoided, with prerequisites met by ``X``; plus the empty move, under
    ``policy``: never, always, or (``auto``) only when no other move exists
    and some course not in ``X`` nor avoided is offered in
    ``[term + 1, end − 1]``.  A node without moves is a ``dead_end`` leaf.

    Returns the terminal census and the paths to each leaf kind.
    """
    schedule = catalog.schedule
    courses = sorted(catalog.course_ids())
    census: Counter = Counter()
    paths: Dict[str, Set[Path]] = {"goal": set(), "deadline": set(), "dead_end": set()}

    def offered_later(term, done: FrozenSet[str]) -> bool:
        later = []
        t = term + 1
        while t < end:
            later.append(t)
            t = t + 1
        return any(
            course not in done
            and course not in avoid
            and any(schedule.is_offered(course, when) for when in later)
            for course in schedule.course_ids()
        )

    def leaf(kind: str, prefix: Path) -> None:
        census[kind] += 1
        paths[kind].add(prefix)

    def visit(term, done: FrozenSet[str], prefix: Path) -> None:
        if satisfied is not None and satisfied(done):
            return leaf("goal", prefix)
        if term >= end:
            return leaf("deadline", prefix)
        options = [
            course
            for course in courses
            if course not in done
            and course not in avoid
            and schedule.is_offered(course, term)
            and catalog[course].prereq.evaluate(done)
        ]
        moves = [
            frozenset(chosen)
            for size in range(1, m + 1)
            for chosen in combinations(options, size)
            if allowed(frozenset(chosen), term, done)
        ]
        if policy == "always":
            wait = True
        elif policy == "auto":
            wait = not moves and offered_later(term, done)
        else:
            wait = False
        if wait and allowed(frozenset(), term, done):
            moves.append(frozenset())
        if not moves:
            return leaf("dead_end", prefix)
        for selection in moves:
            visit(term + 1, done | selection, prefix + (selection,))

    visit(start, frozenset(completed), ())
    return census, paths
