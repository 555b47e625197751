"""Ranked top-k search against the engine-free enumerator (Lemma 2).

On the generated cases of :mod:`tests.test_tree_oracle` (small catalogs
with KOf prerequisites, two- and three-season calendars, the Lakeside
trimester catalog, constraints, avoid-lists, all three empty-selection
policies), :func:`~repro.core.ranked.generate_ranked` under
``TimeRanking`` and ``CourseCountRanking`` returns the ``k`` cheapest of
:func:`tests.oracle.enumerate_tree`'s goal paths: each path an oracle
goal path, none twice, the costs the ``k`` smallest oracle costs in
order, and ``exhausted`` exactly when ``k`` exceeds the goal paths.
``k`` is drawn both below and above their number.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import CourseCountRanking, TimeRanking, generate_ranked

from .test_tree_oracle import _cases

#: Each ranking and its path cost, computed from the selections alone.
RANKINGS = {
    "time": (TimeRanking, len),
    "course-count": (CourseCountRanking, lambda path: sum(len(w) for w in path)),
}


@settings(max_examples=200, deadline=None)
@given(
    case=_cases(courses=(3, 6), horizon=(2, 4)),
    ranking=st.sampled_from(sorted(RANKINGS)),
    enforce=st.booleans(),
    data=st.data(),
)
def test_ranked_returns_the_k_cheapest_oracle_goal_paths(case, ranking, enforce, data):
    _census, paths = case.oracle(with_goal=True)
    goal_paths = paths["goal"]
    make, cost = RANKINGS[ranking]
    k = data.draw(st.integers(1, len(goal_paths) + 2), label="k")
    result = generate_ranked(
        case.catalog, case.start, case.goal, case.end, k, make(),
        completed=case.completed, config=case.config(enforce),
    )
    found = [path.selections for path in result.paths]
    assert len(set(found)) == len(found)
    assert set(found) <= goal_paths
    assert [cost(path) for path in found] == result.costs
    assert result.costs == sorted(cost(path) for path in goal_paths)[:k]
    assert result.exhausted == (k > len(goal_paths))
