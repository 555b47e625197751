"""Quickstart: explore learning paths on the bundled evaluation catalog.

Run with::

    python examples/quickstart.py

Walks the three exploration tasks of the paper on the 38-course synthetic
Brandeis catalog: all options for a couple of semesters ahead
(deadline-driven), all routes to the CS major (goal-driven, counted), and
the top-5 fastest routes (ranked).
"""

from repro import CourseNavigator, ExplorationConfig, Term
from repro.data import brandeis_catalog, brandeis_major_goal
from repro.system import render_path, render_path_table


def main() -> None:
    navigator = CourseNavigator(brandeis_catalog())
    goal = brandeis_major_goal()

    # A first-semester student: nothing completed, starting Fall 2014.
    start = Term(2014, "Fall")
    graduation = Term(2015, "Fall")

    print("=" * 72)
    print("1. Deadline-driven: every course-selection option through", graduation)
    print("=" * 72)
    two_per_term = ExplorationConfig(max_courses_per_term=2)
    result = navigator.explore_deadline(start, graduation, config=two_per_term)
    print(f"{result.path_count} possible learning paths "
          f"({result.graph.num_nodes} statuses explored, "
          f"{result.stats.elapsed_seconds:.2f}s)\n")
    print(render_path_table(result.paths(), navigator.catalog, limit=8))

    # Goal exploration needs more runway; count the full set for a
    # four-semester horizon ending Fall 2015.
    print()
    print("=" * 72)
    print("2. Goal-driven: paths to the CS major (7 core + 5 electives)")
    print("=" * 72)
    start = Term(2013, "Fall")
    count = navigator.count_goal(start, goal, graduation)
    print(f"{count:,} distinct ways to complete the major between "
          f"{start} and {graduation} (max 3 courses/semester)")

    print()
    print("=" * 72)
    print("3. Ranked: the top-5 fastest routes to the major")
    print("=" * 72)
    ranked = navigator.explore_ranked(start, goal, graduation, k=5, ranking="time")
    for rank, (cost, path) in enumerate(ranked.ranked(), start=1):
        print(f"\n#{rank} — {int(cost)} semesters")
        print(render_path(path, catalog=navigator.catalog, indent="  "))


if __name__ == "__main__":
    main()
