"""Degree planner: a mid-degree student planning the rest of the major.

Run with::

    python examples/degree_planner.py

The scenario the paper's introduction motivates: a student halfway
through the program wants to know (a) where they stand against the degree
requirement, (b) whether graduation by a deadline is still possible, and
(c) the best remaining plans under different preferences — fastest vs.
lightest workload — while refusing to take a specific course.
"""

from repro import CourseNavigator, ExplorationConfig, Term
from repro.data import brandeis_catalog, brandeis_major_goal
from repro.graph.export import graph_to_dot
from repro.system import render_path


COMPLETED = frozenset({
    "COSI 11a",   # intro programming
    "COSI 29a",   # discrete structures
    "COSI 12b",   # advanced programming
    "COSI 21a",   # data structures
    "COSI 65a",   # one elective so far
})


def main() -> None:
    navigator = CourseNavigator(brandeis_catalog())
    goal = brandeis_major_goal()
    now = Term(2014, "Spring")
    deadline = Term(2015, "Fall")

    print("=" * 72)
    print("Degree audit")
    print("=" * 72)
    assignment = goal.assignment(COMPLETED)
    for course, group in sorted(assignment.items()):
        print(f"  {course:12} -> counts toward {group}")
    left = goal.remaining_courses(COMPLETED)
    print(f"\n{int(left)} more courses needed for: {goal.describe()}")

    print()
    print("=" * 72)
    print(f"Can I still graduate by {deadline}?")
    print("=" * 72)
    count = navigator.count_goal(now, goal, deadline, completed=COMPLETED)
    print(f"Yes — {count:,} distinct completion plans exist "
          f"(3 courses/semester max).")

    print()
    print("=" * 72)
    print("Fastest plan vs. lightest plan (avoiding COSI 101a)")
    print("=" * 72)
    avoiding = ExplorationConfig(avoid_courses={"COSI 101a"})
    for ranking, label in (("time", "fastest"), ("workload", "lightest workload")):
        result = navigator.explore_ranked(
            now, goal, deadline,
            k=1,
            ranking=ranking,
            completed=COMPLETED,
            config=avoiding,
        )
        if not result.paths:
            print(f"\nNo plan avoids COSI 101a under the {label} ranking.")
            continue
        cost, path = result.ranked()[0]
        print(f"\nBest {label} plan (cost {cost:g}):")
        print(render_path(path, catalog=navigator.catalog, indent="  "))

    print()
    print("=" * 72)
    print("Exporting the remaining-plan graph for the visualizer")
    print("=" * 72)
    graph = navigator.explore_goal(now, goal, deadline, completed=COMPLETED).graph
    dot = graph_to_dot(graph, max_nodes=40)
    print(f"learning graph: {graph.num_nodes} nodes; DOT preview "
          f"({len(dot.splitlines())} lines):")
    print("\n".join(dot.splitlines()[:6]))
    print("  ...")


if __name__ == "__main__":
    main()
