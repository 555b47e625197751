"""Ablation benchmarks for the reproduction's design choices.

Not a paper table — these quantify the decisions DESIGN.md calls out:

1. **Representation**: the paper's out-tree vs. the frontier DP over
   merged statuses, on the same goal-driven workload.  (Why the tree runs
   out of memory and the frontier doesn't.)
2. **Pruning strategy stack**: each strategy alone, both (paper order),
   and both reversed — path output must be identical (soundness), work
   saved differs.
3. **Strategic selection floor** (``enforce_min_selection``): on vs. off.
4. **Max-flow solver**: Edmonds–Karp vs. Dinic on the degree-goal
   requirement networks that ``left_i`` builds.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core import (
    ExplorationConfig,
    frontier_count_goal_paths,
    generate_goal_driven,
)
from repro.core.pruning import AvailabilityPruner, PruningContext, TimeBasedPruner
from repro.core.stats import ExplorationStats
from repro.data import start_term_for_semesters
from repro.data.brandeis import EVALUATION_END_TERM
from repro.requirements.flow import FlowNetwork

from .conftest import report_rows

_SEMESTERS = 4


@pytest.fixture(scope="module")
def start_term():
    return start_term_for_semesters(_SEMESTERS)


class TestRepresentationAblation:
    @pytest.fixture(scope="class")
    def representation_results(self, catalog, major_goal, paper_config, start_term):
        results = {}
        began = time.perf_counter()
        tree = generate_goal_driven(
            catalog, start_term, major_goal, EVALUATION_END_TERM, config=paper_config
        )
        results["tree (paper)"] = (
            time.perf_counter() - began, tree.path_count, tree.graph.num_nodes,
        )
        began = time.perf_counter()
        frontier = frontier_count_goal_paths(
            catalog, start_term, major_goal, EVALUATION_END_TERM, config=paper_config
        )
        results["frontier DP"] = (
            time.perf_counter() - began, frontier.path_count, frontier.peak_frontier,
        )
        return results

    def test_report(self, representation_results):
        rows = [
            (name, f"{seconds:.2f}s", f"{count:,}", f"{stored:,}")
            for name, (seconds, count, stored) in representation_results.items()
        ]
        report_rows(
            f"Ablation — representation (goal-driven, {_SEMESTERS} semesters)",
            ("representation", "runtime", "goal paths", "stored nodes/states"),
            rows,
        )

    def test_counts_identical(self, representation_results):
        counts = {count for _t, count, _s in representation_results.values()}
        assert len(counts) == 1

    def test_frontier_stores_less(self, representation_results):
        tree_nodes = representation_results["tree (paper)"][2]
        frontier_peak = representation_results["frontier DP"][2]
        assert frontier_peak <= tree_nodes


class TestPrunerStackAblation:
    @pytest.fixture(scope="class")
    def stack_results(self, catalog, major_goal, paper_config, start_term):
        def context():
            return PruningContext(
                catalog=catalog, goal=major_goal,
                end_term=EVALUATION_END_TERM, config=paper_config,
            )

        stacks = {
            "none": [],
            "time only": [TimeBasedPruner(context())],
            "availability only": [AvailabilityPruner(context())],
            "time + availability (paper)": [
                TimeBasedPruner(context()), AvailabilityPruner(context()),
            ],
            "availability + time (reversed)": [
                AvailabilityPruner(context()), TimeBasedPruner(context()),
            ],
        }
        results = {}
        for name, pruners in stacks.items():
            result = frontier_count_goal_paths(
                catalog, start_term, major_goal, EVALUATION_END_TERM,
                config=paper_config, pruners=pruners,
            )
            results[name] = result
        return results

    def test_report(self, stack_results):
        rows = []
        for name, result in stack_results.items():
            stats = result.pruning_stats
            rows.append(
                (
                    name,
                    f"{result.elapsed_seconds:.2f}s",
                    f"{result.explored_path_count:,}",
                    f"{stats.share('time'):.0%}/{stats.share('availability'):.0%}"
                    if stats.total else "-",
                )
            )
        report_rows(
            "Ablation — pruning strategy stack",
            ("stack", "runtime", "explored leaves", "time/avail share"),
            rows,
        )

    def test_all_stacks_sound(self, stack_results):
        counts = {result.path_count for result in stack_results.values()}
        assert len(counts) == 1

    def test_each_strategy_helps(self, stack_results):
        unpruned = stack_results["none"].explored_path_count
        assert stack_results["time only"].explored_path_count < unpruned
        assert stack_results["availability only"].explored_path_count < unpruned

    def test_combined_at_least_as_good_as_each(self, stack_results):
        combined = stack_results["time + availability (paper)"].explored_path_count
        assert combined <= stack_results["time only"].explored_path_count
        assert combined <= stack_results["availability only"].explored_path_count

    def test_order_does_not_change_output(self, stack_results):
        paper = stack_results["time + availability (paper)"]
        reversed_ = stack_results["availability + time (reversed)"]
        assert paper.path_count == reversed_.path_count
        assert paper.explored_path_count == reversed_.explored_path_count


class TestHorizonSweepAggregate:
    """Totals over a horizon sweep, folded with ``ExplorationStats.merge``."""

    @pytest.fixture(scope="class")
    def sweep(self, catalog, major_goal, paper_config):
        runs = {}
        for semesters in (2, 3, 4):
            start = start_term_for_semesters(semesters)
            runs[semesters] = generate_goal_driven(
                catalog, start, major_goal, EVALUATION_END_TERM, config=paper_config
            )
        aggregate = ExplorationStats()
        for result in runs.values():
            aggregate.merge(result.stats)
        return runs, aggregate

    def test_report(self, sweep):
        runs, aggregate = sweep
        rows = [
            (
                str(semesters),
                f"{result.stats.nodes_created:,}",
                f"{result.stats.total_prunes:,}",
                f"{result.stats.elapsed_seconds:.2f}s",
            )
            for semesters, result in sorted(runs.items())
        ]
        rows.append(
            (
                "total",
                f"{aggregate.nodes_created:,}",
                f"{aggregate.total_prunes:,}",
                f"{aggregate.elapsed_seconds:.2f}s",
            )
        )
        report_rows(
            "Ablation — goal-driven horizon sweep (merged totals)",
            ("semesters", "nodes", "prunes", "runtime"),
            rows,
        )

    def test_merge_matches_per_run_sums(self, sweep):
        runs, aggregate = sweep
        assert aggregate.nodes_created == sum(
            r.stats.nodes_created for r in runs.values()
        )
        assert aggregate.edges_created == sum(
            r.stats.edges_created for r in runs.values()
        )
        assert aggregate.total_prunes == sum(
            r.stats.total_prunes for r in runs.values()
        )
        for kind in aggregate.terminals:
            assert aggregate.terminals[kind] == sum(
                r.stats.terminals.get(kind, 0) for r in runs.values()
            )
        assert aggregate.elapsed_seconds == pytest.approx(
            sum(r.stats.elapsed_seconds for r in runs.values())
        )


class TestSelectionFloorAblation:
    def test_report_and_equivalence(self, catalog, major_goal, start_term):
        results = {}
        for enforce in (True, False):
            config = ExplorationConfig(enforce_min_selection=enforce)
            results[enforce] = frontier_count_goal_paths(
                catalog, start_term, major_goal, EVALUATION_END_TERM, config=config
            )
        report_rows(
            "Ablation — strategic selection floor (enforce_min_selection)",
            ("floor", "runtime", "goal paths", "total states"),
            [
                (
                    "on (default)" if enforce else "off",
                    f"{result.elapsed_seconds:.2f}s",
                    f"{result.path_count:,}",
                    f"{result.total_states:,}",
                )
                for enforce, result in results.items()
            ],
        )
        assert results[True].path_count == results[False].path_count
        assert results[True].total_states <= results[False].total_states


def _degree_flow_network(seed: int):
    """A requirement network like DegreeGoal builds (7-core + 5-elective
    shape) with a random completed subset."""
    rng = random.Random(seed)
    core = [f"core{i}" for i in range(7)]
    electives = [f"elec{i}" for i in range(30)]
    completed = rng.sample(core, rng.randint(0, 7)) + rng.sample(
        electives, rng.randint(0, 12)
    )
    network = FlowNetwork()
    network.add_node("src")
    network.add_node("snk")
    network.add_edge("g_core", "snk", 7)
    network.add_edge("g_elec", "snk", 5)
    for course in completed:
        network.add_edge("src", course, 1)
        network.add_edge(course, "g_core" if course.startswith("core") else "g_elec", 1)
    return network


class TestFlowSolverAblation:
    def test_solvers_agree(self):
        for seed in range(50):
            network = _degree_flow_network(seed)
            assert network.max_flow("src", "snk", method="dinic") == network.max_flow(
                "src", "snk", method="edmonds_karp"
            )

    @pytest.mark.benchmark(group="ablation-flow")
    @pytest.mark.parametrize("method", ["dinic", "edmonds_karp"])
    def test_bench_flow_solver(self, benchmark, method):
        networks = [_degree_flow_network(seed) for seed in range(20)]

        def run():
            return sum(n.max_flow("src", "snk", method=method) for n in networks)

        total = benchmark(run)
        assert total >= 0


@pytest.mark.benchmark(group="ablation-representation")
@pytest.mark.parametrize("representation", ["tree", "frontier"])
def test_bench_representation(
    benchmark, catalog, major_goal, paper_config, start_term, representation
):
    def run():
        if representation == "tree":
            return generate_goal_driven(
                catalog, start_term, major_goal, EVALUATION_END_TERM, config=paper_config
            ).path_count
        return frontier_count_goal_paths(
            catalog, start_term, major_goal, EVALUATION_END_TERM, config=paper_config
        ).path_count

    count = benchmark.pedantic(run, rounds=2, iterations=1)
    assert count > 0
