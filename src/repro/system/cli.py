"""Command-line front-end for CourseNavigator.

Installed as the ``coursenavigator`` console script.  Subcommands mirror
the exploration tasks:

.. code-block:: console

    coursenavigator catalog
    coursenavigator deadline --start "Fall 2014" --end "Fall 2015"
    coursenavigator goal --start "Fall 2012" --end "Fall 2015" --count-only
    coursenavigator ranked --start "Fall 2013" --end "Fall 2015" -k 5 \\
        --ranking workload
    coursenavigator explain --start "Fall 2013" --end "Fall 2015" \\
        --why "COSI 118a" --out audit.jsonl
    coursenavigator transcripts --semesters 6 --students 20

By default commands run against the built-in Brandeis-style evaluation
catalog; pass ``--catalog FILE.json`` (a file produced by
:func:`repro.parsing.save_catalog`) to explore your own.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from ..analysis import summarize_paths
from ..core import ExplorationConfig
from ..data import (
    brandeis_catalog,
    brandeis_major_goal,
    brandeis_offering_model,
    simulate_transcripts,
    start_term_for_semesters,
)
from ..data.brandeis import EVALUATION_END_TERM, course_rows
from ..errors import BudgetExceededError, CatalogError, CourseNavigatorError, GoalError
from ..obs import (
    DecisionRecorder,
    JsonlSink,
    MetricsRegistry,
    MetricsServer,
    ProgressPrinter,
    ProgressTracker,
    Tracer,
)
from ..parsing import load_catalog
from ..requirements import CourseSetGoal, Goal
from ..semester import Term
from .navigator import CourseNavigator
from .visualizer import render_path_table, render_ranked

__all__ = ["main", "build_parser"]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--catalog", metavar="FILE", help="catalog JSON (default: built-in Brandeis dataset)"
    )
    parser.add_argument("--start", required=True, help="start term, e.g. 'Fall 2013'")
    parser.add_argument("--end", required=True, help="end term, e.g. 'Fall 2015'")
    parser.add_argument(
        "--completed", nargs="*", default=[], metavar="COURSE", help="already-completed courses"
    )
    parser.add_argument(
        "-m",
        "--max-per-term",
        type=int,
        default=3,
        help="max courses per semester (paper default: 3)",
    )
    parser.add_argument(
        "--avoid", nargs="*", default=[], metavar="COURSE", help="courses to avoid"
    )
    parser.add_argument(
        "--max-nodes", type=int, default=None, help="abort after this many graph nodes"
    )
    parser.add_argument(
        "--limit", type=int, default=20, help="max paths to print (default 20)"
    )
    parser.add_argument(
        "--trace",
        metavar="FILE.jsonl",
        default=None,
        help="write a JSONL span trace of the exploration run to FILE",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write engine metrics to FILE (.json for a JSON snapshot, "
        "anything else for Prometheus text exposition)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print a live progress line (nodes, frontier, ETA) to stderr",
    )
    parser.add_argument(
        "--serve-metrics",
        type=int,
        default=None,
        metavar="PORT",
        help="serve Prometheus text at /metrics and live progress JSON at "
        "/progress on 127.0.0.1:PORT for the run's duration (0 picks an "
        "ephemeral port; the resolved address is printed to stderr)",
    )
    parser.add_argument(
        "--wall-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="abort the run after this much wall-clock time",
    )
    parser.add_argument(
        "--memory-budget-mb",
        type=float,
        default=None,
        metavar="MB",
        help="abort the run when process memory exceeds this many MiB",
    )


def _add_explain_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--explain",
        metavar="FILE.jsonl",
        default=None,
        help="record every expansion/prune/terminal decision to FILE "
        "(one JSON event per line; inspect with 'coursenavigator explain')",
    )


def _add_goal_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--goal-courses",
        nargs="*",
        default=None,
        metavar="COURSE",
        help="goal = complete these courses (default: the built-in CS major)",
    )
    parser.add_argument(
        "--goal-file",
        metavar="FILE",
        default=None,
        help="goal = the JSON goal description in FILE "
        "(see repro.requirements.goals.goal_from_dict)",
    )
    parser.add_argument(
        "--electives-required",
        type=int,
        default=5,
        help="electives required by the built-in major goal (default 5)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for docs and tests)."""
    parser = argparse.ArgumentParser(
        prog="coursenavigator",
        description="Interactive learning path exploration (CourseNavigator reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    catalog_cmd = sub.add_parser("catalog", help="list the catalog's courses")
    catalog_cmd.add_argument("--catalog", metavar="FILE")

    deadline_cmd = sub.add_parser(
        "deadline", help="all learning paths until an end semester (Algorithm 1)"
    )
    _add_common(deadline_cmd)
    deadline_cmd.add_argument(
        "--count-only",
        action="store_true",
        help="report the exact path count via the frontier DP (no enumeration)",
    )

    goal_cmd = sub.add_parser(
        "goal", help="learning paths that meet a goal by the end semester"
    )
    _add_common(goal_cmd)
    _add_goal_options(goal_cmd)
    goal_cmd.add_argument("--no-prune", action="store_true", help="disable pruning (baseline)")
    goal_cmd.add_argument(
        "--count-only",
        action="store_true",
        help="report the exact goal-path count via the frontier DP (no enumeration)",
    )
    _add_explain_option(goal_cmd)

    ranked_cmd = sub.add_parser("ranked", help="top-k goal paths under a ranking")
    _add_common(ranked_cmd)
    _add_goal_options(ranked_cmd)
    ranked_cmd.add_argument("-k", type=int, default=5, help="how many paths (default 5)")
    ranked_cmd.add_argument(
        "--ranking",
        choices=("time", "workload", "reliability"),
        default="time",
        help="ranking function (default time)",
    )
    _add_explain_option(ranked_cmd)

    explain_cmd = sub.add_parser(
        "explain",
        help="run a goal exploration with decision auditing and report why "
        "each subtree was cut (firing strategy + bound values)",
    )
    _add_common(explain_cmd)
    _add_goal_options(explain_cmd)
    explain_cmd.add_argument(
        "--no-prune", action="store_true", help="disable pruning (baseline audit)"
    )
    explain_cmd.add_argument(
        "--out",
        metavar="FILE.jsonl",
        default=None,
        help="also save the decision events to FILE (one JSON event per line)",
    )
    explain_cmd.add_argument(
        "--json", action="store_true", help="print the report as JSON instead of text"
    )
    explain_cmd.add_argument(
        "--why",
        metavar="COURSE",
        default=None,
        help="answer 'why was COURSE never part of a returned path?'",
    )
    explain_cmd.add_argument(
        "--max-pruned",
        type=int,
        default=8,
        help="pruned decisions to detail in the report (default 8)",
    )

    transcripts_cmd = sub.add_parser(
        "transcripts", help="simulate transcripts and check containment (§5.2)"
    )
    transcripts_cmd.add_argument("--semesters", type=int, default=6)
    transcripts_cmd.add_argument("--students", type=int, default=83)
    transcripts_cmd.add_argument("--seed", type=int, default=2016)
    transcripts_cmd.add_argument("-m", "--max-per-term", type=int, default=3)

    audit_cmd = sub.add_parser(
        "audit", help="degree-audit a set of completed courses against a goal"
    )
    audit_cmd.add_argument("--catalog", metavar="FILE")
    audit_cmd.add_argument(
        "--completed", nargs="*", default=[], metavar="COURSE",
        help="already-completed courses",
    )
    _add_goal_options(audit_cmd)

    export_cmd = sub.add_parser(
        "export", help="write a learning graph as DOT or JSON for the visualizer"
    )
    _add_common(export_cmd)
    _add_goal_options(export_cmd)
    export_cmd.add_argument(
        "--format", choices=("dot", "json"), default="dot", help="output format"
    )
    export_cmd.add_argument(
        "--output", required=True, metavar="FILE", help="file to write"
    )
    export_cmd.add_argument(
        "--max-graph-nodes", type=int, default=500,
        help="truncate DOT output beyond this many nodes (default 500)",
    )

    lint_cmd = sub.add_parser(
        "lint", help="sanity-check a catalog (reachability, dead courses, …)"
    )
    lint_cmd.add_argument("--catalog", metavar="FILE")
    lint_cmd.add_argument(
        "--errors-only", action="store_true", help="suppress warnings and infos"
    )

    return parser


def _load(args: argparse.Namespace) -> CourseNavigator:
    if getattr(args, "catalog", None):
        catalog, offering_model = load_catalog(args.catalog), None
    else:
        catalog, offering_model = brandeis_catalog(), brandeis_offering_model()
    return CourseNavigator(
        catalog,
        offering_model=offering_model,
        tracer=getattr(args, "_tracer", None),
        metrics=getattr(args, "_metrics", None),
        decisions=getattr(args, "_decisions", None),
        progress=getattr(args, "_progress", None),
    )


def _config(args: argparse.Namespace) -> ExplorationConfig:
    memory_mb = args.memory_budget_mb
    return ExplorationConfig(
        max_courses_per_term=args.max_per_term,
        avoid_courses=frozenset(args.avoid),
        max_nodes=args.max_nodes,
        max_wall_seconds=args.wall_budget,
        # NaN and inf pass through unconverted (the config rejects NaN).
        max_memory_bytes=(
            int(memory_mb * 1024 * 1024)
            if memory_mb is not None and math.isfinite(memory_mb)
            else memory_mb
        ),
    )


def _goal(args: argparse.Namespace) -> Goal:
    if getattr(args, "goal_file", None):
        import json

        from ..requirements.goals import goal_from_dict

        path = args.goal_file
        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except ValueError as exc:
                raise GoalError(f"{path}: invalid JSON: {exc}") from None
        try:
            return goal_from_dict(data)
        except (GoalError, CatalogError) as exc:
            raise GoalError(f"{path}: {exc}") from None
    if args.goal_courses:
        return CourseSetGoal(args.goal_courses)
    return brandeis_major_goal(args.electives_required)


def _run_catalog(args: argparse.Namespace, out) -> int:
    if getattr(args, "catalog", None):
        catalog = load_catalog(args.catalog)
        for course_id in sorted(catalog):
            course = catalog[course_id]
            offered = ", ".join(str(t) for t in sorted(catalog.schedule.offerings(course_id)))
            print(
                f"{course.course_id:12} {course.title:45} "
                f"prereq: {course.prereq.to_string():30} offered: {offered}",
                file=out,
            )
        return 0
    for row in course_rows():
        print(
            f"{row['course_id']:12} {row['title']:45} "
            f"[{row['tag']:8}] prereq: {row['prerequisites']:40} ({row['pattern']})",
            file=out,
        )
    return 0


def _run_deadline(args: argparse.Namespace, out) -> int:
    navigator = _load(args)
    start, end = Term.parse(args.start), Term.parse(args.end)
    config = args._config
    completed = frozenset(args.completed)
    if args.count_only:
        count = navigator.count_deadline(start, end, completed=completed, config=config)
        print(f"{count} deadline-driven paths from {start} to {end}", file=out)
        return 0
    result = navigator.explore_deadline(start, end, completed=completed, config=config)
    # Rendered first, so a bad --limit is the command's only output.
    table = render_path_table(result.paths(), navigator.catalog, limit=args.limit)
    print(
        f"{result.path_count} paths, {result.graph.num_nodes} nodes "
        f"({result.stats.elapsed_seconds:.3f}s)",
        file=out,
    )
    print(table, file=out)
    return 0


def _run_goal(args: argparse.Namespace, out) -> int:
    navigator = _load(args)
    start, end = Term.parse(args.start), Term.parse(args.end)
    config = args._config
    completed = frozenset(args.completed)
    goal = _goal(args)
    if args.count_only:
        count = navigator.count_goal(start, goal, end, completed=completed, config=config)
        print(f"{count} goal paths ({goal.describe()}) from {start} to {end}", file=out)
        return 0
    pruners = [] if args.no_prune else None
    result = navigator.explore_goal(
        start, goal, end, completed=completed, config=config, pruners=pruners
    )
    table = render_path_table(result.paths(), navigator.catalog, limit=args.limit)
    print(
        f"{result.path_count} goal paths, {result.graph.num_nodes} nodes, "
        f"{result.pruning_stats.total} subtrees pruned "
        f"({result.stats.elapsed_seconds:.3f}s)",
        file=out,
    )
    summary = summarize_paths(result.paths(), navigator.catalog)
    if summary.count:
        print(
            f"lengths {summary.min_length}-{summary.max_length} semesters; "
            f"most common courses: "
            + ", ".join(f"{c} ({n})" for c, n in summary.most_common_courses(5)),
            file=out,
        )
    print(table, file=out)
    return 0


def _run_ranked(args: argparse.Namespace, out) -> int:
    navigator = _load(args)
    start, end = Term.parse(args.start), Term.parse(args.end)
    result = navigator.explore_ranked(
        start,
        _goal(args),
        end,
        k=args.k,
        ranking=args.ranking,
        completed=frozenset(args.completed),
        config=args._config,
    )
    print(
        f"top-{args.k} by {args.ranking}: {len(result.paths)} paths "
        f"({result.stats.elapsed_seconds:.3f}s)",
        file=out,
    )
    model = navigator.offering_model if args.ranking == "reliability" else None
    print(render_ranked(result, navigator.catalog, offering_model=model), file=out)
    return 0


def _run_explain(args: argparse.Namespace, out) -> int:
    from ..obs import ExplainReport
    from .report import build_explain_report, explain_report_dict

    recorder = DecisionRecorder(
        sinks=[JsonlSink(args.out)] if args.out else [], keep_events=True
    )
    args._decisions = recorder
    navigator = _load(args)
    start, end = Term.parse(args.start), Term.parse(args.end)
    goal = _goal(args)
    result = navigator.explore_goal(
        start,
        goal,
        end,
        completed=frozenset(args.completed),
        config=args._config,
        pruners=[] if args.no_prune else None,
    )
    recorder.close()
    args._decisions = None  # already closed; keep _dispatch()'s finally from re-closing
    report = ExplainReport(recorder.events)
    if args.json:
        import json

        print(
            json.dumps(
                explain_report_dict(
                    report,
                    goal=goal,
                    start_term=start,
                    end_term=end,
                    max_pruned=args.max_pruned,
                    why=args.why,
                ),
                indent=2,
                sort_keys=True,
            ),
            file=out,
        )
    else:
        print(
            build_explain_report(
                report,
                goal=goal,
                start_term=start,
                end_term=end,
                max_pruned=args.max_pruned,
                why=args.why,
            ),
            file=out,
            end="",
        )
    print(
        f"{result.path_count} goal paths, {result.graph.num_nodes} nodes, "
        f"{result.pruning_stats.total} subtrees pruned; "
        f"{len(recorder)} decisions audited",
        file=sys.stderr,
    )
    if args.out:
        print(f"decision audit written to {args.out}", file=sys.stderr)
    return 0


def _run_transcripts(args: argparse.Namespace, out) -> int:
    navigator = CourseNavigator(brandeis_catalog())
    goal = brandeis_major_goal()
    start = start_term_for_semesters(args.semesters)
    end = EVALUATION_END_TERM
    config = ExplorationConfig(max_courses_per_term=args.max_per_term)
    body = simulate_transcripts(
        navigator.catalog,
        goal,
        start,
        end,
        count=args.students,
        seed=args.seed,
        config=config,
    )
    report = navigator.check_transcripts(body.paths, goal, end, config=config)
    print(
        f"simulated {body.attempts} students, {body.successes} graduated "
        f"({body.success_rate:.0%}); containment: {report.summary()}",
        file=out,
    )
    for index, reason in report.failures:
        print(f"  path {index}: {reason}", file=out)
    return 0 if report.all_contained else 1


def _run_audit(args: argparse.Namespace, out) -> int:
    navigator = _load(args)
    goal = _goal(args)
    completed = frozenset(args.completed)
    unknown = completed - navigator.catalog.course_ids()
    if unknown:
        print(f"error: unknown courses {sorted(unknown)}", file=sys.stderr)
        return 2
    from ..requirements import progress_report

    report = progress_report(goal, completed)
    print(report.describe(), file=out)
    return 0 if report.satisfied else 1


def _run_export(args: argparse.Namespace, out) -> int:
    from ..graph.export import write_dot, write_json

    navigator = _load(args)
    start, end = Term.parse(args.start), Term.parse(args.end)
    result = navigator.explore_goal(
        start, _goal(args), end,
        completed=frozenset(args.completed),
        config=args._config,
    )
    if args.format == "dot":
        write_dot(result.graph, args.output, max_nodes=args.max_graph_nodes)
    else:
        write_json(result.graph, args.output)
    print(
        f"wrote {args.format} for {result.graph.num_nodes} nodes "
        f"({result.path_count} goal paths) to {args.output}",
        file=out,
    )
    return 0


def _run_lint(args: argparse.Namespace, out) -> int:
    from ..catalog import lint_catalog

    navigator = _load(args)
    issues = lint_catalog(navigator.catalog)
    if args.errors_only:
        issues = [issue for issue in issues if issue.severity == "error"]
    for issue in issues:
        print(issue, file=out)
    errors = sum(1 for issue in issues if issue.severity == "error")
    print(
        f"{len(issues)} finding(s), {errors} error(s) in "
        f"{len(navigator.catalog)} courses",
        file=out,
    )
    return 1 if errors else 0


def _write_metrics(metrics: MetricsRegistry, path: str) -> None:
    if path.endswith(".json"):
        import json

        content = json.dumps(metrics.snapshot(), indent=2, sort_keys=True) + "\n"
    else:
        content = metrics.render_prometheus()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except OSError as exc:
        # A missing input (--catalog, --goal-file) or an unwritable output
        # (--trace, --explain, --metrics-out, --output) is a usage error,
        # not a crash: one line naming the path, no traceback.
        if exc.filename is None:
            print(f"error: {exc}", file=sys.stderr)
        else:
            print(f"error: {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    """Run one parsed command with its observability plumbing."""
    handlers = {
        "catalog": _run_catalog,
        "deadline": _run_deadline,
        "goal": _run_goal,
        "ranked": _run_ranked,
        "explain": _run_explain,
        "transcripts": _run_transcripts,
        "audit": _run_audit,
        "export": _run_export,
        "lint": _run_lint,
    }
    # Output sinks are opened inside the try below, so one that fails to
    # open still lets the finally close the others.
    args._tracer = None
    args._decisions = None
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics_out", None)
    explain_path = getattr(args, "explain", None)
    serve_port = getattr(args, "serve_metrics", None)
    args._metrics = (
        MetricsRegistry() if (metrics_path or serve_port is not None) else None
    )
    args._progress = None
    server: Optional[MetricsServer] = None
    printer: Optional[ProgressPrinter] = None
    try:
        # Built inside the try, before any output, so a bad limit is one
        # error line, exit 2.
        if hasattr(args, "wall_budget"):
            args._config = _config(args)
        # The tracker backs the TTY line, the /progress endpoint, and the
        # partial snapshot attached to wall/memory aborts — any of those wants it.
        if (
            getattr(args, "progress", False)
            or serve_port is not None
            or getattr(args, "wall_budget", None) is not None
            or getattr(args, "memory_budget_mb", None) is not None
        ):
            args._progress = ProgressTracker()
        if trace_path:
            args._tracer = Tracer(sinks=[JsonlSink(trace_path)])
        if explain_path:
            args._decisions = DecisionRecorder(sinks=[JsonlSink(explain_path)])
        if serve_port is not None:
            server = MetricsServer(
                registry=args._metrics,
                progress=args._progress,
                port=serve_port,
            ).start()
            # Printed before the run starts so watchers (and the CI smoke)
            # can discover an ephemeral port while the run is still going.
            print(f"serving live telemetry on {server.url}", file=sys.stderr)
        if getattr(args, "progress", False) and args._progress is not None:
            printer = ProgressPrinter(args._progress, stream=sys.stderr).start()
        return handlers[args.command](args, sys.stdout)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.progress is not None:
            print(f"partial progress: {exc.progress.render_line()}", file=sys.stderr)
        return 3
    except CourseNavigatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if printer is not None:
            printer.close()
        if server is not None:
            server.close()
        if args._tracer is not None:
            args._tracer.close()
            print(f"trace written to {trace_path}", file=sys.stderr)
        if args._decisions is not None:
            args._decisions.close()
            if explain_path:
                print(f"decision audit written to {explain_path}", file=sys.stderr)
        # Last, because a --metrics-out path that cannot be written raises
        # out of this block (main reports it) and must not skip the closes.
        if args._metrics is not None:
            if args._progress is not None:
                args._progress.publish_gauges(args._metrics)
            if metrics_path:
                _write_metrics(args._metrics, metrics_path)
                print(f"metrics written to {metrics_path}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
