"""Tests for the command-line front-end."""

import pytest

from repro.parsing import save_catalog
from repro.system.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCatalogCommand:
    def test_lists_builtin_courses(self, capsys):
        code, out, _err = run_cli(capsys, "catalog")
        assert code == 0
        assert "COSI 11a" in out
        assert out.count("COSI") >= 38

    def test_lists_custom_catalog(self, capsys, tmp_path, fig3_catalog):
        path = tmp_path / "cat.json"
        save_catalog(fig3_catalog, path)
        code, out, _err = run_cli(capsys, "catalog", "--catalog", str(path))
        assert code == 0
        assert "21A" in out
        assert "11A" in out


class TestDeadlineCommand:
    def test_enumeration(self, capsys, tmp_path, fig3_catalog):
        path = tmp_path / "cat.json"
        save_catalog(fig3_catalog, path)
        code, out, _err = run_cli(
            capsys,
            "deadline",
            "--catalog", str(path),
            "--start", "Fall 2011",
            "--end", "Spring 2013",
        )
        assert code == 0
        assert "3 paths" in out

    def test_count_only(self, capsys, tmp_path, fig3_catalog):
        path = tmp_path / "cat.json"
        save_catalog(fig3_catalog, path)
        code, out, _err = run_cli(
            capsys,
            "deadline",
            "--catalog", str(path),
            "--start", "Fall 2011",
            "--end", "Spring 2013",
            "--count-only",
        )
        assert code == 0
        assert out.startswith("3 deadline-driven paths")

    def test_bad_term_reports_error(self, capsys, tmp_path, fig3_catalog):
        path = tmp_path / "cat.json"
        save_catalog(fig3_catalog, path)
        code, _out, err = run_cli(
            capsys,
            "deadline",
            "--catalog", str(path),
            "--start", "Someday",
            "--end", "Spring 2013",
        )
        assert code == 2
        assert "error:" in err

    def test_negative_limit_is_one_error_line(self, capsys, tmp_path, fig3_catalog):
        path = tmp_path / "cat.json"
        save_catalog(fig3_catalog, path)
        code, out, err = run_cli(
            capsys,
            "deadline",
            "--catalog", str(path),
            "--start", "Fall 2011",
            "--end", "Spring 2013",
            "--limit", "-1",
        )
        assert code == 2
        assert out == ""
        assert err == "error: path table limit must be >= 0, got -1\n"


class TestGoalCommand:
    def test_goal_courses(self, capsys, tmp_path, fig3_catalog):
        path = tmp_path / "cat.json"
        save_catalog(fig3_catalog, path)
        code, out, _err = run_cli(
            capsys,
            "goal",
            "--catalog", str(path),
            "--start", "Fall 2011",
            "--end", "Fall 2012",
            "--goal-courses", "11A", "29A", "21A",
        )
        assert code == 0
        assert "1 goal paths" in out
        assert "pruned" in out

    def test_no_prune_flag(self, capsys, tmp_path, fig3_catalog):
        path = tmp_path / "cat.json"
        save_catalog(fig3_catalog, path)
        code, out, _err = run_cli(
            capsys,
            "goal",
            "--catalog", str(path),
            "--start", "Fall 2011",
            "--end", "Fall 2012",
            "--goal-courses", "11A", "29A", "21A",
            "--no-prune",
        )
        assert code == 0
        assert "0 subtrees pruned" in out

    def test_count_only_builtin_major(self, capsys):
        code, out, _err = run_cli(
            capsys,
            "goal",
            "--start", "Fall 2013",
            "--end", "Fall 2015",
            "--count-only",
        )
        assert code == 0
        assert "905 goal paths" in out

    def test_tree_max_nodes_reports_the_refused_node(self, capsys):
        # The tree stops before its 101st node, like the frontier and ranked
        # engines, and reports that node.
        code, out, err = run_cli(
            capsys,
            "goal",
            "--start", "Fall 2013",
            "--end", "Fall 2015",
            "--max-nodes", "100",
        )
        assert code == 3
        assert out == ""
        assert err.splitlines() == [
            "error: exploration budget exceeded: nodes limit 100 reached (observed 101)"
        ]

    def test_count_only_max_nodes(self, capsys):
        # Table 1 at 4 semesters visits 4,716 distinct statuses.
        code, out, err = run_cli(
            capsys,
            "goal",
            "--start", "Fall 2013",
            "--end", "Fall 2015",
            "--count-only",
            "--max-nodes", "100",
        )
        assert code == 3
        assert out == ""
        assert err.splitlines() == [
            "error: exploration budget exceeded: nodes limit 100 reached (observed 101)"
        ]


class TestRankedCommand:
    def test_top_k(self, capsys, tmp_path, fig3_catalog):
        path = tmp_path / "cat.json"
        save_catalog(fig3_catalog, path)
        code, out, _err = run_cli(
            capsys,
            "ranked",
            "--catalog", str(path),
            "--start", "Fall 2011",
            "--end", "Spring 2013",
            "--goal-courses", "11A", "29A", "21A",
            "-k", "2",
        )
        assert code == 0
        assert "[1] time cost" in out

    def test_workload_ranking(self, capsys, tmp_path, fig3_catalog):
        path = tmp_path / "cat.json"
        save_catalog(fig3_catalog, path)
        code, out, _err = run_cli(
            capsys,
            "ranked",
            "--catalog", str(path),
            "--start", "Fall 2011",
            "--end", "Spring 2013",
            "--goal-courses", "11A", "29A", "21A",
            "-k", "1",
            "--ranking", "workload",
        )
        assert code == 0
        assert "workload cost" in out


class TestTranscriptsCommand:
    def test_simulation_and_containment(self, capsys):
        # 5 semesters leaves enough slack that random students graduate.
        code, out, _err = run_cli(
            capsys, "transcripts", "--semesters", "5", "--students", "5"
        )
        assert code == 0
        assert "5/5 paths contained" in out

    @pytest.mark.parametrize(
        "flag, value",
        [("--semesters", "0"), ("--semesters", "-2"), ("--students", "-1")],
    )
    def test_bad_argument_is_one_error_line(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "transcripts", flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


class TestAuditCommand:
    def test_unsatisfied_audit_exits_one(self, capsys):
        code, out, _err = run_cli(
            capsys, "audit", "--completed", "COSI 11a", "COSI 29a"
        )
        assert code == 1
        assert "10 courses to go" in out
        assert "core: 2/7" in out

    def test_satisfied_audit_exits_zero(self, capsys, tmp_path, fig3_catalog):
        path = tmp_path / "cat.json"
        save_catalog(fig3_catalog, path)
        code, out, _err = run_cli(
            capsys,
            "audit",
            "--catalog", str(path),
            "--goal-courses", "11A",
            "--completed", "11A",
        )
        assert code == 0
        assert "SATISFIED" in out

    def test_unknown_completed_course(self, capsys):
        code, _out, err = run_cli(capsys, "audit", "--completed", "BOGUS 1")
        assert code == 2
        assert "unknown courses" in err


class TestGoalFile:
    def test_goal_from_json_file(self, capsys, tmp_path, fig3_catalog):
        import json

        catalog_path = tmp_path / "cat.json"
        save_catalog(fig3_catalog, catalog_path)
        goal_path = tmp_path / "goal.json"
        goal_path.write_text(
            json.dumps({"type": "course_set", "courses": ["11A", "29A", "21A"]})
        )
        code, out, _err = run_cli(
            capsys,
            "goal",
            "--catalog", str(catalog_path),
            "--start", "Fall 2011",
            "--end", "Fall 2012",
            "--goal-file", str(goal_path),
        )
        assert code == 0
        assert "1 goal paths" in out

    def test_degree_goal_file_audit(self, capsys, tmp_path):
        import json

        goal_path = tmp_path / "goal.json"
        goal_path.write_text(
            json.dumps(
                {
                    "type": "degree",
                    "name": "mini",
                    "groups": [
                        {"name": "core", "courses": ["COSI 11a"], "required": 1}
                    ],
                }
            )
        )
        code, out, _err = run_cli(
            capsys, "audit", "--goal-file", str(goal_path), "--completed", "COSI 11a"
        )
        assert code == 0
        assert "SATISFIED" in out


class TestExportCommand:
    def test_dot_export(self, capsys, tmp_path, fig3_catalog):
        catalog_path = tmp_path / "cat.json"
        save_catalog(fig3_catalog, catalog_path)
        output = tmp_path / "graph.dot"
        code, out, _err = run_cli(
            capsys,
            "export",
            "--catalog", str(catalog_path),
            "--start", "Fall 2011",
            "--end", "Fall 2012",
            "--goal-courses", "11A", "29A", "21A",
            "--output", str(output),
        )
        assert code == 0
        assert "wrote dot" in out
        assert output.read_text().startswith("digraph")

    def test_json_export(self, capsys, tmp_path, fig3_catalog):
        import json

        catalog_path = tmp_path / "cat.json"
        save_catalog(fig3_catalog, catalog_path)
        output = tmp_path / "graph.json"
        code, _out, _err = run_cli(
            capsys,
            "export",
            "--catalog", str(catalog_path),
            "--start", "Fall 2011",
            "--end", "Fall 2012",
            "--goal-courses", "11A", "29A", "21A",
            "--format", "json",
            "--output", str(output),
        )
        assert code == 0
        with open(output) as handle:
            data = json.load(handle)
        assert data["kind"] == "tree"

    def test_negative_max_graph_nodes_is_one_error_line(
        self, capsys, tmp_path, fig3_catalog
    ):
        catalog_path = tmp_path / "cat.json"
        save_catalog(fig3_catalog, catalog_path)
        output = tmp_path / "graph.dot"
        code, out, err = run_cli(
            capsys,
            "export",
            "--catalog", str(catalog_path),
            "--start", "Fall 2011",
            "--end", "Fall 2012",
            "--goal-courses", "11A", "29A", "21A",
            "--output", str(output),
            "--max-graph-nodes", "-5",
        )
        assert code == 2
        assert out == ""
        assert err == "error: graph truncation max_nodes must be >= 0, got -5\n"
        assert not output.exists()


class TestObservabilityFlags:
    def test_trace_flag_writes_jsonl(self, capsys, tmp_path, fig3_catalog):
        import json

        catalog_path = tmp_path / "cat.json"
        save_catalog(fig3_catalog, catalog_path)
        trace_path = tmp_path / "trace.jsonl"
        code, _out, err = run_cli(
            capsys,
            "goal",
            "--catalog", str(catalog_path),
            "--start", "Fall 2011",
            "--end", "Fall 2012",
            "--goal-courses", "11A", "29A", "21A",
            "--trace", str(trace_path),
        )
        assert code == 0
        assert f"trace written to {trace_path}" in err
        records = [
            json.loads(line) for line in trace_path.read_text().splitlines()
        ]
        assert records
        names = {record["name"] for record in records}
        assert "run:goal_driven" in names
        assert "expand" in names
        assert "prune" in names
        # every record is a complete span
        for record in records:
            assert record["end"] >= record["start"]
            assert record["duration"] >= 0.0

    def test_metrics_flag_writes_prometheus_text(self, capsys, tmp_path, fig3_catalog):
        catalog_path = tmp_path / "cat.json"
        save_catalog(fig3_catalog, catalog_path)
        metrics_path = tmp_path / "metrics.prom"
        code, _out, err = run_cli(
            capsys,
            "goal",
            "--catalog", str(catalog_path),
            "--start", "Fall 2011",
            "--end", "Fall 2012",
            "--goal-courses", "11A", "29A", "21A",
            "--metrics-out", str(metrics_path),
        )
        assert code == 0
        assert f"metrics written to {metrics_path}" in err
        text = metrics_path.read_text()
        assert "# TYPE repro_nodes_created_total counter" in text
        assert "repro_phase_duration_seconds_bucket" in text
        assert 'repro_runs_total{kind="goal_driven"} 1' in text

    def test_metrics_flag_json_snapshot(self, capsys, tmp_path, fig3_catalog):
        import json

        catalog_path = tmp_path / "cat.json"
        save_catalog(fig3_catalog, catalog_path)
        metrics_path = tmp_path / "metrics.json"
        code, _out, _err = run_cli(
            capsys,
            "ranked",
            "--catalog", str(catalog_path),
            "--start", "Fall 2011",
            "--end", "Spring 2013",
            "--goal-courses", "11A", "29A", "21A",
            "-k", "1",
            "--metrics-out", str(metrics_path),
        )
        assert code == 0
        with open(metrics_path) as handle:
            snapshot = json.load(handle)
        names = {metric["name"] for metric in snapshot["metrics"]}
        assert "repro_nodes_created_total" in names
        assert "repro_phase_duration_seconds" in names

    def test_both_flags_together(self, capsys, tmp_path, fig3_catalog):
        catalog_path = tmp_path / "cat.json"
        save_catalog(fig3_catalog, catalog_path)
        trace_path = tmp_path / "t.jsonl"
        metrics_path = tmp_path / "m.prom"
        code, out, _err = run_cli(
            capsys,
            "deadline",
            "--catalog", str(catalog_path),
            "--start", "Fall 2011",
            "--end", "Spring 2013",
            "--trace", str(trace_path),
            "--metrics-out", str(metrics_path),
        )
        assert code == 0
        assert "3 paths" in out  # run output unchanged by instrumentation
        assert trace_path.read_text().strip()
        assert metrics_path.read_text().strip()


class TestIoErrors:
    @pytest.mark.parametrize(
        "command, flag",
        [
            ("goal", "--trace"),
            ("goal", "--explain"),
            ("goal", "--metrics-out"),
            ("export", "--output"),
            ("goal", "--catalog"),
            ("goal", "--goal-file"),
        ],
    )
    def test_bad_path_is_one_error_line(self, capsys, tmp_path, fig3_catalog, command, flag):
        catalog_path = tmp_path / "cat.json"
        save_catalog(fig3_catalog, catalog_path)
        bad = str(tmp_path / "missing-dir" / "file")
        argv = [
            command,
            "--catalog", str(catalog_path),
            "--start", "Fall 2011",
            "--end", "Fall 2012",
            "--goal-courses", "11A", "29A", "21A",
        ]
        if command == "export":
            argv += ["--output", str(tmp_path / "graph.dot")]
        if flag in argv:
            argv[argv.index(flag) + 1] = bad
        else:
            argv += [flag, bad]
        code, _out, err = run_cli(capsys, *argv)
        assert code == 1
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(f"error: {bad}: ")

    @pytest.mark.parametrize(
        "flag, content, reason",
        [
            ("--catalog", "{ not json", "invalid JSON"),
            ("--catalog", '{"courses": [{"title": "T"}]}', "lacks 'course_id'"),
            (
                "--catalog",
                '{"courses": [{"course_id": "A", "prereq": {"op": "course"}}]}',
                "course 'A': prerequisite {'op': 'course'} lacks 'id'",
            ),
            (
                "--catalog",
                '{"courses": [{"course_id": "A", "prereq": {"op": "xor"}}]}',
                "course 'A': unknown prerequisite op 'xor'",
            ),
            (
                "--catalog",
                '{"courses": [{"course_id": "A", "prereq": '
                '{"op": "kof", "k": -1, "children": []}}]}',
                "course 'A': prerequisite {'op': 'kof', 'k': -1, 'children': []}: "
                "k must be a non-negative int, got -1",
            ),
            (
                "--catalog",
                '{"courses": [{"course_id": "A"}], "schedule": {"A": ["Autumn 2012"]}}',
                "schedule entry 'A': unknown season 'Autumn'",
            ),
            (
                "--catalog",
                '{"courses": [{"course_id": "A", "workload_hours": "abc"}]}',
                "course 'A': workload_hours must be a finite number >= 0, got 'abc'",
            ),
            (
                "--catalog",
                '{"courses": [{"course_id": "A", "workload_hours": -1}]}',
                "course 'A': workload_hours must be a finite number >= 0, got -1",
            ),
            (
                "--catalog",
                '{"courses": [{"course_id": "A", "workload_hours": NaN}]}',
                "course 'A': workload_hours must be a finite number >= 0, got nan",
            ),
            (
                "--catalog",
                '{"courses": [{"course_id": "A", "workload_hours": Infinity}]}',
                "course 'A': workload_hours must be a finite number >= 0, got inf",
            ),
            (
                "--catalog",
                '{"courses": [{"course_id": "A", "credits": null}]}',
                "course 'A': credits must be a finite number >= 0, got None",
            ),
            (
                "--catalog",
                '{"courses": [{"course_id": 123}]}',
                "course 123: course_id must be a non-empty string, got 123",
            ),
            (
                "--catalog",
                '{"courses": [{"course_id": "A", "tags": 5}]}',
                "course 'A': tags must be a list of strings, got 5",
            ),
            ("--goal-file", "{ not json", "invalid JSON"),
            (
                "--goal-file",
                '{"type": "degree", "groups": [{"name": "core", "required": 1}]}',
                "requirement group {'name': 'core', 'required': 1} lacks 'courses'",
            ),
            ("--goal-file", "[1, 2]", "goal [1, 2] is not an object"),
            ("--goal-file", '{"type": "degree"}', "goal {'type': 'degree'} lacks 'groups'"),
            ("--goal-file", '{"type": "all_of"}', "goal {'type': 'all_of'} lacks 'goals'"),
            (
                "--goal-file",
                '{"type": "course_set"}',
                "goal {'type': 'course_set'} lacks 'courses'",
            ),
            (
                "--goal-file",
                '{"type": "expression"}',
                "goal {'type': 'expression'} lacks 'expression'",
            ),
            (
                "--goal-file",
                '{"type": "expression", "expression": {"op": "xor"}}',
                "unknown prerequisite op 'xor'",
            ),
        ],
        ids=[
            "catalog-json",
            "course-id",
            "course-op-id",
            "prereq-op",
            "kof-negative-k",
            "schedule-term",
            "workload-not-number",
            "workload-negative",
            "workload-nan",
            "workload-infinite",
            "credits-null",
            "course-id-not-string",
            "tags-not-list",
            "goal-json",
            "group-courses",
            "goal-not-object",
            "goal-groups",
            "goal-goals",
            "goal-courses",
            "goal-expression",
            "goal-expression-op",
        ],
    )
    def test_malformed_input_is_one_error_line(
        self, capsys, tmp_path, fig3_catalog, flag, content, reason
    ):
        catalog_path = tmp_path / "cat.json"
        save_catalog(fig3_catalog, catalog_path)
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        argv = [
            "goal",
            "--catalog", str(catalog_path),
            "--start", "Fall 2011",
            "--end", "Fall 2012",
        ]
        if flag in argv:
            argv[argv.index(flag) + 1] = str(bad)
        else:
            argv += [flag, str(bad)]
        code, _out, err = run_cli(capsys, *argv)
        assert code == 2
        [line] = err.splitlines()
        assert line.startswith(f"error: {bad}: ")
        assert reason in line


class TestLiveTelemetryFlags:
    def test_memory_budget_aborts_with_partial_progress(self, capsys):
        code, _out, err = run_cli(
            capsys,
            "goal",
            "--start", "Fall 2013",
            "--end", "Fall 2015",
            "--memory-budget-mb", "0",
        )
        assert code == 3
        assert "budget exceeded: memory bytes limit 0 reached" in err
        assert "partial progress:" in err
        assert "[goal_driven]" in err

    def test_wall_budget_aborts_exhaustive_deadline(self, capsys):
        code, _out, err = run_cli(
            capsys,
            "deadline",
            "--start", "Fall 2013",
            "--end", "Fall 2015",
            "--wall-budget", "0",
        )
        assert code == 3
        assert "wall seconds" in err
        assert "partial progress:" in err

    def test_progress_flag_prints_final_line(self, capsys, tmp_path, fig3_catalog):
        path = tmp_path / "cat.json"
        save_catalog(fig3_catalog, path)
        code, out, err = run_cli(
            capsys,
            "goal",
            "--catalog", str(path),
            "--start", "Fall 2011",
            "--end", "Fall 2012",
            "--goal-courses", "11A", "29A", "21A",
            "--progress",
        )
        assert code == 0
        assert "1 goal paths" in out
        # close() always writes one final line, however fast the run was.
        assert "[goal_driven]" in err
        assert "done" in err

    @pytest.mark.parametrize(
        "command, start, run",
        [
            ("goal", "Fall 2013", "frontier_goal"),
            ("deadline", "Spring 2014", "frontier_deadline"),
        ],
    )
    def test_count_only_runs_are_instrumented(self, capsys, tmp_path, command, start, run):
        metrics_path = tmp_path / "metrics.prom"
        code, out, err = run_cli(
            capsys,
            command,
            "--start", start,
            "--end", "Fall 2015",
            "--count-only",
            "--progress",
            "--metrics-out", str(metrics_path),
        )
        assert code == 0
        assert "paths" in out
        assert f"[{run}]" in err and "done" in err
        text = metrics_path.read_text()
        assert f'repro_runs_total{{kind="{run}"}} 1' in text
        assert "repro_nodes_created_total" in text
        assert 'repro_phase_duration_seconds_bucket{phase="expand"' in text

    def test_serve_metrics_announces_ephemeral_port(self, capsys, tmp_path, fig3_catalog):
        import re

        path = tmp_path / "cat.json"
        save_catalog(fig3_catalog, path)
        code, out, err = run_cli(
            capsys,
            "goal",
            "--catalog", str(path),
            "--start", "Fall 2011",
            "--end", "Fall 2012",
            "--goal-courses", "11A", "29A", "21A",
            "--serve-metrics", "0",
        )
        assert code == 0
        assert "1 goal paths" in out
        match = re.search(
            r"serving live telemetry on http://127\.0\.0\.1:(\d+)", err
        )
        assert match, err
        assert int(match.group(1)) > 0

    def test_serve_metrics_with_metrics_out(self, capsys, tmp_path, fig3_catalog):
        # --serve-metrics alone creates a registry; --metrics-out still
        # writes it (with the progress gauges folded in) at exit.
        path = tmp_path / "cat.json"
        save_catalog(fig3_catalog, path)
        metrics_path = tmp_path / "metrics.prom"
        code, _out, err = run_cli(
            capsys,
            "goal",
            "--catalog", str(path),
            "--start", "Fall 2011",
            "--end", "Fall 2012",
            "--goal-courses", "11A", "29A", "21A",
            "--serve-metrics", "0",
            "--metrics-out", str(metrics_path),
        )
        assert code == 0
        text = metrics_path.read_text()
        assert "repro_progress_nodes_seen" in text
        assert 'repro_runs_total{kind="goal_driven"} 1' in text


    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--wall-budget", "-5"),
            ("--wall-budget", "nan"),
            ("--memory-budget-mb", "-1"),
            ("--memory-budget-mb", "nan"),
            ("--limit", "-1"),
            ("--serve-metrics", "-1"),
            ("--serve-metrics", "70000"),
        ],
    )
    def test_bad_limit_is_one_error_line(self, capsys, tmp_path, fig3_catalog, flag, value):
        path = tmp_path / "cat.json"
        save_catalog(fig3_catalog, path)
        code, out, err = run_cli(
            capsys,
            "goal",
            "--catalog", str(path),
            "--start", "Fall 2011",
            "--end", "Fall 2012",
            "--goal-courses", "11A", "29A", "21A",
            flag, value,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_console_script_registered(self):
        # pyproject declares the entry point; the module must expose main().
        from repro.system import cli

        assert callable(cli.main)
