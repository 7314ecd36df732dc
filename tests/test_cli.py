"""Tests for the command-line interface."""

import json

import pytest

from repro import harness
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_name_is_free_form(self):
        # Validation happens against the registry at dispatch time, not
        # in argparse: the parser accepts any name (and none at all).
        args = build_parser().parse_args(["experiment", "table1"])
        assert args.name == "table1"
        args = build_parser().parse_args(["experiment", "--list"])
        assert args.name is None and args.list_specs

    def test_unknown_experiment_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


def _toy_runner(x=1):
    return {"x": x}


def _toy_spec(name, passes=True):
    return harness.ExperimentSpec(
        name=name,
        description="synthetic spec for CLI tests",
        source="tests",
        runner=_toy_runner,
        params=(harness.Param("x", int, 1, "value"),),
        checks=(
            harness.Check(
                "holds", "x stays positive",
                (lambda r: (r["x"] > 0, {"x": float(r["x"])})) if passes
                else (lambda r: False),
            ),
        ),
        payload=lambda r: dict(r),
    )


class TestExperiment:
    def test_list_names_every_registered_spec(self, capsys):
        assert main(["experiment", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "fig5", "fig6", "fig7", "fig8",
                     "ablations", "adaptation", "interference",
                     "percentiles", "resilience"):
            assert name in out
        assert "registered experiments" in out

    def test_requires_exactly_one_mode(self):
        with pytest.raises(SystemExit):
            main(["experiment"])
        with pytest.raises(SystemExit):
            main(["experiment", "fig7", "--list"])

    def test_all_rejects_single_run_flags(self):
        with pytest.raises(SystemExit):
            main(["experiment", "--all", "--iterations", "10"])

    def test_malformed_set_exits(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig7", "--set", "iterations"])

    def test_backend_on_unsupported_spec_exits(self):
        # There is one LLA kernel: no experiment takes --backend.
        for name in ("fig5", "fig7"):
            with pytest.raises(SystemExit):
                main(["experiment", name, "--backend", "vectorized"])

    def test_single_run_writes_valid_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "fig7.json"
        code = main(["experiment", "fig7", "--iterations", "120",
                     "--seed", "7", "--set", "path_gamma_divisor=none",
                     "-o", str(artifact)])
        out = capsys.readouterr().out
        assert code == 0
        assert "fig7: PASS" in out
        assert "[PASS]" in out

        data = json.loads(artifact.read_text())
        assert harness.validate_run_result(data) == []
        run = harness.RunResult.from_dict(data)
        assert run.experiment == "fig7"
        assert run.params["iterations"] == 120
        assert run.params["path_gamma_divisor"] is None
        assert run.seed == 7          # recorded even without a seed param
        assert run.profile == "default"
        assert run.passed
        assert {c.name for c in run.checks} == {
            "does_not_converge", "constraints_violated",
            "violation_is_gross",
        }

    def test_failing_check_exits_nonzero(self, capsys):
        harness.register(_toy_spec("synthetic-always-fails", passes=False))
        try:
            code = main(["experiment", "synthetic-always-fails"])
        finally:
            harness.unregister("synthetic-always-fails")
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out

    def test_all_scorecard_shape(self, tmp_path, capsys, monkeypatch):
        import repro.harness.spec as spec_module
        monkeypatch.setattr(spec_module, "_REGISTRY", {})
        harness.register(_toy_spec("alpha"))
        harness.register(_toy_spec("beta"))

        card_path = tmp_path / "scorecard.json"
        code = main(["experiment", "--all", "-o", str(card_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "REPRODUCTION SCORECARD" in out
        assert "2/2 claims pass" in out

        card = json.loads(card_path.read_text())
        assert harness.validate_scorecard(card) == []
        assert card["passed"] is True
        assert card["counts"] == {
            "experiments": 2, "claims": 2, "passed": 2,
            "failed": 0, "skipped": 0,
        }
        assert [row["experiment"] for row in card["claims"]] == \
            ["alpha", "beta"]
        assert all(row["status"] == "pass" for row in card["claims"])
        assert len(card["runs"]) == 2

    def test_all_exits_nonzero_on_failed_claim(self, tmp_path,
                                               capsys, monkeypatch):
        import repro.harness.spec as spec_module
        monkeypatch.setattr(spec_module, "_REGISTRY", {})
        harness.register(_toy_spec("good"))
        harness.register(_toy_spec("bad", passes=False))

        card_path = tmp_path / "scorecard.json"
        code = main(["experiment", "--all", "-o", str(card_path)])
        capsys.readouterr()
        assert code == 1
        card = json.loads(card_path.read_text())
        assert harness.validate_scorecard(card) == []
        assert card["passed"] is False
        assert card["counts"]["failed"] == 1


class TestExportAndRoundTrip:
    def test_export_to_file(self, tmp_path, capsys):
        path = tmp_path / "wl.json"
        code = main(["export-workload", "base", "-o", str(path)])
        assert code == 0
        data = json.loads(path.read_text())
        assert len(data["tasks"]) == 3

    def test_export_to_stdout(self, capsys):
        code = main(["export-workload", "prototype"])
        assert code == 0
        out = capsys.readouterr().out
        data = json.loads(out)
        assert len(data["tasks"]) == 4


class TestOptimize:
    def test_optimize_schedulable(self, tmp_path, capsys):
        wl = tmp_path / "wl.json"
        main(["export-workload", "base", "-o", str(wl)])
        capsys.readouterr()
        alloc = tmp_path / "alloc.json"
        code = main(["optimize", str(wl), "--warm-start",
                     "-o", str(alloc)])
        assert code == 0
        out = capsys.readouterr().out
        assert "converged: True" in out
        payload = json.loads(alloc.read_text())
        assert set(payload) == {"latencies", "shares", "utility",
                                "converged"}
        assert len(payload["latencies"]) == 21

    def test_missing_file(self):
        with pytest.raises(SystemExit):
            main(["optimize", "/nonexistent/workload.json"])

    def test_backend_rejects_unknown(self):
        # --backend is no longer an option of optimize or serve.
        for argv in (["optimize", "wl.json"], ["serve", "--smoke"]):
            for backend in ("simd", "scalar", "vectorized"):
                with pytest.raises(SystemExit):
                    build_parser().parse_args([*argv, "--backend", backend])


class TestTraceCommands:
    @pytest.fixture
    def trace_file(self, tmp_path, capsys):
        wl = tmp_path / "wl.json"
        main(["export-workload", "base", "-o", str(wl)])
        trace = tmp_path / "run.jsonl"
        assert main(["optimize", str(wl), "--warm-start",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        return trace

    def test_optimize_writes_trace(self, trace_file):
        lines = trace_file.read_text().splitlines()
        assert len(lines) > 100
        first = json.loads(lines[0])
        assert first["kind"] == "run_started"

    def test_trace_summarizes(self, trace_file, capsys):
        assert main(["trace", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "iterations:" in out
        assert "final utility:" in out
        assert "converged cleanly:" in out

    def test_stats_counts_events(self, trace_file, capsys):
        assert main(["stats", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "iteration" in out
        assert "run_finished" in out

    def test_trace_missing_file(self):
        with pytest.raises(SystemExit):
            main(["trace", "/nonexistent/run.jsonl"])

    def test_trace_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        with pytest.raises(SystemExit):
            main(["trace", str(bad)])


class TestChaos:
    def test_quick_scenario_healthy(self, tmp_path, capsys):
        report = tmp_path / "chaos.json"
        code = main(["chaos", "--scenario", "crash-restart", "--quick",
                     "-o", str(report)])
        out = capsys.readouterr().out
        assert code == 0
        assert "healthy: True" in out
        payload = json.loads(report.read_text())
        assert payload["experiment"] == "resilience"
        assert payload["healthy"] is True
        (entry,) = payload["reports"]
        assert entry["recovered"] is True
        assert entry["degradation_safe"] is True
        assert "utility_trace" not in entry      # traces are opt-in

    def test_traces_flag_includes_trajectories(self, tmp_path, capsys):
        report = tmp_path / "chaos.json"
        code = main(["chaos", "--scenario", "blackout", "--quick",
                     "--traces", "-o", str(report)])
        assert code == 0
        capsys.readouterr()
        (entry,) = json.loads(report.read_text())["reports"]
        assert len(entry["utility_trace"]) == 500

    def test_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--scenario", "meteor"])


class TestCheck:
    def test_schedulable_exit_zero(self, tmp_path, capsys):
        wl = tmp_path / "wl.json"
        main(["export-workload", "base", "-o", str(wl)])
        assert main(["check", str(wl)]) == 0
        assert "SCHEDULABLE" in capsys.readouterr().out

    def test_unschedulable_exit_one(self, tmp_path, capsys):
        wl = tmp_path / "wl.json"
        main(["export-workload", "unschedulable", "-o", str(wl)])
        assert main(["check", str(wl), "--iterations", "400"]) == 1
        assert "UNSCHEDULABLE" in capsys.readouterr().out


class TestObservabilityCommands:
    @pytest.fixture
    def workload(self, tmp_path, capsys):
        wl = tmp_path / "wl.json"
        main(["export-workload", "base", "-o", str(wl)])
        capsys.readouterr()
        return wl

    @pytest.fixture
    def trace_file(self, workload, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(["optimize", str(workload), "--warm-start",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        return trace

    def test_trace_reports_dropped_samples(self, trace_file, capsys):
        assert main(["trace", str(trace_file)]) == 0
        assert "dropped samples:     0" in capsys.readouterr().out

    def test_stats_prometheus_exposition(self, trace_file, capsys):
        assert main(["stats", str(trace_file), "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE lla_iterations_total counter" in out
        assert "lla_iteration_seconds_count" in out

    def test_diagnose_healthy_trace_exits_zero(self, trace_file, workload,
                                               capsys):
        assert main(["diagnose", str(trace_file),
                     "--workload", str(workload)]) == 0
        out = capsys.readouterr().out
        assert "feasibility_margin" in out

    def test_diagnose_json_payload(self, trace_file, capsys):
        assert main(["diagnose", str(trace_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "findings" in payload and "critical_path" in payload
        assert all("severity" in f for f in payload["findings"])

    def test_diagnose_missing_trace_exits(self):
        with pytest.raises(SystemExit):
            main(["diagnose", "/nonexistent/run.jsonl"])

    def test_top_plain_renders_frames(self, workload, capsys):
        code = main(["top", str(workload), "--rounds", "20",
                     "--refresh", "10", "--plain"])
        out = capsys.readouterr().out
        assert "repro top — round 20" in out
        assert "utilization" in out
        assert "\x1b[2J" not in out
        assert code in (0, 1)  # feasibility decides the exit code

    def test_bench_diff_flags_regression(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        base.write_text(json.dumps(
            {"bench": "x", "metrics":
             {"n.ops_per_sec": {"type": "gauge", "value": 100.0}}}
        ))
        cur.write_text(json.dumps(
            {"bench": "x", "metrics":
             {"n.ops_per_sec": {"type": "gauge", "value": 10.0}}}
        ))
        report = tmp_path / "report.json"
        assert main(["bench-diff", str(base), str(cur),
                     "-o", str(report)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED n.ops_per_sec" in out
        assert json.loads(report.read_text())["ok"] is False

    def test_bench_diff_identical_artifacts_pass(self, tmp_path, capsys):
        art = tmp_path / "a.json"
        art.write_text(json.dumps(
            {"bench": "x", "metrics":
             {"n.ops_per_sec": {"type": "gauge", "value": 100.0}}}
        ))
        assert main(["bench-diff", str(art), str(art)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_bench_diff_bad_artifact_exits(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nope": 1}')
        with pytest.raises(SystemExit):
            main(["bench-diff", str(bad), str(bad)])


class TestServe:
    def test_smoke_deadline_times_out_with_exit_2(self, capsys):
        # A deadline far below any real solve forces the wait_for to
        # fire; the command must exit 2 (distinct from "unhealthy" = 1)
        # rather than hang CI.
        code = main(["serve", "--smoke", "--deadline", "0.01"])
        assert code == 2
        assert "deadline" in capsys.readouterr().err

    def test_traced_serve_ends_with_the_service_metrics(self, tmp_path,
                                                         capsys):
        """``repro stats --prometheus`` reads a served trace's metrics."""
        trace = str(tmp_path / "serve.jsonl")
        assert main(["serve", "--smoke", "--trace", trace]) == 0
        capsys.readouterr()
        assert main(["stats", trace, "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "service_queries_total 1000" in out
        assert "service_snapshot_ms_count 0" in out

    def test_harden_rejects_short_fault_schedules(self, capsys):
        code = main(["serve", "--smoke", "--harden", "--ticks", "50"])
        assert code == 2
        assert "105" in capsys.readouterr().err

    def test_parser_accepts_hardening_flags(self):
        args = build_parser().parse_args(
            ["serve", "--smoke", "--harden", "--ticks", "110",
             "--deadline", "300"])
        assert args.harden
        assert args.ticks == 110
        assert args.deadline == 300.0
