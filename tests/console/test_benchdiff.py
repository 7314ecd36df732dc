"""bench-diff: artifact loading, direction inference, regression flags."""

import json

import pytest

from repro.console import diff_artifacts, diff_files, format_diff, load_artifact
from repro.errors import DiagnosticsError


def bench(metrics):
    return {"bench": "x", "generated_at": "t", "metrics": metrics,
            "_artifact_kind": "bench"}


def scorecard(claims, wall=None):
    data = {
        "schema": "repro.scorecard/v1",
        "claims": claims,
        "counts": {"claims": len(claims)},
        "_artifact_kind": "scorecard",
    }
    if wall is not None:
        data["wall_time_seconds"] = wall
    return data


def claim(experiment, check, status):
    return {"experiment": experiment, "check": check, "status": status}


def run(experiment, payload):
    return {"experiment": experiment, "payload": payload}


class TestLoadArtifact:
    def test_classifies_bench_and_scorecard(self, tmp_path):
        bench_path = tmp_path / "BENCH_x.json"
        bench_path.write_text(json.dumps(
            {"bench": "x", "metrics": {}}
        ))
        card_path = tmp_path / "scorecard.json"
        card_path.write_text(json.dumps(
            {"claims": [], "counts": {}}
        ))
        assert load_artifact(str(bench_path))["_artifact_kind"] == "bench"
        assert load_artifact(str(card_path))["_artifact_kind"] == "scorecard"

    def test_rejects_unrecognized_shapes(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(DiagnosticsError):
            load_artifact(str(path))

    def test_rejects_unreadable_file(self):
        with pytest.raises(DiagnosticsError):
            load_artifact("/nonexistent/file.json")

    def test_kind_mismatch_raises(self):
        with pytest.raises(DiagnosticsError):
            diff_artifacts(bench({}), scorecard([]))


class TestBenchDiff:
    def test_throughput_drop_is_a_regression(self):
        diff = diff_artifacts(
            bench({"opt.ops_per_sec": {"type": "gauge", "value": 100.0}}),
            bench({"opt.ops_per_sec": {"type": "gauge", "value": 50.0}}),
        )
        assert not diff.ok
        assert diff.regressions[0].name == "opt.ops_per_sec"

    def test_throughput_gain_is_fine(self):
        diff = diff_artifacts(
            bench({"opt.ops_per_sec": {"type": "gauge", "value": 100.0}}),
            bench({"opt.ops_per_sec": {"type": "gauge", "value": 200.0}}),
        )
        assert diff.ok

    def test_timing_growth_is_a_regression(self):
        diff = diff_artifacts(
            bench({"s.step_seconds": {"type": "timer", "mean": 0.001}}),
            bench({"s.step_seconds": {"type": "timer", "mean": 0.002}}),
        )
        assert not diff.ok

    def test_within_threshold_passes(self):
        diff = diff_artifacts(
            bench({"s.step_seconds": {"type": "timer", "mean": 0.001}}),
            bench({"s.step_seconds": {"type": "timer", "mean": 0.0011}}),
            threshold=0.25,
        )
        assert diff.ok

    def test_ignore_timing_suppresses_time_regressions(self):
        diff = diff_artifacts(
            bench({"s.step_seconds": {"type": "timer", "mean": 0.001}}),
            bench({"s.step_seconds": {"type": "timer", "mean": 0.01}}),
            ignore_timing=True,
        )
        assert diff.ok
        # A rate derived from wall time (pytest-benchmark's 1/mean) is
        # timing too.
        diff = diff_artifacts(
            bench({"t.ops_per_sec": {"type": "gauge", "value": 10.0}}),
            bench({"t.ops_per_sec": {"type": "gauge", "value": 2.0}}),
            ignore_timing=True,
        )
        assert diff.ok

    def test_directionless_metrics_never_flag(self):
        diff = diff_artifacts(
            bench({"lla.utility": {"type": "gauge", "value": -80.0}}),
            bench({"lla.utility": {"type": "gauge", "value": -200.0}}),
        )
        assert diff.ok

    def test_missing_and_added_metrics_reported(self):
        diff = diff_artifacts(
            bench({"a": {"type": "gauge", "value": 1.0}}),
            bench({"b": {"type": "gauge", "value": 1.0}}),
        )
        assert diff.missing == ["a"]
        assert diff.added == ["b"]


class TestScorecardDiff:
    def test_pass_to_fail_is_a_regression(self):
        diff = diff_artifacts(
            scorecard([claim("fig5", "settles", "pass")]),
            scorecard([claim("fig5", "settles", "fail")]),
        )
        assert not diff.ok
        assert "pass -> fail" in diff.regressions[0].note

    def test_fail_to_pass_is_an_improvement(self):
        diff = diff_artifacts(
            scorecard([claim("fig5", "settles", "fail")]),
            scorecard([claim("fig5", "settles", "pass")]),
        )
        assert diff.ok
        assert len(diff.deltas) == 1  # reported, not flagged

    def test_wall_time_growth_flagged_unless_ignored(self):
        base = scorecard([claim("fig5", "settles", "pass")], wall=10.0)
        cur = scorecard([claim("fig5", "settles", "pass")], wall=20.0)
        assert not diff_artifacts(base, cur).ok
        assert diff_artifacts(base, cur, ignore_timing=True).ok

    def test_every_compared_claim_is_counted(self):
        claims = [claim("fig5", "settles", "pass"),
                  claim("fig5", "full_budget", "skipped")]
        diff = diff_artifacts(scorecard(claims), scorecard(claims),
                              ignore_timing=True)
        assert diff.ok
        assert len(diff.deltas) == 2
        assert format_diff(diff).startswith(
            "bench-diff: OK — no regressions across 2 compared values")

    def test_pass_to_skipped_is_a_regression(self):
        diff = diff_artifacts(
            scorecard([claim("fig5", "settles", "pass")]),
            scorecard([claim("fig5", "settles", "skipped")]),
            ignore_timing=True,
        )
        assert not diff.ok

    def test_changed_payloads_are_listed_never_flagged(self):
        base = scorecard([claim("fig5", "settles", "pass")])
        cur = scorecard([claim("fig5", "settles", "pass")])
        base["runs"] = [run("fig5", {"utility": [1.0, 2.0]}),
                        run("fig6", {"rounds": 3}),
                        run("gone", {})]
        cur["runs"] = [run("fig5", {"utility": [1.0, 2.5]}),
                       run("fig6", {"rounds": 3}),
                       run("new", {})]
        diff = diff_artifacts(base, cur, ignore_timing=True)
        assert diff.ok
        assert diff.changed == ["fig5"]
        assert diff.to_dict()["changed"] == ["fig5"]
        assert "payload differs from baseline: fig5" in format_diff(diff)
        cur["runs"][0] = run("fig5", {"utility": [1.0, 2.0]})
        assert diff_artifacts(base, cur).changed == []

    def test_status_flips_survive_ignore_timing(self):
        diff = diff_artifacts(
            scorecard([claim("fig5", "settles", "pass")], wall=10.0),
            scorecard([claim("fig5", "settles", "fail")], wall=10.0),
            ignore_timing=True,
        )
        assert not diff.ok


class TestFormatAndFiles:
    def test_format_leads_with_verdict(self):
        ok = diff_artifacts(bench({}), bench({}))
        assert format_diff(ok).startswith("bench-diff: OK")
        bad = diff_artifacts(
            bench({"x_seconds": {"type": "timer", "mean": 1.0}}),
            bench({"x_seconds": {"type": "timer", "mean": 9.0}}),
        )
        text = format_diff(bad)
        assert "REGRESSION" in text.splitlines()[0]
        assert "REGRESSED x_seconds" in text

    def test_diff_files_round_trip(self, tmp_path):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        base.write_text(json.dumps(
            {"bench": "x", "metrics":
             {"n.ops_per_sec": {"type": "gauge", "value": 10.0}}}
        ))
        cur.write_text(json.dumps(
            {"bench": "x", "metrics":
             {"n.ops_per_sec": {"type": "gauge", "value": 2.0}}}
        ))
        diff = diff_files(str(base), str(cur))
        assert not diff.ok
        payload = diff.to_dict()
        assert payload["ok"] is False
        assert payload["regressions"][0]["name"] == "n.ops_per_sec"
