"""Unit tests for execute/run_all and the scorecard assembly, using
throwaway synthetic specs so no real experiment budget is spent."""

import json

import pytest

from repro.errors import HarnessError
from repro.harness import (
    Check,
    ExperimentSpec,
    Param,
    RunResult,
    execute,
    git_revision,
    register,
    render_scorecard,
    run_all,
    scorecard_dict,
    unregister,
    validate_run_result,
    validate_scorecard,
)
from repro.telemetry import Telemetry


def toy_runner(seed=0, iterations=10):
    return {"seed": seed, "iterations": iterations}


TOY = ExperimentSpec(
    name="toy-runner-spec",
    description="synthetic spec exercising the runner",
    source="tests",
    runner=toy_runner,
    params=(
        Param("seed", int, 0, "rng seed"),
        Param("iterations", int, 10, "budget"),
    ),
    checks=(
        Check("echoes_seed", "runner saw the resolved seed",
              lambda r: (True, {"seed": float(r["seed"])})),
        Check("full_budget_only", "only meaningful at full budget",
              lambda r: r["iterations"] >= 10, quick=False),
    ),
    payload=lambda r: dict(r),
    quick_params={"iterations": 2},
)


@pytest.fixture
def toy_spec():
    register(TOY)
    yield TOY
    unregister(TOY.name)


class TestExecute:
    def test_default_run(self, toy_spec):
        run = execute(toy_spec.name)
        assert run.passed
        assert run.experiment == toy_spec.name
        assert run.params == {"seed": 0, "iterations": 10}
        assert run.seed == 0
        assert run.profile == "default"
        assert run.payload["iterations"] == 10
        assert run.check("echoes_seed").measured == {"seed": 0.0}
        assert run.wall_time_seconds >= 0.0
        assert validate_run_result(run.to_dict()) == []

    def test_uniform_flags_forwarded(self, toy_spec):
        run = execute(toy_spec.name, seed=9, iterations=33)
        assert run.params == {"seed": 9, "iterations": 33}
        assert run.seed == 9
        assert run.payload == {"seed": 9, "iterations": 33}

    def test_overrides_are_coerced_strings(self, toy_spec):
        run = execute(toy_spec.name, {"iterations": "25"})
        assert run.params["iterations"] == 25

    def test_quick_profile_skips_full_budget_checks(self, toy_spec):
        run = execute(toy_spec.name, quick=True)
        assert run.profile == "quick"
        assert run.params["iterations"] == 2
        assert run.check("full_budget_only").status == "skipped"
        # The skipped claim (which would fail at 2 iterations) does not
        # drag the run down.
        assert run.passed
        assert run.counts == {"total": 2, "passed": 1, "failed": 0,
                              "skipped": 1}

    def test_unknown_experiment(self):
        with pytest.raises(HarnessError, match="unknown experiment"):
            execute("no-such-spec")

    def test_iterations_flag_requires_budget_param(self):
        spec = ExperimentSpec(name="no-knobs", description="d",
                              runner=lambda: 1)
        register(spec)
        try:
            with pytest.raises(HarnessError, match="iteration-budget"):
                execute("no-knobs", iterations=5)
            # --seed without a seed param is recorded, not an error.
            run = execute("no-knobs", seed=4)
            assert run.seed == 4 and "seed" not in run.params
        finally:
            unregister("no-knobs")

    def test_iterations_maps_to_max_iterations(self):
        def capped(max_iterations=100):
            return max_iterations

        spec = ExperimentSpec(
            name="capped", description="d", runner=capped,
            params=(Param("max_iterations", int, 100, "budget"),),
        )
        register(spec)
        try:
            run = execute("capped", iterations=7)
            assert run.params["max_iterations"] == 7
        finally:
            unregister("capped")

    def test_raising_check_becomes_failed_claim(self):
        def boom(result):
            raise ValueError("claim exploded")

        spec = ExperimentSpec(
            name="raiser", description="d", runner=lambda: 1,
            checks=(Check("fine", "ok", lambda r: True),
                    Check("boom", "raises", boom)),
        )
        register(spec)
        try:
            run = execute("raiser")
        finally:
            unregister("raiser")
        assert not run.passed
        failed = run.check("boom")
        assert failed.status == "fail"
        assert "check raised: claim exploded" in failed.description
        # The other claim's verdict survives the explosion.
        assert run.check("fine").status == "pass"

    def test_telemetry_trace_and_metrics(self, toy_spec, tmp_path):
        trace = tmp_path / "run.jsonl"
        telemetry = Telemetry.to_file(str(trace))
        execute(toy_spec.name, telemetry=telemetry)
        telemetry.close()

        kinds = [json.loads(line)["kind"]
                 for line in trace.read_text().splitlines()]
        assert kinds == ["experiment_started", "check_evaluated",
                         "check_evaluated", "experiment_finished"]


class TestRunAllAndScorecard:
    def test_run_all_subset_with_progress(self, toy_spec):
        seen = []
        results = run_all([toy_spec.name], progress=seen.append)
        assert [r.experiment for r in results] == [toy_spec.name]
        assert seen == results

    def test_scorecard_dict_validates(self, toy_spec):
        results = run_all([toy_spec.name])
        card = scorecard_dict(results)
        assert validate_scorecard(card) == []
        assert card["passed"] is True
        assert card["counts"] == {"experiments": 1, "claims": 2,
                                  "passed": 2, "failed": 0, "skipped": 0}
        assert {row["check"] for row in card["claims"]} == \
            {"echoes_seed", "full_budget_only"}

    def test_scorecard_quick_counts_skips(self, toy_spec):
        results = run_all([toy_spec.name], quick=True)
        card = scorecard_dict(results, quick=True)
        assert card["profile"] == "quick"
        assert card["counts"]["skipped"] == 1

    def test_render_scorecard(self, toy_spec):
        results = run_all([toy_spec.name], quick=True)
        text = render_scorecard(results)
        assert "REPRODUCTION SCORECARD" in text
        assert "1/1 claims pass (1 skipped under --quick)" in text
        assert "all claims hold" in text

    def test_render_scorecard_reports_failures(self):
        spec = ExperimentSpec(
            name="doomed", description="d", runner=lambda: 1,
            checks=(Check("nope", "never holds", lambda r: False),),
        )
        register(spec)
        try:
            results = run_all(["doomed"])
        finally:
            unregister("doomed")
        text = render_scorecard(results)
        assert "1 claim(s) FAILED" in text

    def test_render_scorecard_empty(self):
        assert render_scorecard([]) == "no experiments were run"


class TestGitRevision:
    def test_revision_shape(self):
        revision = git_revision()
        assert revision is None or (isinstance(revision, str)
                                    and 4 <= len(revision) <= 40)


class TestArtifactInterop:
    def test_runner_artifact_loads_as_run_result(self, toy_spec):
        run = execute(toy_spec.name, seed=3)
        back = RunResult.from_dict(json.loads(run.to_json()))
        assert back.experiment == run.experiment
        assert back.params == run.params
        assert back.counts == run.counts
