"""Unit tests for the RunResult envelope and the schema validators."""

import json

import numpy as np
import pytest

from repro.errors import HarnessError
from repro.harness import (
    RUN_RESULT_SCHEMA,
    SCORECARD_SCHEMA,
    CheckResult,
    RunResult,
    json_default,
    validate_run_result,
    validate_scorecard,
)


def make_run(**overrides):
    fields = dict(
        experiment="toy",
        description="a toy run",
        params={"a": 1},
        seed=7,
        profile="default",
        git_sha="abc1234",
        wall_time_seconds=0.25,
        checks=[
            CheckResult("holds", "claim holds", True, {"err": 0.01}),
            CheckResult("slow", "full budget only", None, skipped=True),
        ],
        payload={"utility": 10.0},
        source="Section 5",
    )
    fields.update(overrides)
    return RunResult(**fields)


class TestCheckResult:
    def test_status_values(self):
        assert CheckResult("c", "", True).status == "pass"
        assert CheckResult("c", "", False).status == "fail"
        assert CheckResult("c", "", None, skipped=True).status == "skipped"

    def test_round_trip_preserves_skip(self):
        skipped = CheckResult("c", "d", None, skipped=True)
        back = CheckResult.from_dict(skipped.to_dict())
        assert back.skipped and back.status == "skipped"


class TestRunResult:
    def test_passed_ignores_skipped(self):
        assert make_run().passed
        failing = make_run(checks=[
            CheckResult("holds", "", False),
            CheckResult("slow", "", None, skipped=True),
        ])
        assert not failing.passed

    def test_counts(self):
        assert make_run().counts == {
            "total": 2, "passed": 1, "failed": 0, "skipped": 1,
        }

    def test_check_lookup(self):
        assert make_run().check("holds").passed is True
        with pytest.raises(HarnessError, match="no check 'nope'"):
            make_run().check("nope")

    def test_to_dict_validates_clean(self):
        assert validate_run_result(make_run().to_dict()) == []

    def test_json_round_trip(self):
        run = make_run()
        back = RunResult.from_dict(json.loads(run.to_json()))
        assert back == run

    def test_artifact_with_a_backend_key_still_loads(self):
        """Artifacts written while runs recorded a kernel backend (the
        committed scorecard baseline among them) keep loading."""
        data = json.loads(make_run().to_json())
        data["backend"] = "scalar"
        assert RunResult.from_dict(data) == make_run()

    def test_from_dict_rejects_bad_artifact(self):
        with pytest.raises(HarnessError, match="does not validate"):
            RunResult.from_dict({"schema": "wrong"})

    def test_summary_mentions_verdict_and_skips(self):
        text = make_run().summary()
        assert "toy: PASS" in text and "1 skipped" in text


class TestJsonDefault:
    def test_numpy_scalar_becomes_python_scalar(self):
        assert json_default(np.float64(1.5)) == 1.5
        assert json_default(np.int64(3)) == 3

    def test_unknown_objects_fall_back_to_str(self):
        assert json_default(object()).startswith("<object")

    def test_numpy_payload_serializes(self):
        run = make_run(payload={"loads": np.asarray([1.0, 2.0]).tolist(),
                                "max": np.float64(2.0)})
        data = json.loads(run.to_json())
        assert data["payload"]["max"] == 2.0


class TestValidateRunResult:
    def test_non_mapping_rejected(self):
        assert validate_run_result([1, 2]) == [
            "artifact must be an object, got list"
        ]

    def test_wrong_schema_flagged(self):
        data = make_run().to_dict()
        data["schema"] = "other/9"
        problems = validate_run_result(data)
        assert any(RUN_RESULT_SCHEMA in p for p in problems)

    def test_missing_keys_flagged(self):
        data = make_run().to_dict()
        del data["checks"], data["params"]
        problems = validate_run_result(data)
        assert "missing required key 'checks'" in problems
        assert "missing required key 'params'" in problems

    def test_bad_check_status_flagged(self):
        data = make_run().to_dict()
        data["checks"][0]["status"] = "maybe"
        assert any("status must be one of" in p
                   for p in validate_run_result(data))

    def test_evaluated_check_needs_boolean_passed(self):
        data = make_run().to_dict()
        data["checks"][0]["passed"] = "yes"
        assert any("boolean 'passed'" in p
                   for p in validate_run_result(data))

    def test_non_numeric_measured_flagged(self):
        data = make_run().to_dict()
        data["checks"][0]["measured"] = {"err": "tiny"}
        assert any("must be numeric" in p
                   for p in validate_run_result(data))


class TestValidateScorecard:
    def make_card(self):
        run = make_run()
        return {
            "schema": SCORECARD_SCHEMA,
            "profile": "default",
            "git_sha": "abc1234",
            "wall_time_seconds": 0.25,
            "passed": True,
            "counts": {"experiments": 1, "claims": 2, "passed": 1,
                       "failed": 0, "skipped": 1},
            "claims": [
                {"experiment": "toy", "check": "holds",
                 "description": "claim holds", "status": "pass",
                 "measured": {"err": 0.01}},
            ],
            "runs": [run.to_dict()],
        }

    def test_valid_card_is_clean(self):
        assert validate_scorecard(self.make_card()) == []

    def test_wrong_schema_flagged(self):
        card = self.make_card()
        card["schema"] = RUN_RESULT_SCHEMA
        assert any(SCORECARD_SCHEMA in p for p in validate_scorecard(card))

    def test_claim_rows_need_experiment_and_check(self):
        card = self.make_card()
        card["claims"].append({"status": "pass"})
        assert any("claims[1]" in p for p in validate_scorecard(card))

    def test_embedded_runs_are_validated(self):
        card = self.make_card()
        card["runs"][0]["checks"][0]["status"] = "maybe"
        assert any(p.startswith("runs[0]:")
                   for p in validate_scorecard(card))
