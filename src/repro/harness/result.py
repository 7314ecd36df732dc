"""The ``RunResult`` envelope: one JSON artifact schema for every run.

Every experiment — CLI single run, ``--all`` scorecard entry, benchmark
invocation — produces the same envelope: the resolved parameters, the
seed/profile it ran under, the git revision and wall time, the
per-claim check verdicts with their measured values, and a
JSON-serializable domain payload.  :func:`validate_run_result` is the
dependency-free schema check both the tests and :func:`from_dict` use,
so an artifact written by one layer always loads in another.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.errors import HarnessError

__all__ = [
    "RUN_RESULT_SCHEMA",
    "SCORECARD_SCHEMA",
    "CheckResult",
    "RunResult",
    "json_default",
    "validate_run_result",
    "validate_scorecard",
]

#: Schema identifier stamped into every single-run artifact.
RUN_RESULT_SCHEMA = "repro.harness.run-result/1"
#: Schema identifier stamped into the ``--all`` scorecard artifact.
SCORECARD_SCHEMA = "repro.harness.scorecard/1"


@dataclass
class CheckResult:
    """One claim's verdict in one run."""

    name: str
    description: str
    passed: Optional[bool]          # None when skipped
    measured: Dict[str, float] = field(default_factory=dict)
    skipped: bool = False

    @property
    def status(self) -> str:
        if self.skipped:
            return "skipped"
        return "pass" if self.passed else "fail"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "status": self.status,
            "passed": self.passed,
            "measured": dict(self.measured),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CheckResult":
        return cls(
            name=str(data["name"]),
            description=str(data.get("description", "")),
            passed=data.get("passed"),
            measured=dict(data.get("measured", {})),
            skipped=data.get("status") == "skipped",
        )


@dataclass
class RunResult:
    """The uniform envelope for one experiment run."""

    experiment: str
    description: str
    params: Dict[str, Any]
    seed: Optional[int]
    profile: str                    # "default" or "quick"
    git_sha: Optional[str]
    wall_time_seconds: float
    checks: List[CheckResult]
    payload: Dict[str, Any] = field(default_factory=dict)
    source: str = ""
    schema: str = RUN_RESULT_SCHEMA

    @property
    def passed(self) -> bool:
        """True when no evaluated check failed (skipped checks do not
        count against the run)."""
        return all(c.passed for c in self.checks if not c.skipped)

    @property
    def counts(self) -> Dict[str, int]:
        evaluated = [c for c in self.checks if not c.skipped]
        return {
            "total": len(self.checks),
            "passed": sum(1 for c in evaluated if c.passed),
            "failed": sum(1 for c in evaluated if not c.passed),
            "skipped": sum(1 for c in self.checks if c.skipped),
        }

    def check(self, name: str) -> CheckResult:
        for check in self.checks:
            if check.name == name:
                return check
        raise HarnessError(
            f"run of {self.experiment!r} has no check {name!r}; "
            f"available: {[c.name for c in self.checks]}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "experiment": self.experiment,
            "description": self.description,
            "source": self.source,
            "params": dict(self.params),
            "seed": self.seed,
            "profile": self.profile,
            "git_sha": self.git_sha,
            "wall_time_seconds": self.wall_time_seconds,
            "passed": self.passed,
            "counts": self.counts,
            "checks": [c.to_dict() for c in self.checks],
            "payload": dict(self.payload),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False,
                          default=json_default)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        problems = validate_run_result(data)
        if problems:
            raise HarnessError(
                "artifact does not validate against the RunResult "
                "schema: " + "; ".join(problems)
            )
        return cls(
            experiment=str(data["experiment"]),
            description=str(data.get("description", "")),
            params=dict(data["params"]),
            seed=data.get("seed"),
            profile=str(data.get("profile", "default")),
            git_sha=data.get("git_sha"),
            wall_time_seconds=float(data["wall_time_seconds"]),
            checks=[CheckResult.from_dict(c) for c in data["checks"]],
            payload=dict(data.get("payload", {})),
            source=str(data.get("source", "")),
            schema=str(data["schema"]),
        )

    def summary(self) -> str:
        counts = self.counts
        verdict = "PASS" if self.passed else "FAIL"
        skipped = (f", {counts['skipped']} skipped"
                   if counts["skipped"] else "")
        return (
            f"{self.experiment}: {verdict} "
            f"({counts['passed']}/{counts['passed'] + counts['failed']} "
            f"checks{skipped}, {self.wall_time_seconds:.1f}s)"
        )


def json_default(value: Any) -> Any:
    """Fallback serializer: numpy scalars, tuples-as-keys, etc."""
    for attr in ("item",):          # numpy scalar -> python scalar
        method = getattr(value, attr, None)
        if callable(method):
            try:
                return method()
            except (TypeError, ValueError):
                pass
    return str(value)


# -- schema validation (dependency-free) -------------------------------------------

_CHECK_STATUSES = ("pass", "fail", "skipped")


def _type_name(value: Any) -> str:
    return type(value).__name__


def validate_run_result(data: Any) -> List[str]:
    """Validate one run artifact; returns a list of problems (empty when
    the artifact conforms to :data:`RUN_RESULT_SCHEMA`)."""
    problems: List[str] = []
    if not isinstance(data, Mapping):
        return [f"artifact must be an object, got {_type_name(data)}"]
    if data.get("schema") != RUN_RESULT_SCHEMA:
        problems.append(
            f"schema must be {RUN_RESULT_SCHEMA!r}, got "
            f"{data.get('schema')!r}"
        )
    for key, types in (
        ("experiment", str),
        ("params", Mapping),
        ("profile", str),
        ("wall_time_seconds", (int, float)),
        ("passed", bool),
        ("checks", list),
        ("payload", Mapping),
    ):
        if key not in data:
            problems.append(f"missing required key {key!r}")
        elif not isinstance(data[key], types):
            problems.append(
                f"key {key!r} must be {types}, got {_type_name(data[key])}"
            )
    for key in ("seed", "git_sha"):
        value = data.get(key)
        if value is not None and not isinstance(value, (str, int)):
            problems.append(
                f"key {key!r} must be null, string or int, got "
                f"{_type_name(value)}"
            )
    for index, check in enumerate(data.get("checks") or []):
        where = f"checks[{index}]"
        if not isinstance(check, Mapping):
            problems.append(f"{where} must be an object")
            continue
        if not isinstance(check.get("name"), str) or not check.get("name"):
            problems.append(f"{where}: missing check name")
        if check.get("status") not in _CHECK_STATUSES:
            problems.append(
                f"{where}: status must be one of {_CHECK_STATUSES}, got "
                f"{check.get('status')!r}"
            )
        if check.get("status") != "skipped" and \
                not isinstance(check.get("passed"), bool):
            problems.append(f"{where}: evaluated check needs a boolean "
                            "'passed'")
        measured = check.get("measured", {})
        if not isinstance(measured, Mapping):
            problems.append(f"{where}: measured must be an object")
        else:
            for key, value in measured.items():
                if not isinstance(value, (int, float, bool)):
                    problems.append(
                        f"{where}: measured[{key!r}] must be numeric, "
                        f"got {_type_name(value)}"
                    )
    return problems


def validate_scorecard(data: Any) -> List[str]:
    """Validate a scorecard artifact: the envelope plus every embedded
    run against :func:`validate_run_result`."""
    problems: List[str] = []
    if not isinstance(data, Mapping):
        return [f"scorecard must be an object, got {_type_name(data)}"]
    if data.get("schema") != SCORECARD_SCHEMA:
        problems.append(
            f"schema must be {SCORECARD_SCHEMA!r}, got {data.get('schema')!r}"
        )
    for key, types in (
        ("profile", str),
        ("passed", bool),
        ("counts", Mapping),
        ("claims", list),
        ("runs", list),
    ):
        if key not in data:
            problems.append(f"missing required key {key!r}")
        elif not isinstance(data[key], types):
            problems.append(
                f"key {key!r} must be {types}, got {_type_name(data[key])}"
            )
    for index, row in enumerate(data.get("claims") or []):
        if not isinstance(row, Mapping) or \
                not isinstance(row.get("experiment"), str) or \
                not isinstance(row.get("check"), str):
            problems.append(
                f"claims[{index}] must carry 'experiment' and 'check'"
            )
        elif row.get("status") not in _CHECK_STATUSES:
            problems.append(
                f"claims[{index}]: bad status {row.get('status')!r}"
            )
    for index, run in enumerate(data.get("runs") or []):
        for problem in validate_run_result(run):
            problems.append(f"runs[{index}]: {problem}")
    return problems
