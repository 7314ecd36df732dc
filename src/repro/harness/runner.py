"""Executing registered experiments and assembling the scorecard.

:func:`execute` is the single code path every consumer shares — the
``repro experiment`` CLI, the benchmark suite, and the ``--all``
scorecard all funnel through it, so an experiment's runner and claim
checks cannot diverge between surfaces.  Runs are traced through the
:class:`~repro.telemetry.Telemetry` facade exactly like
``repro optimize --trace``: an ``experiment_started`` event with the
resolved parameters, one ``check_evaluated`` event per claim, and an
``experiment_finished`` event with the verdict; wall time and check
counters land in the telemetry metrics registry.
"""

from __future__ import annotations

import subprocess
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.errors import HarnessError
from repro.harness.result import (
    RUN_RESULT_SCHEMA,
    SCORECARD_SCHEMA,
    CheckResult,
    RunResult,
)
from repro.harness.spec import ExperimentSpec, get_spec, spec_names
from repro.telemetry import Telemetry

__all__ = [
    "execute",
    "run_all",
    "scorecard_dict",
    "render_scorecard",
    "git_revision",
]


def git_revision() -> Optional[str]:
    """The repository's HEAD revision, or ``None`` outside a checkout."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5.0, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    revision = completed.stdout.strip()
    return revision if completed.returncode == 0 and revision else None


def _apply_uniform_flags(
    spec: ExperimentSpec,
    params: Dict[str, Any],
    seed: Optional[int],
    iterations: Optional[int],
) -> None:
    """Fold the uniform CLI flags into the resolved parameters.

    ``--seed`` is always accepted (it is recorded in the envelope even
    for deterministic experiments) and forwarded when the spec declares
    a ``seed`` parameter.  ``--iterations`` requires an iteration-budget
    parameter — passing it to an experiment that has none is an error,
    not a silent no-op.
    """
    if seed is not None and spec.has_param("seed"):
        params["seed"] = seed
    if iterations is not None:
        for name in ("iterations", "max_iterations"):
            if spec.has_param(name):
                params[name] = iterations
                break
        else:
            raise HarnessError(
                f"experiment {spec.name!r} has no iteration-budget "
                "parameter"
            )


def execute(
    name: str,
    overrides: Optional[Mapping[str, Any]] = None,
    *,
    seed: Optional[int] = None,
    iterations: Optional[int] = None,
    quick: bool = False,
    telemetry: Optional[Telemetry] = None,
) -> RunResult:
    """Run one registered experiment and evaluate its claim checks.

    A check whose function raises does not abort the run: the exception
    is converted into a failed check carrying the error text, so one
    broken claim cannot hide the others' verdicts.
    """
    spec = get_spec(name)
    params = spec.resolve_params(overrides, quick=quick)
    _apply_uniform_flags(spec, params, seed, iterations)
    profile = "quick" if quick else "default"
    telemetry = telemetry if telemetry is not None else Telemetry.disabled()

    telemetry.tracer.emit(
        "experiment_started",
        experiment=spec.name, params=dict(params), profile=profile,
    )
    started = time.perf_counter()
    domain_result = spec.runner(**params)
    wall_time = time.perf_counter() - started

    checks: List[CheckResult] = []
    for check in spec.checks:
        if quick and not check.quick:
            checks.append(CheckResult(
                name=check.name, description=check.description,
                passed=None, skipped=True,
            ))
            telemetry.tracer.emit(
                "check_evaluated", experiment=spec.name,
                check=check.name, status="skipped",
            )
            continue
        try:
            outcome = check.evaluate(domain_result)
            result = CheckResult(
                name=check.name, description=check.description,
                passed=outcome.passed, measured=dict(outcome.measured),
            )
        except Exception as exc:  # noqa: BLE001  # statan: disable=REP003 -- a raising check becomes a failed claim carrying the error, never a crashed run
            result = CheckResult(
                name=check.name,
                description=f"{check.description} [check raised: {exc}]",
                passed=False,
            )
        checks.append(result)
        telemetry.tracer.emit(
            "check_evaluated", experiment=spec.name, check=result.name,
            status=result.status, measured=dict(result.measured),
        )

    payload: Dict[str, Any] = {}
    if spec.payload is not None:
        payload = dict(spec.payload(domain_result))

    run = RunResult(
        experiment=spec.name,
        description=spec.description,
        params=dict(params),
        seed=seed if seed is not None else params.get("seed"),
        profile=profile,
        git_sha=git_revision(),
        wall_time_seconds=wall_time,
        checks=checks,
        payload=payload,
        source=spec.source,
        schema=RUN_RESULT_SCHEMA,
    )

    registry = telemetry.registry
    registry.timer(
        "harness.run_seconds", "experiment wall time"
    ).observe(wall_time)
    counts = run.counts
    registry.counter(
        "harness.checks_passed", "claim checks passed"
    ).inc(counts["passed"])
    registry.counter(
        "harness.checks_failed", "claim checks failed"
    ).inc(counts["failed"])
    telemetry.tracer.emit(
        "experiment_finished",
        experiment=spec.name, passed=run.passed,
        wall_time_seconds=wall_time, counts=counts,
    )
    return run


def run_all(
    names: Optional[Sequence[str]] = None,
    *,
    quick: bool = False,
    seed: Optional[int] = None,
    telemetry: Optional[Telemetry] = None,
    progress: Optional[Any] = None,
) -> List[RunResult]:
    """Run every registered experiment (or the given subset) in name
    order.  ``progress`` is an optional callable receiving each
    completed :class:`RunResult` (the CLI prints rows as they land)."""
    results = []
    for name in (names if names is not None else spec_names()):
        run = execute(name, quick=quick, seed=seed, telemetry=telemetry)
        if progress is not None:
            progress(run)
        results.append(run)
    return results


def scorecard_dict(results: Sequence[RunResult],
                   quick: bool = False) -> Dict[str, Any]:
    """The ``--all`` artifact: one claim row per check across the whole
    paper, plus the full per-run envelopes."""
    claims = []
    for run in results:
        for check in run.checks:
            claims.append({
                "experiment": run.experiment,
                "check": check.name,
                "description": check.description,
                "status": check.status,
                "measured": dict(check.measured),
            })
    evaluated = [c for c in claims if c["status"] != "skipped"]
    counts = {
        "experiments": len(results),
        "claims": len(claims),
        "passed": sum(1 for c in evaluated if c["status"] == "pass"),
        "failed": sum(1 for c in evaluated if c["status"] == "fail"),
        "skipped": sum(1 for c in claims if c["status"] == "skipped"),
    }
    return {
        "schema": SCORECARD_SCHEMA,
        "profile": "quick" if quick else "default",
        "git_sha": git_revision(),
        "wall_time_seconds": sum(r.wall_time_seconds for r in results),
        "passed": all(r.passed for r in results),
        "counts": counts,
        "claims": claims,
        "runs": [run.to_dict() for run in results],
    }


def render_scorecard(results: Sequence[RunResult]) -> str:
    """Human-readable reproduction scorecard: one row per paper claim."""
    rows = []
    for run in results:
        for check in run.checks:
            rows.append((run.experiment, check.name, check.status))
    if not rows:
        return "no experiments were run"
    exp_width = max(len(r[0]) for r in rows)
    check_width = max(len(r[1]) for r in rows)
    lines = [
        "REPRODUCTION SCORECARD",
        f"{'experiment':<{exp_width}}  {'claim':<{check_width}}  status",
        "-" * (exp_width + check_width + 10),
    ]
    for experiment, check, status in rows:
        marker = {"pass": "PASS", "fail": "FAIL",
                  "skipped": "skip"}[status]
        lines.append(f"{experiment:<{exp_width}}  {check:<{check_width}}  "
                     f"{marker}")
    lines.append("-" * (exp_width + check_width + 10))
    evaluated = [r for r in rows if r[2] != "skipped"]
    passed = sum(1 for r in evaluated if r[2] == "pass")
    skipped = len(rows) - len(evaluated)
    total_time = sum(r.wall_time_seconds for r in results)
    verdict = ("all claims hold" if passed == len(evaluated)
               else f"{len(evaluated) - passed} claim(s) FAILED")
    skip_note = f" ({skipped} skipped under --quick)" if skipped else ""
    lines.append(
        f"{passed}/{len(evaluated)} claims pass{skip_note} — {verdict} "
        f"[{total_time:.1f}s]"
    )
    return "\n".join(lines)
