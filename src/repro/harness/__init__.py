"""Unified experiment harness: declarative registry + one artifact schema.

Three pieces (see ``EXPERIMENTS.md`` for the authoring guide):

* :mod:`repro.harness.spec` — :class:`ExperimentSpec` (name, typed
  parameter schema, runner callable, first-class :class:`Check` objects
  encoding each paper claim) and the process-wide registry the drivers
  under :mod:`repro.experiments` populate at import time;
* :mod:`repro.harness.result` — the :class:`RunResult` envelope (params,
  seed, git SHA, wall time, per-check verdicts with measured
  values, domain payload) serialized to one JSON schema, plus the
  dependency-free validators;
* :mod:`repro.harness.runner` — :func:`execute`/:func:`run_all`, the
  single code path the CLI, the benchmark suite and the ``--all``
  reproduction scorecard all share.
"""

from repro.harness.result import (
    RUN_RESULT_SCHEMA,
    SCORECARD_SCHEMA,
    CheckResult,
    RunResult,
    json_default,
    validate_run_result,
    validate_scorecard,
)
from repro.harness.runner import (
    execute,
    git_revision,
    render_scorecard,
    run_all,
    scorecard_dict,
)
from repro.harness.spec import (
    Check,
    CheckOutcome,
    ExperimentSpec,
    Param,
    all_specs,
    get_spec,
    load_all,
    parse_bool,
    parse_float_list,
    parse_int_list,
    register,
    spec_names,
    unregister,
)

__all__ = [
    # spec + registry
    "ExperimentSpec",
    "Param",
    "Check",
    "CheckOutcome",
    "register",
    "unregister",
    "get_spec",
    "spec_names",
    "all_specs",
    "load_all",
    "parse_bool",
    "parse_int_list",
    "parse_float_list",
    # result envelope
    "RunResult",
    "CheckResult",
    "RUN_RESULT_SCHEMA",
    "SCORECARD_SCHEMA",
    "json_default",
    "validate_run_result",
    "validate_scorecard",
    # runner
    "execute",
    "run_all",
    "scorecard_dict",
    "render_scorecard",
    "git_revision",
]
