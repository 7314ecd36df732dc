"""Smoke tests for the example scripts.

Every example must import cleanly (catching API drift) and run end to
end: each one is executed as a user runs it, ``python examples/<name>.py``
in its own interpreter, from a scratch directory that also holds its
temporary files.  The nine together take about 15 s.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from tests.conftest import python_env

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
ALL_EXAMPLES = sorted(p.stem for p in EXAMPLES_DIR.glob("*.py"))

#: One line of each example's output that says it did its job.
EXPECTED_OUTPUT = {
    "chaos_run": "safe while degraded: True, recovered: True",
    "distributed_control_plane": "feasible: True",
    "edge_deployment": "cam0-analytics: ADMITTED",
    "online_error_correction": "phase B: error correction enabled",
    "patient_monitoring": "LLA converged: True",
    "program_trading": "LLA converged: True",
    "schedulability_check": " 3 tasks: SCHEDULABLE",
    "traced_run": "replayed summary == live summary: True",
}


@pytest.fixture(autouse=True)
def _examples_on_path():
    sys.path.insert(0, str(EXAMPLES_DIR))
    yield
    sys.path.remove(str(EXAMPLES_DIR))


def _run_example(name: str, tmp_path: Path) -> str:
    """Run ``examples/<name>.py`` in a fresh interpreter; its stdout."""
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / f"{name}.py")],
        cwd=tmp_path, env=python_env(TMPDIR=str(tmp_path)),
        capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_examples_discovered():
    assert len(ALL_EXAMPLES) >= 6
    assert set(EXPECTED_OUTPUT) == set(ALL_EXAMPLES) - {"quickstart"}


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_example_imports(name):
    module = importlib.import_module(name)
    assert callable(getattr(module, "main", None)), (
        f"example {name} must expose a main()"
    )


def test_quickstart_runs(tmp_path):
    out = _run_example("quickstart", tmp_path)
    assert "converged: True" in out
    assert "TASK T1" in out
    assert "critical path" in out


@pytest.mark.parametrize("name", sorted(EXPECTED_OUTPUT))
def test_example_runs(name, tmp_path):
    out = _run_example(name, tmp_path)
    assert EXPECTED_OUTPUT[name] in out
    if name == "traced_run":
        assert f"trace written to {tmp_path}" in out
