"""What importing the serving path loads.

scipy backs the SLSQP oracle (``repro.baselines.centralized``) and the
tests' numerical cross-checks.  The service, the optimizer and the
workload loader must not import it: every process that serves or solves
would pay its import time and tens of MB of memory for nothing.
"""

import subprocess
import sys

from tests.conftest import python_env

SERVING_MODULES = ("repro.service", "repro.core.optimizer",
                   "repro.model.serialize")


def test_serving_modules_do_not_import_scipy(tmp_path):
    code = (
        "import importlib, sys\n"
        f"for name in {SERVING_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=python_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"
