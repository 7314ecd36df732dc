"""Experiment drivers — one per table/figure of the paper's evaluation.

Each driver is runnable as a module (``python -m repro.experiments.fig5``),
returns structured results, and registers an
:class:`~repro.harness.ExperimentSpec` with the harness registry at import
time (``repro.harness.load_all()`` imports this package to populate it):

* :mod:`repro.experiments.table1` — Table 1 (converged latencies);
* :mod:`repro.experiments.fig5` — Figure 5 (step sizes);
* :mod:`repro.experiments.fig6` — Figure 6 (task-count scaling);
* :mod:`repro.experiments.fig7` — Figure 7 (schedulability test);
* :mod:`repro.experiments.fig8` — Figure 8 (prototype error correction);
* :mod:`repro.experiments.ablations` — design-choice sweeps (ours);
* :mod:`repro.experiments.adaptation` — resource/workload variation and
  undetected interference (ours);
* :mod:`repro.experiments.percentiles` — §2.1 percentile composition
  validation (ours);
* :mod:`repro.experiments.resilience` — control-plane fault recovery
  (ours);
* :mod:`repro.experiments.churn` — the always-on service under task
  churn: warm re-convergence vs cold restarts (ours);
* :mod:`repro.experiments.overload` — the hardened service under churn
  storms, loop stalls, and checkpoint faults (ours).
"""

from repro.experiments.adaptation import (
    AdaptationResult,
    InterferenceResult,
    run_adaptation,
    run_resource_variation,
    run_undetected_interference,
    run_workload_variation,
)
from repro.experiments.ablations import (
    AblationsResult,
    VariantOutcome,
    ablate_baselines,
    ablate_gamma_ratio,
    ablate_max_gamma,
    ablate_message_loss,
    ablate_utility_variant,
    run_ablations,
)
from repro.experiments.churn import ChurnReport, run_churn
from repro.experiments.fig5 import Fig5Result, Fig5Series, run_fig5
from repro.experiments.percentiles import (
    PercentilePoint,
    PercentileResult,
    run_percentiles,
)
from repro.experiments.fig6 import Fig6Point, Fig6Result, run_fig6
from repro.experiments.fig7 import Fig7Result, run_fig7
from repro.experiments.fig8 import Fig8Result, run_fig8
from repro.experiments.overload import OverloadReport, run_overload
from repro.experiments.resilience import (
    ResilienceReport,
    ResilienceResult,
    run_blackout_recovery,
    run_crash_recovery,
    run_resilience,
)
from repro.experiments.table1 import Table1Result, run_table1

__all__ = [
    "run_table1",
    "Table1Result",
    "run_fig5",
    "Fig5Result",
    "Fig5Series",
    "run_fig6",
    "Fig6Result",
    "Fig6Point",
    "run_fig7",
    "Fig7Result",
    "run_fig8",
    "Fig8Result",
    "ablate_utility_variant",
    "ablate_max_gamma",
    "ablate_gamma_ratio",
    "ablate_baselines",
    "ablate_message_loss",
    "run_ablations",
    "AblationsResult",
    "VariantOutcome",
    "run_adaptation",
    "run_resource_variation",
    "run_workload_variation",
    "run_undetected_interference",
    "AdaptationResult",
    "InterferenceResult",
    "run_percentiles",
    "PercentileResult",
    "PercentilePoint",
    "run_churn",
    "ChurnReport",
    "run_overload",
    "OverloadReport",
    "run_resilience",
    "run_crash_recovery",
    "run_blackout_recovery",
    "ResilienceReport",
    "ResilienceResult",
]
