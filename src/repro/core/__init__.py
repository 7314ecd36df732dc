"""LLA — Lagrangian Latency Assignment (the paper's core contribution).

Components:

* :class:`~repro.core.optimizer.LLAOptimizer` /
  :class:`~repro.core.optimizer.LLAConfig` — the iterative algorithm;
* :class:`~repro.core.allocation.LatencyAllocator` — the per-task-controller
  latency step (Eq. 7);
* :mod:`repro.core.prices` — gradient-projection price updates (Eqs. 8–9);
* :mod:`repro.core.stepsize` — fixed and adaptive step-size policies;
* :mod:`repro.core.convergence` — utility-and-feasibility convergence test;
* :mod:`repro.core.lagrangian` — Lagrangian evaluation and KKT audit;
* :class:`~repro.core.error_correction.ErrorCorrector` — Section 6.3's
  online additive model-error correction.
"""

from repro.core.allocation import LatencyAllocator, stationary_latency
from repro.core.convergence import ConvergenceDetector
from repro.core.enactment import (
    AlwaysEnact,
    EnactmentPolicy,
    PeriodicEnactment,
    ThresholdEnactment,
)
from repro.core.error_correction import ErrorCorrector, ErrorSample
from repro.core.lagrangian import KKTReport, kkt_report, lagrangian_value
from repro.core.optimizer import LLAConfig, LLAOptimizer
from repro.core.prices import (
    PathPriceUpdater,
    ResourcePriceUpdater,
    update_path_price,
    update_resource_price,
)
from repro.core.state import IterationRecord, OptimizationResult, PathKey
from repro.core.stepsize import AdaptiveStepSize, FixedStepSize, StepSizePolicy
from repro.core.structure import (
    TaskSetStructure,
    compile_structure,
    structure_from_dict,
    structure_to_dict,
)
from repro.core.warmstart import apply_warm_start, warm_start_resource_prices

__all__ = [
    "LLAOptimizer",
    "LLAConfig",
    "LatencyAllocator",
    "stationary_latency",
    "ConvergenceDetector",
    "ErrorCorrector",
    "ErrorSample",
    "KKTReport",
    "kkt_report",
    "lagrangian_value",
    "PathPriceUpdater",
    "ResourcePriceUpdater",
    "update_path_price",
    "update_resource_price",
    "IterationRecord",
    "OptimizationResult",
    "PathKey",
    "StepSizePolicy",
    "FixedStepSize",
    "AdaptiveStepSize",
    "EnactmentPolicy",
    "AlwaysEnact",
    "ThresholdEnactment",
    "PeriodicEnactment",
    "warm_start_resource_prices",
    "apply_warm_start",
    "TaskSetStructure",
    "compile_structure",
    "structure_to_dict",
    "structure_from_dict",
]
