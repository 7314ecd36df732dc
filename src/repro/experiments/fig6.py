"""Experiment: Figure 6 — convergence as the number of tasks scales.

The base workload is cloned ×1/×2/×4 (3, 6 and 12 simultaneous tasks) with
identical subtask characteristics and resource mappings; schedulability is
maintained by overprovisioning the critical times (the same factor for all
three workloads, as the paper describes).

Paper claims checked:

* the convergence speed of the algorithm does not depend on the number of
  tasks executing simultaneously;
* the converged utility increases linearly with the number of tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.optimizer import LLAConfig, LLAOptimizer
from repro.core.stepsize import AdaptiveStepSize
from repro.harness import (
    Check,
    ExperimentSpec,
    Param,
    parse_int_list,
    register,
)
from repro.workloads.paper import scaled_workload

__all__ = ["Fig6Point", "Fig6Result", "run_fig6", "SPEC"]


@dataclass
class Fig6Point:
    """One workload size of Figure 6."""

    n_tasks: int
    utilities: List[float]
    final_utility: float
    feasible: bool

    def settling_iteration(self, rel_band: float = 0.01) -> Optional[int]:
        """First iteration after which utility stays within ``rel_band`` of
        the final value (relative)."""
        values = np.asarray(self.utilities)
        final = values[-1]
        band = max(abs(final) * rel_band, 1e-9)
        inside = np.abs(values - final) <= band
        for i in range(len(values)):
            if inside[i:].all():
                return i
        return None


@dataclass
class Fig6Result:
    """All Figure 6 series."""

    points: Dict[int, Fig6Point]

    def utility_linearity(self) -> float:
        """R² of final utility vs task count (paper: linear, so ≈ 1)."""
        xs = np.array(sorted(self.points))
        ys = np.array([self.points[x].final_utility for x in xs])
        coeffs = np.polyfit(xs, ys, 1)
        fitted = np.polyval(coeffs, xs)
        residual = float(np.sum((ys - fitted) ** 2))
        total = float(np.sum((ys - ys.mean()) ** 2))
        return 1.0 - residual / total if total > 0.0 else 1.0

    def settling_iterations(self) -> Dict[int, Optional[int]]:
        return {n: p.settling_iteration() for n, p in self.points.items()}


def run_fig6(copies: Sequence[int] = (1, 2, 4), iterations: int = 500,
             critical_time_factor: float = 20.0,
             max_gamma: float = 1e6) -> Fig6Result:
    """Run LLA on the ×1/×2/×4 scaled workloads.

    Uses the paper's *unbounded* adaptive doubling (``max_gamma=1e6``): in
    this overprovisioned regime it is stable, and its exponential price
    climb is what makes the convergence speed independent of the task
    count (a capped γ climbs linearly in the optimal price, which grows
    roughly quadratically with the count).
    """
    points: Dict[int, Fig6Point] = {}
    for c in copies:
        taskset = scaled_workload(
            c, critical_time_factor=critical_time_factor
        )
        config = LLAConfig(
            step_policy=AdaptiveStepSize(
                taskset, initial_gamma=1.0, max_gamma=max_gamma
            ),
            max_iterations=iterations,
            stop_on_convergence=False,
        )
        result = LLAOptimizer(taskset, config).run()
        points[len(taskset.tasks)] = Fig6Point(
            n_tasks=len(taskset.tasks),
            utilities=result.utility_trace(),
            final_utility=result.utility,
            feasible=taskset.is_feasible(result.latencies, tol=1e-2),
        )
    return Fig6Result(points=points)


def _check_all_feasible(result: Fig6Result):
    passed = all(p.feasible for p in result.points.values())
    return passed, {f"final_utility.{n}": p.final_utility
                    for n, p in result.points.items()}


def _check_linearity(result: Fig6Result):
    r2 = result.utility_linearity()
    return r2 >= 0.99, {"linearity_r2": r2}


def _check_count_independent_speed(result: Fig6Result):
    settles = result.settling_iterations()
    if any(s is None for s in settles.values()):
        return False, {}
    spread = max(settles.values()) - min(settles.values())
    measured = {f"settling.{n}": float(s) for n, s in settles.items()}
    measured["settling_spread"] = float(spread)
    return spread <= 50, measured


def _payload(result: Fig6Result):
    return {
        "points": {
            str(n): {
                "final_utility": p.final_utility,
                "feasible": p.feasible,
                "settling_iteration": p.settling_iteration(),
            }
            for n, p in result.points.items()
        },
        "linearity_r2": result.utility_linearity(),
    }


SPEC = register(ExperimentSpec(
    name="fig6",
    description="Figure 6: convergence as the number of tasks scales",
    source="Section 5.3, Figure 6",
    runner=run_fig6,
    params=(
        Param("copies", parse_int_list, (1, 2, 4),
              "workload clone factors (paper: 3/6/12 tasks)"),
        Param("iterations", int, 500, "iteration budget per workload"),
        Param("critical_time_factor", float, 20.0,
              "overprovisioning factor keeping the clones schedulable"),
        Param("max_gamma", float, 1e6,
              "adaptive-doubling cap (paper: unbounded)"),
    ),
    checks=(
        Check("all_workloads_feasible",
              "the x1/x2/x4 workloads all converge to feasible "
              "allocations", _check_all_feasible),
        Check("utility_scales_linearly",
              "converged utility grows linearly with the task count "
              "(R^2 >= 0.99)", _check_linearity),
        Check("convergence_speed_count_independent",
              "convergence speed does not depend on the number of "
              "tasks (settling spread <= 50 iterations)",
              _check_count_independent_speed),
    ),
    payload=_payload,
    quick_params={"iterations": 200},
))


def main() -> None:
    result = run_fig6()
    print("Figure 6: scaling the number of tasks")
    for n, point in sorted(result.points.items()):
        print(
            f"  {n:2d} tasks: final utility {point.final_utility:10.2f}  "
            f"feasible {point.feasible}  "
            f"settles at {point.settling_iteration()}"
        )
    print(f"utility-vs-tasks linearity R^2: {result.utility_linearity():.4f}")


if __name__ == "__main__":
    main()
