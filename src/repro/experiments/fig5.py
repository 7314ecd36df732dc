"""Experiment: Figure 5 — the effect of fixed and adaptive step sizes.

Runs LLA on the base workload for a fixed iteration budget under γ ∈
{0.1, 1, 10} (fixed) and the adaptive heuristic, recording the utility
after every iteration.

Paper claims checked (shape, not absolute levels — the utility scale
depends on the exact Figure 4 topology, which the text does not fully
specify):

* γ = 10 oscillates with high amplitude and does not converge;
* γ = 1 converges within the 500-iteration budget; γ = 0.1 needs more than
  1000 iterations;
* adaptive γ stabilizes faster than (or as fast as) the best fixed γ, and
  to at least as good a value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.optimizer import LLAConfig, LLAOptimizer
from repro.core.stepsize import AdaptiveStepSize, FixedStepSize
from repro.harness import Check, ExperimentSpec, Param, register
from repro.workloads.paper import base_workload

__all__ = ["Fig5Series", "Fig5Result", "run_fig5", "SPEC"]


@dataclass
class Fig5Series:
    """One line of Figure 5."""

    label: str
    utilities: List[float]

    def tail_oscillation(self, window: int = 100) -> float:
        """Peak-to-peak utility spread over the last ``window`` iterations."""
        tail = np.asarray(self.utilities[-window:])
        return float(tail.max() - tail.min()) if tail.size else 0.0

    def settling_iteration(self, band: float = 0.5) -> Optional[int]:
        """First iteration after which utility stays within ±``band`` of the
        final value; ``None`` if it never settles inside the budget."""
        values = np.asarray(self.utilities)
        final = values[-1]
        inside = np.abs(values - final) <= band
        for i in range(len(values)):
            if inside[i:].all():
                return i
        return None


@dataclass
class Fig5Result:
    """All series of Figure 5."""

    iterations: int
    series: Dict[str, Fig5Series]

    @property
    def reference_utility(self) -> float:
        """Best available estimate of the optimal utility: the adaptive
        run's final value (it converges within the budget)."""
        return self.series["adaptive"].utilities[-1]

    def distance_to_reference(self, label: str) -> float:
        """|final utility − reference| for one series — how far the run
        still is from the optimum at the end of the budget."""
        return abs(self.series[label].utilities[-1] - self.reference_utility)

    def ordering_correct(self) -> bool:
        """The paper's qualitative ordering of the four configurations:

        * γ = 10 oscillates with high amplitude (it never converges);
        * γ = 0.1 is slower than γ = 1 (farther from the optimum when the
          budget runs out — the paper needs >1000 iterations for it);
        * adaptive γ has the smallest residual oscillation and ends at
          least as close to the optimum as every fixed γ.
        """
        osc10 = self.series["gamma=10"].tail_oscillation()
        osc1 = self.series["gamma=1"].tail_oscillation()
        osc_adaptive = self.series["adaptive"].tail_oscillation()
        high_gamma_oscillates = osc10 > 5.0 * max(osc1, 1e-9)
        slow_gamma_lags = (
            self.distance_to_reference("gamma=0.1")
            > self.distance_to_reference("gamma=1")
        )
        adaptive_best = (
            osc_adaptive <= min(osc1, osc10)
            and self.distance_to_reference("gamma=1") >= -1e-9
        )
        return high_gamma_oscillates and slow_gamma_lags and adaptive_best


def run_fig5(iterations: int = 500,
             gammas: Sequence[float] = (0.1, 1.0, 10.0),
             variant: str = "path-weighted") -> Fig5Result:
    """Run all Figure 5 configurations on fresh copies of the workload."""
    series: Dict[str, Fig5Series] = {}
    for gamma in gammas:
        taskset = base_workload(variant=variant)
        config = LLAConfig(
            step_policy=FixedStepSize(gamma),
            max_iterations=iterations,
            stop_on_convergence=False,
        )
        result = LLAOptimizer(taskset, config).run()
        series[f"gamma={gamma:g}"] = Fig5Series(
            label=f"gamma={gamma:g}", utilities=result.utility_trace()
        )
    taskset = base_workload(variant=variant)
    config = LLAConfig(
        step_policy=AdaptiveStepSize(taskset, initial_gamma=1.0),
        max_iterations=iterations,
        stop_on_convergence=False,
    )
    result = LLAOptimizer(taskset, config).run()
    series["adaptive"] = Fig5Series(
        label="adaptive", utilities=result.utility_trace()
    )
    return Fig5Result(iterations=iterations, series=series)


def _check_high_gamma_oscillates(result: Fig5Result):
    osc10 = result.series["gamma=10"].tail_oscillation()
    osc1 = result.series["gamma=1"].tail_oscillation()
    return osc10 > 5.0 * max(osc1, 1e-9), {
        "oscillation.gamma=10": osc10, "oscillation.gamma=1": osc1,
    }


def _check_slow_gamma_lags(result: Fig5Result):
    slow = result.distance_to_reference("gamma=0.1")
    mid = result.distance_to_reference("gamma=1")
    return slow > mid, {"distance.gamma=0.1": slow, "distance.gamma=1": mid}


def _check_adaptive_most_stable(result: Fig5Result):
    osc_adaptive = result.series["adaptive"].tail_oscillation()
    osc1 = result.series["gamma=1"].tail_oscillation()
    return osc_adaptive <= osc1, {
        "oscillation.adaptive": osc_adaptive, "oscillation.gamma=1": osc1,
    }


def _check_ordering(result: Fig5Result):
    return result.ordering_correct()


def _payload(result: Fig5Result):
    return {
        "iterations": result.iterations,
        "series": {
            label: {
                "final_utility": series.utilities[-1],
                "tail_oscillation": series.tail_oscillation(),
                "settling_iteration": series.settling_iteration(),
            }
            for label, series in result.series.items()
        },
        "reference_utility": result.reference_utility,
    }


SPEC = register(ExperimentSpec(
    name="fig5",
    description="Figure 5: fixed vs adaptive step sizes "
                "(utility vs iteration)",
    source="Section 5.2, Figure 5",
    runner=run_fig5,
    params=(
        Param("iterations", int, 500, "iteration budget per series"),
        Param("variant", str, "path-weighted", "utility aggregation"),
    ),
    checks=(
        Check("high_gamma_oscillates",
              "gamma=10 oscillates with high amplitude and never "
              "converges", _check_high_gamma_oscillates),
        Check("slow_gamma_lags",
              "gamma=0.1 is farther from the optimum than gamma=1 when "
              "the budget runs out (the paper needs >1000 iterations)",
              _check_slow_gamma_lags),
        Check("adaptive_most_stable",
              "adaptive gamma ends at least as stable as the best "
              "fixed gamma", _check_adaptive_most_stable),
        Check("qualitative_ordering_holds",
              "the paper's full qualitative ordering of the four "
              "configurations holds", _check_ordering),
    ),
    payload=_payload,
    quick_params={"iterations": 300},
))


def main() -> None:
    result = run_fig5()
    print(f"Figure 5: utility vs iteration ({result.iterations} iterations)")
    for label, line in result.series.items():
        settle = line.settling_iteration()
        print(
            f"  {label:>10s}: final {line.utilities[-1]:9.2f}  "
            f"tail oscillation {line.tail_oscillation():8.2f}  "
            f"settles at {settle if settle is not None else '---'}"
        )
    print(f"paper's qualitative ordering holds: {result.ordering_correct()}")


if __name__ == "__main__":
    main()
