"""Experiment: Figure 8 — the prototype with online model error correction.

The Section 6 system experiment, on our simulated substrate: four 3-subtask
chain tasks over three share-scheduled CPUs (fast: 5 ms WCET @ 40/s,
C = 105 ms; slow: 13 ms WCET @ 10/s, C = 800 ms; 0.1 share reserved for the
garbage collector; utility ``f(lat) = −lat``).

Phase A runs the optimizer on the raw worst-case model; phase B enables
additive error correction.  Paper claims checked:

* before correction, the optimizer gives the fast tasks more than their
  minimum rate share to meet the tight critical time, the remainder going
  to the slow tasks (paper: 0.26 / 0.19; ours: ≈ 0.29 / 0.16 — the exact
  split depends on the model, but the structure — fast above minimum,
  slow taking the rest, CPUs saturated — is the same);
* after correction, the optimizer discovers the fast critical time is met
  with *less* share and descends to the fast tasks' minimum rate share
  (0.2), reallocating the surplus to the slow tasks (0.25) — the paper's
  −23 % / +32 % reallocation (ours is larger in magnitude, same shape);
* raw errors keep fluctuating, but the smoothed error's mean stabilizes
  once the shares converge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.optimizer import LLAConfig
from repro.harness import Check, ExperimentSpec, Param, register
from repro.sim.closedloop import ClosedLoopRuntime, EpochRecord
from repro.workloads.paper import (
    PROTOTYPE_FAST_MIN_SHARE,
    prototype_workload,
)

__all__ = ["Fig8Result", "run_fig8", "SPEC"]

#: Representative subtasks plotted by the paper (one fast, one slow).
FAST_REP = "fast1_s0"
SLOW_REP = "slow1_s0"


@dataclass
class Fig8Result:
    """Share and error trajectories of the prototype experiment."""

    history: List[EpochRecord]
    correction_epoch: int
    fast_share_trace: List[float]
    slow_share_trace: List[float]
    fast_error_trace: List[float]
    fast_share_before: float
    slow_share_before: float
    fast_share_after: float
    slow_share_after: float

    @property
    def fast_change_percent(self) -> float:
        return 100.0 * (self.fast_share_after - self.fast_share_before) \
            / self.fast_share_before

    @property
    def slow_change_percent(self) -> float:
        return 100.0 * (self.slow_share_after - self.slow_share_before) \
            / self.slow_share_before

    def fast_reaches_min_share(self, tol: float = 0.01) -> bool:
        """Paper: the fast subtasks descend to their 0.2 rate share."""
        return abs(self.fast_share_after - PROTOTYPE_FAST_MIN_SHARE) <= tol

    def slow_gains_surplus(self) -> bool:
        """Paper: the freed share goes to the slow subtasks."""
        return self.slow_share_after > self.slow_share_before + 0.01

    def error_mean_stabilizes(self, window: int = 5, tol: float = 0.35) -> bool:
        """Smoothed error shows a stable mean once shares converge."""
        tail = np.asarray(self.fast_error_trace[-2 * window:])
        if tail.size < 2 * window:
            return False
        first, second = tail[:window], tail[window:]
        scale = max(1.0, abs(float(np.mean(tail))))
        return abs(float(np.mean(first) - np.mean(second))) / scale <= tol


def run_fig8(
    epochs_before: int = 6,
    epochs_after: int = 20,
    window: float = 2000.0,
    model: str = "gps",
    seed: int = 7,
) -> Fig8Result:
    """Run the Figure 8 closed-loop experiment.

    ``window`` is the sampling window per control epoch in ms; correction
    is enabled after ``epochs_before`` epochs (the paper's time-277 mark).
    """
    taskset = prototype_workload()
    runtime = ClosedLoopRuntime(
        taskset,
        window=window,
        model=model,
        seed=seed,
        optimizer_config=LLAConfig(max_iterations=3000),
    )
    runtime.run_epochs(epochs_before)
    before = runtime.history[-1]
    runtime.enable_correction()
    runtime.run_epochs(epochs_after)
    after = runtime.history[-1]

    return Fig8Result(
        history=list(runtime.history),
        correction_epoch=epochs_before,
        fast_share_trace=runtime.share_trace(FAST_REP),
        slow_share_trace=runtime.share_trace(SLOW_REP),
        fast_error_trace=runtime.error_trace(FAST_REP),
        fast_share_before=before.shares[FAST_REP],
        slow_share_before=before.shares[SLOW_REP],
        fast_share_after=after.shares[FAST_REP],
        slow_share_after=after.shares[SLOW_REP],
    )


def _check_overallocated_before(result: Fig8Result):
    passed = result.fast_share_before > PROTOTYPE_FAST_MIN_SHARE + 0.05
    return passed, {"fast_share_before": result.fast_share_before,
                    "min_rate_share": PROTOTYPE_FAST_MIN_SHARE}


def _check_fast_reaches_min(result: Fig8Result):
    return result.fast_reaches_min_share(), {
        "fast_share_after": result.fast_share_after,
        "min_rate_share": PROTOTYPE_FAST_MIN_SHARE,
    }


def _check_slow_gains(result: Fig8Result):
    return result.slow_gains_surplus(), {
        "slow_share_before": result.slow_share_before,
        "slow_share_after": result.slow_share_after,
    }


def _check_slow_endpoint(result: Fig8Result):
    passed = abs(result.slow_share_after - 0.25) <= 0.01
    return passed, {"slow_share_after": result.slow_share_after}


def _check_reallocation_signs(result: Fig8Result):
    passed = (result.fast_change_percent < -15.0
              and result.slow_change_percent > 20.0)
    return passed, {"fast_change_percent": result.fast_change_percent,
                    "slow_change_percent": result.slow_change_percent}


def _check_error_stabilizes(result: Fig8Result):
    return result.error_mean_stabilizes(), {
        "final_smoothed_error": result.fast_error_trace[-1],
    }


def _payload(result: Fig8Result):
    return {
        "correction_epoch": result.correction_epoch,
        "fast_share_before": result.fast_share_before,
        "fast_share_after": result.fast_share_after,
        "slow_share_before": result.slow_share_before,
        "slow_share_after": result.slow_share_after,
        "fast_change_percent": result.fast_change_percent,
        "slow_change_percent": result.slow_change_percent,
        "fast_share_trace": result.fast_share_trace,
        "slow_share_trace": result.slow_share_trace,
        "fast_error_trace": result.fast_error_trace,
    }


SPEC = register(ExperimentSpec(
    name="fig8",
    description="Figure 8: prototype with online model error correction",
    source="Section 6, Figure 8",
    runner=run_fig8,
    params=(
        Param("epochs_before", int, 6,
              "control epochs before correction is enabled"),
        Param("epochs_after", int, 20, "control epochs with correction"),
        Param("window", float, 2000.0, "sampling window per epoch (ms)"),
        Param("model", str, "gps",
              "simulator scheduling model: 'gps' or 'quantum'"),
        Param("seed", int, 7, "simulator RNG seed"),
    ),
    checks=(
        Check("overallocated_before_correction",
              "before correction the fast tasks hold more than their "
              "minimum rate share (paper: 0.26 vs the 0.2 floor)",
              _check_overallocated_before),
        Check("fast_reaches_min_share",
              "after correction the fast tasks descend to their "
              "minimum rate share (0.2)", _check_fast_reaches_min,
              quick=False),
        Check("slow_gains_surplus",
              "the freed share is reallocated to the slow tasks",
              _check_slow_gains),
        Check("slow_reaches_quarter",
              "the slow tasks settle at ~0.25 (the paper's endpoint)",
              _check_slow_endpoint, quick=False),
        Check("reallocation_signs_match_paper",
              "the reallocation matches the paper's sign pattern and "
              "magnitude band (paper: -23% / +32%)",
              _check_reallocation_signs, quick=False),
        Check("error_mean_stabilizes",
              "raw errors keep fluctuating but the smoothed error's "
              "mean stabilizes once shares converge",
              _check_error_stabilizes, quick=False),
    ),
    payload=_payload,
    quick_params={"epochs_before": 2, "epochs_after": 6, "window": 1000.0},
))


def main() -> None:
    result = run_fig8()
    print("Figure 8: system experiment with model error correction")
    print(f"  correction enabled after epoch {result.correction_epoch}")
    print(f"  fast share: {result.fast_share_before:.3f} -> "
          f"{result.fast_share_after:.3f} ({result.fast_change_percent:+.0f}%)"
          f"   [paper: 0.26 -> 0.20 (-23%)]")
    print(f"  slow share: {result.slow_share_before:.3f} -> "
          f"{result.slow_share_after:.3f} ({result.slow_change_percent:+.0f}%)"
          f"   [paper: 0.19 -> 0.25 (+32%)]")
    print(f"  fast reaches minimum rate share (0.2): "
          f"{result.fast_reaches_min_share()}")
    print(f"  slow gains the surplus: {result.slow_gains_surplus()}")
    print(f"  error mean stabilizes: {result.error_mean_stabilizes()}")
    fast = ", ".join(f"{s:.3f}" for s in result.fast_share_trace)
    slow = ", ".join(f"{s:.3f}" for s in result.slow_share_trace)
    print(f"  fast share trace: {fast}")
    print(f"  slow share trace: {slow}")


if __name__ == "__main__":
    main()
