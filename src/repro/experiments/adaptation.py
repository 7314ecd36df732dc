"""Experiment: adaptation to resource and workload variation.

The paper's core pitch — "as the optimization is constantly running, the
system is adaptive, and adjusts to both workload and resource variations"
(Section 1) — is asserted but never shown as an experiment.  This driver
exercises both variation kinds on the base workload:

* **resource degradation** (:func:`run_resource_variation`): after the
  optimizer converges, a resource loses 30% of its availability (a
  co-located tenant, a partial failure).  LLA must re-converge to a
  feasible allocation against the reduced capacity, and recover the
  original allocation when the capacity returns.

* **workload change** (:func:`run_workload_variation`): a new task joins
  the running system mid-flight (the optimizer keeps its dual state —
  prices are warm for the incumbent structure).  LLA must fold the
  newcomer in and settle on the enlarged workload's optimum, matching a
  cold-started run on the same workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.optimizer import LLAConfig, LLAOptimizer
from repro.harness import Check, ExperimentSpec, Param, register
from repro.model.events import PeriodicEvent
from repro.model.graph import SubtaskGraph
from repro.model.task import Subtask, Task, TaskSet
from repro.model.utility import LinearUtility
from repro.workloads.paper import scaled_workload

__all__ = [
    "AdaptationPhase",
    "AdaptationResult",
    "ResourceVariationResult",
    "WorkloadVariationResult",
    "InterferenceResult",
    "run_adaptation",
    "run_resource_variation",
    "run_workload_variation",
    "run_undetected_interference",
    "SPEC",
    "INTERFERENCE_SPEC",
]


@dataclass
class AdaptationPhase:
    """Converged state at the end of one phase of a variation scenario."""

    label: str
    iterations: int
    utility: float
    feasible: bool
    max_load: float
    latencies: Dict[str, float]


@dataclass
class ResourceVariationResult:
    phases: List[AdaptationPhase]

    @property
    def baseline(self) -> AdaptationPhase:
        return self.phases[0]

    @property
    def degraded(self) -> AdaptationPhase:
        return self.phases[1]

    @property
    def recovered(self) -> AdaptationPhase:
        return self.phases[2]

    def degradation_absorbed(self) -> bool:
        """Feasible again after losing capacity, at lower utility."""
        return (
            self.degraded.feasible
            and self.degraded.utility < self.baseline.utility
        )

    def recovery_complete(self, tol: float = 1.0) -> bool:
        """Utility returns to the baseline once capacity returns."""
        return abs(self.recovered.utility - self.baseline.utility) <= tol


def _phase(label: str, taskset: TaskSet, optimizer: LLAOptimizer,
           iterations: int) -> AdaptationPhase:
    # Run the full budget: after a model/workload change the dual prices
    # drift slowly toward the new equilibrium, and a utility-stability
    # window mistakes that drift for convergence (see the closed-loop
    # runtime for the same consideration).
    start = optimizer.iteration
    for _ in range(iterations):
        optimizer.step()
    loads = taskset.resource_loads(optimizer.latencies)
    return AdaptationPhase(
        label=label,
        iterations=optimizer.iteration - start,
        utility=taskset.total_utility(optimizer.latencies),
        feasible=taskset.is_feasible(optimizer.latencies, tol=1e-2),
        max_load=max(
            loads[r] / taskset.resources[r].availability
            for r in taskset.resources
        ),
        latencies=dict(optimizer.latencies),
    )


def run_resource_variation(
    resource: str = "r4",
    degraded_availability: float = 0.7,
    iterations_per_phase: int = 2500,
    critical_time_factor: float = 1.5,
) -> ResourceVariationResult:
    """Degrade one resource mid-run, then restore it.

    Uses the base workload with 1.5× critical times: the paper's original
    deadlines leave *zero* slack (all eight resources saturated and all
    critical paths binding at the optimum), so any capacity loss there is
    unabsorbable by construction; the mild overprovisioning gives the
    optimizer somewhere to move.
    """
    taskset = scaled_workload(1, critical_time_factor=critical_time_factor)
    optimizer = LLAOptimizer(taskset, LLAConfig(max_iterations=10 ** 9))
    phases = [_phase("baseline", taskset, optimizer, iterations_per_phase)]

    original = taskset.resources[resource].availability
    taskset.set_availability(resource, degraded_availability)
    optimizer.refresh_model()
    optimizer.detector.reset()
    phases.append(_phase("degraded", taskset, optimizer,
                         iterations_per_phase))

    taskset.set_availability(resource, original)
    optimizer.refresh_model()
    optimizer.detector.reset()
    phases.append(_phase("recovered", taskset, optimizer,
                         iterations_per_phase))
    return ResourceVariationResult(phases=phases)


@dataclass
class WorkloadVariationResult:
    before: AdaptationPhase
    after: AdaptationPhase
    cold_utility: float

    def newcomer_absorbed(self) -> bool:
        return self.after.feasible

    def matches_cold_start(self, tol: float = 1.0) -> bool:
        """The warm continuation reaches the cold-start optimum."""
        return abs(self.after.utility - self.cold_utility) <= tol


def _newcomer(critical_time: float = 150.0) -> Task:
    """A light 3-stage chain using resources r3, r5, r7 (the base
    workload's least-subscribed resources)."""
    names = ["N1", "N2", "N3"]
    return Task(
        name="newcomer",
        subtasks=[
            Subtask("N1", "r3", exec_time=2.0),
            Subtask("N2", "r5", exec_time=3.0),
            Subtask("N3", "r7", exec_time=2.0),
        ],
        graph=SubtaskGraph.chain(names),
        critical_time=critical_time,
        utility=LinearUtility(critical_time, k=2.0),
        variant="path-weighted",
        trigger=PeriodicEvent(100.0),
    )


def run_workload_variation(
    iterations_per_phase: int = 2500,
) -> WorkloadVariationResult:
    """Add a task to the running system; compare against a cold start.

    The warm optimizer keeps the incumbent dual prices: the combined
    workload's optimizer is seeded with them (price warm start across a
    workload change — the "running continuously" mode of Section 4.4).
    """
    def fresh_base() -> TaskSet:
        return scaled_workload(1, critical_time_factor=1.5)

    incumbent_ts = fresh_base()
    incumbent_opt = LLAOptimizer(incumbent_ts,
                                 LLAConfig(max_iterations=10 ** 9))
    before = _phase("incumbent", incumbent_ts, incumbent_opt,
                    iterations_per_phase)

    combined_ts = TaskSet(
        list(fresh_base().tasks) + [_newcomer()],
        list(fresh_base().resources.values()),
    )
    warm_opt = LLAOptimizer(combined_ts, LLAConfig(max_iterations=10 ** 9))
    # Carry the incumbent prices over (the task controllers' λ reset; the
    # resources keep their learned congestion prices).
    warm_opt.adopt_prices(incumbent_opt.mu)
    after = _phase("with-newcomer", combined_ts, warm_opt,
                   iterations_per_phase)

    cold_ts = TaskSet(
        list(fresh_base().tasks) + [_newcomer()],
        list(fresh_base().resources.values()),
    )
    cold = LLAOptimizer(cold_ts, LLAConfig(max_iterations=3000)).run()
    return WorkloadVariationResult(
        before=before, after=after, cold_utility=cold.utility
    )


@dataclass
class AdaptationResult:
    """Both variation scenarios, run back to back."""

    resource: ResourceVariationResult
    workload: WorkloadVariationResult


def run_adaptation(
    iterations_per_phase: int = 2500,
    degraded_availability: float = 0.7,
) -> AdaptationResult:
    """Run the resource-degradation and workload-change scenarios."""
    return AdaptationResult(
        resource=run_resource_variation(
            degraded_availability=degraded_availability,
            iterations_per_phase=iterations_per_phase,
        ),
        workload=run_workload_variation(
            iterations_per_phase=iterations_per_phase,
        ),
    )


def _check_degradation_absorbed(result: AdaptationResult):
    res = result.resource
    passed = res.baseline.feasible and res.degradation_absorbed()
    return passed, {"baseline_utility": res.baseline.utility,
                    "degraded_utility": res.degraded.utility}


def _check_recovery_complete(result: AdaptationResult):
    res = result.resource
    return res.recovery_complete(), {
        "baseline_utility": res.baseline.utility,
        "recovered_utility": res.recovered.utility,
    }


def _check_newcomer_absorbed(result: AdaptationResult):
    wl = result.workload
    return wl.newcomer_absorbed(), {"warm_utility": wl.after.utility}


def _check_matches_cold_start(result: AdaptationResult):
    wl = result.workload
    return wl.matches_cold_start(), {
        "warm_utility": wl.after.utility,
        "cold_utility": wl.cold_utility,
    }


def _adaptation_payload(result: AdaptationResult):
    return {
        "resource_phases": [
            {"label": p.label, "utility": p.utility, "feasible": p.feasible,
             "max_load": p.max_load, "iterations": p.iterations}
            for p in result.resource.phases
        ],
        "workload": {
            "incumbent_utility": result.workload.before.utility,
            "warm_utility": result.workload.after.utility,
            "warm_feasible": result.workload.after.feasible,
            "cold_utility": result.workload.cold_utility,
        },
    }


SPEC = register(ExperimentSpec(
    name="adaptation",
    description="Adaptation to resource degradation and a mid-flight "
                "workload change",
    source="Section 1 (the 'constantly running' claim; ours)",
    runner=run_adaptation,
    params=(
        Param("iterations_per_phase", int, 2500,
              "optimizer iterations per scenario phase"),
        Param("degraded_availability", float, 0.7,
              "availability of r4 during the degradation phase"),
    ),
    checks=(
        Check("degradation_absorbed",
              "after losing 30% of r4 the system re-converges feasibly "
              "at lower utility", _check_degradation_absorbed),
        Check("recovery_complete",
              "utility returns to the baseline once capacity returns",
              _check_recovery_complete),
        Check("newcomer_absorbed",
              "a task joining the running system lands on a feasible "
              "allocation", _check_newcomer_absorbed),
        Check("warm_start_matches_cold_start",
              "the warm continuation reaches the cold-start optimum",
              _check_matches_cold_start),
    ),
    payload=_adaptation_payload,
    quick_params={"iterations_per_phase": 1500},
))


def main() -> None:
    print("Resource variation (r4 availability 1.0 -> 0.7 -> 1.0):")
    result = run_resource_variation()
    for phase in result.phases:
        print(f"  {phase.label:10s} utility {phase.utility:8.2f}  "
              f"feasible {phase.feasible}  max load/B "
              f"{phase.max_load:.3f}  ({phase.iterations} iterations)")
    print(f"  degradation absorbed: {result.degradation_absorbed()}")
    print(f"  recovery complete   : {result.recovery_complete()}")
    print()
    print("Workload variation (a 4th task joins the running system):")
    wresult = run_workload_variation()
    print(f"  incumbent utility     : {wresult.before.utility:8.2f}")
    print(f"  with newcomer (warm)  : {wresult.after.utility:8.2f} "
          f"feasible {wresult.after.feasible}")
    print(f"  cold-start reference  : {wresult.cold_utility:8.2f}")
    print(f"  matches cold start    : {wresult.matches_cold_start()}")
    print()
    print("Undetected interference (simulator-side, model cannot see it):")
    iresult = run_undetected_interference()
    print(f"  fast share  : {iresult.fast_share_before:.3f} -> "
          f"{iresult.fast_share_during:.3f}")
    print(f"  fast error  : {iresult.fast_error_before:+.1f} -> "
          f"{iresult.fast_error_during:+.1f} ms")
    print(f"  fast e2e p99: adaptive {iresult.fast_p99_adaptive:.1f} ms vs "
          f"frozen {iresult.fast_p99_frozen:.1f} ms "
          f"(deadline {iresult.critical_time:.0f} ms)")
    print(f"  correction reacted: {iresult.correction_reacted()}")
    print(f"  adaptation helps  : {iresult.adaptation_helps()}")




# -- undetected interference (closed loop + error correction) ---------------------

@dataclass
class InterferenceResult:
    """Closed-loop reaction to interference the model cannot see."""

    fast_share_before: float
    fast_share_during: float
    fast_error_before: float
    fast_error_during: float
    fast_p99_frozen: float
    fast_p99_adaptive: float
    critical_time: float

    def correction_reacted(self) -> bool:
        """The smoothed error must rise (less over-prediction) and the
        fast share must be raised to defend the deadline."""
        return (
            self.fast_error_during > self.fast_error_before + 1.0
            and self.fast_share_during > self.fast_share_before + 0.01
        )

    def adaptation_helps(self) -> bool:
        """Adaptive shares beat frozen shares under the same interference."""
        return self.fast_p99_adaptive < self.fast_p99_frozen


def run_undetected_interference(
    warmup_epochs: int = 10,
    interference_epochs: int = 15,
    extra_weight: float = 0.25,
    window: float = 2000.0,
    seed: int = 21,
) -> InterferenceResult:
    """Inject simulator-side interference the optimizer's model cannot see.

    Phase A: the Section 6.3 closed loop converges with error correction
    (fast tasks at their minimum rate share, errors strongly negative —
    the worst-case model over-predicts).  Phase B: every CPU gains an
    unannounced background consumer.  Observed latencies rise, the
    additive errors climb toward zero, the corrected model demands more
    share for the same deadline, and the optimizer re-defends the fast
    tasks' 105 ms critical time.  A frozen-share control run quantifies
    the benefit.
    """
    from repro.core.optimizer import LLAConfig
    from repro.sim.closedloop import ClosedLoopRuntime
    from repro.workloads.paper import prototype_workload

    def build_runtime() -> ClosedLoopRuntime:
        runtime = ClosedLoopRuntime(
            prototype_workload(), window=window, model="gps", seed=seed,
            optimizer_config=LLAConfig(max_iterations=3000),
        )
        runtime.enable_correction()
        runtime.run_epochs(warmup_epochs)
        return runtime

    # Adaptive run: correction stays on through the interference.
    adaptive = build_runtime()
    before = adaptive.history[-1]
    for rname in adaptive.taskset.resources:
        adaptive.system.inject_interference(rname, extra_weight)
    adaptive.run_epochs(interference_epochs)
    during = adaptive.history[-1]
    fast_p99_adaptive = adaptive.system.recorder.jobset_percentile(
        "fast1", 99.0
    )

    # Frozen control: same warmup, then correction (and hence any share
    # movement) disabled while the interference runs.
    frozen = build_runtime()
    for rname in frozen.taskset.resources:
        frozen.system.inject_interference(rname, extra_weight)
    frozen.disable_correction()
    frozen.optimizer_steps_per_epoch = 0      # hold shares still
    frozen.run_epochs(interference_epochs)
    fast_p99_frozen = frozen.system.recorder.jobset_percentile(
        "fast1", 99.0
    )

    return InterferenceResult(
        fast_share_before=before.shares["fast1_s0"],
        fast_share_during=during.shares["fast1_s0"],
        fast_error_before=before.smoothed_errors["fast1_s0"],
        fast_error_during=during.smoothed_errors["fast1_s0"],
        fast_p99_frozen=fast_p99_frozen,
        fast_p99_adaptive=fast_p99_adaptive,
        critical_time=105.0,
    )


def _check_correction_reacted(result: InterferenceResult):
    return result.correction_reacted(), {
        "fast_share_before": result.fast_share_before,
        "fast_share_during": result.fast_share_during,
        "fast_error_before": result.fast_error_before,
        "fast_error_during": result.fast_error_during,
    }


def _check_adaptation_helps(result: InterferenceResult):
    return result.adaptation_helps(), {
        "fast_p99_adaptive": result.fast_p99_adaptive,
        "fast_p99_frozen": result.fast_p99_frozen,
    }


def _check_tail_halved(result: InterferenceResult):
    passed = result.fast_p99_adaptive < 0.5 * result.fast_p99_frozen
    return passed, {
        "p99_ratio": result.fast_p99_adaptive
        / max(result.fast_p99_frozen, 1e-9),
    }


def _interference_payload(result: InterferenceResult):
    return {
        "fast_share_before": result.fast_share_before,
        "fast_share_during": result.fast_share_during,
        "fast_error_before": result.fast_error_before,
        "fast_error_during": result.fast_error_during,
        "fast_p99_frozen": result.fast_p99_frozen,
        "fast_p99_adaptive": result.fast_p99_adaptive,
        "critical_time": result.critical_time,
    }


INTERFERENCE_SPEC = register(ExperimentSpec(
    name="interference",
    description="Closed-loop reaction to interference the model cannot "
                "see, vs a frozen-share control",
    source="Section 6.3 machinery under an unmodeled disturbance (ours)",
    runner=run_undetected_interference,
    params=(
        Param("warmup_epochs", int, 10,
              "closed-loop epochs before the interference starts"),
        Param("interference_epochs", int, 15,
              "closed-loop epochs with the background consumers active"),
        Param("extra_weight", float, 0.25,
              "GPS weight of the unannounced consumer on every CPU"),
        Param("window", float, 2000.0, "sampling window per epoch (ms)"),
        Param("seed", int, 21, "simulator RNG seed"),
    ),
    checks=(
        Check("correction_reacted",
              "the smoothed error rises and the threatened fast share "
              "is raised to defend the deadline",
              _check_correction_reacted),
        Check("adaptation_helps",
              "adaptive shares beat frozen shares on p99 end-to-end "
              "latency under the same interference",
              _check_adaptation_helps),
        Check("adaptive_tail_at_most_half_frozen",
              "the adaptive p99 is less than half the frozen-share p99",
              _check_tail_halved, quick=False),
    ),
    payload=_interference_payload,
    quick_params={"warmup_epochs": 6, "interference_epochs": 8,
                  "window": 1000.0},
))


if __name__ == "__main__":
    main()
