"""The LLA optimizer: iterative latency allocation + price computation.

This is the in-process ("centralized execution of the distributed
algorithm") form of LLA used for the simulation experiments of Section 5.
Each iteration performs exactly what the paper's two algorithm boxes
describe, in order:

1. every task controller receives the current resource prices, updates its
   path prices (Eq. 9), and computes new subtask latencies from the
   Lagrangian stationarity condition (Eq. 7);
2. every resource receives the new latencies of the subtasks it hosts and
   updates its price (Eq. 8);
3. the step-size policy observes which resources/paths are congested (the
   adaptive heuristic of Section 5.2).

The iteration runs as whole-array operations on the batched kernel of
:mod:`repro.core.vectorized`, over the compiled
:class:`~repro.core.structure.TaskSetStructure`.  Its model family is the
paper's: power-law shares with linear, inelastic, log or quadratic
utilities (:func:`repro.core.structure.task_model`); anything else is
refused at construction.

The message-passing form with explicit controller/resource agents lives in
:mod:`repro.distributed`; it produces identical iterates under a lossless
synchronous bus (asserted by integration tests).
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, FrozenSet, Mapping, Optional, Tuple, Union,
)

import numpy as np

from repro.errors import OptimizationError
from repro.core.convergence import ConvergenceDetector
from repro.core.state import IterationRecord, OptimizationResult, PathKey
from repro.core.stepsize import (
    DEFAULT_MAX_GAMMA,
    FixedStepSize,
    StepSizePolicy,
)
from repro.core.structure import TaskSetStructure
from repro.core.vectorized import (
    ArrayRecord,
    VectorizedEngine,
    arrays_feasible,
    compute_loads,
    path_latencies,
)
from repro.model.task import TaskSet
from repro.telemetry import NULL_TELEMETRY, Telemetry, encode_record

__all__ = ["LLAConfig", "LLAOptimizer"]

logger = logging.getLogger(__name__)


@dataclass
class LLAConfig:
    """Tunables of an LLA run.

    Defaults reproduce the paper's best configuration: adaptive step sizes
    starting at γ = 1, initial resource price 1, initial path price 0.

    Attributes
    ----------
    max_iterations:
        Iteration budget (Section 5 runs use 100–1500).
    step_policy:
        An exact :class:`~repro.core.stepsize.FixedStepSize` or
        :class:`~repro.core.stepsize.AdaptiveStepSize` (the kernel folds
        these two and raises :class:`~repro.errors.OptimizationError` on
        any other type), or ``None`` for the paper's adaptive policy
        starting at ``initial_gamma``.
    initial_gamma:
        Starting γ for the default adaptive policy, whose cap is
        :data:`~repro.core.stepsize.DEFAULT_MAX_GAMMA` (8): without a
        ``step_policy``, a value above the cap is refused.
    initial_resource_price / initial_path_price:
        Dual-variable initialization.
    utility_tol / convergence_window / feasibility_tol / require_feasible /
    utility_floor:
        Convergence detector settings (see
        :class:`~repro.core.convergence.ConvergenceDetector`).
    congestion_tol:
        Slack below which a constraint still counts as satisfied when
        classifying congestion for the adaptive heuristic.
    record_history:
        Keep an :class:`~repro.core.state.IterationRecord` per iteration.
    max_latency_factor:
        Upper latency clamp as a multiple of the critical time.
    stop_on_convergence:
        When ``False``, always run the full iteration budget (used by the
        figure drivers, which want fixed-length traces).
    warm_start:
        Initialize each resource price at its locally-estimable
        equilibrium value (see :mod:`repro.core.warmstart`) instead of
        ``initial_resource_price``.  Exact in the overprovisioned regime;
        a large head start elsewhere.
    backend:
        Only ``"vectorized"``, the one LLA kernel; any other value raises
        :class:`~repro.errors.OptimizationError`.
    """

    max_iterations: int = 500
    step_policy: Optional[StepSizePolicy] = None
    initial_gamma: float = 1.0
    initial_resource_price: float = 1.0
    initial_path_price: float = 0.0
    utility_tol: float = 1e-4
    convergence_window: int = 10
    feasibility_tol: float = 1e-2
    require_feasible: bool = True
    utility_floor: float = 1e-6
    congestion_tol: float = 1e-9
    record_history: bool = True
    max_latency_factor: float = 1.0
    stop_on_convergence: bool = True
    warm_start: bool = False
    backend: str = "vectorized"

    def __post_init__(self) -> None:
        """Reject inconsistent knobs at construction (REP008): a bad
        budget or tolerance caught here would otherwise surface hundreds
        of iterations later as a spurious non-convergence."""
        for name in ("initial_gamma", "initial_resource_price",
                     "initial_path_price", "utility_tol", "feasibility_tol",
                     "utility_floor", "congestion_tol", "max_latency_factor"):
            # NaN passes every comparison below; a NaN or infinite γ or
            # price runs the whole budget and returns utility nan.
            value = getattr(self, name)
            if not math.isfinite(value):
                raise OptimizationError(f"{name} must be finite, got {value!r}")
        if self.max_iterations < 1:
            raise OptimizationError(
                f"max_iterations must be >= 1, got {self.max_iterations!r}"
            )
        if self.backend != "vectorized":
            raise OptimizationError(
                f"unknown backend {self.backend!r}; LLA runs on one "
                "kernel, 'vectorized'"
            )
        if self.initial_gamma <= 0.0:
            raise OptimizationError(
                f"initial_gamma must be positive, got {self.initial_gamma!r}"
            )
        if self.step_policy is None and \
                self.initial_gamma > DEFAULT_MAX_GAMMA:
            raise OptimizationError(
                f"initial_gamma {self.initial_gamma!r} is above the default "
                f"adaptive policy's cap {DEFAULT_MAX_GAMMA!r}; pass an "
                "AdaptiveStepSize with a larger max_gamma as step_policy"
            )
        if self.initial_resource_price <= 0.0:
            # A zero dual price makes the first latency assignment
            # degenerate (shares divide by the price).
            raise OptimizationError(
                f"initial_resource_price must be positive, "
                f"got {self.initial_resource_price!r}"
            )
        if self.initial_path_price < 0.0:
            raise OptimizationError(
                f"initial_path_price must be >= 0, "
                f"got {self.initial_path_price!r}"
            )
        if self.utility_tol <= 0.0:
            raise OptimizationError(
                f"utility_tol must be positive, got {self.utility_tol!r}"
            )
        if self.convergence_window < 1:
            raise OptimizationError(
                f"convergence_window must be >= 1, "
                f"got {self.convergence_window!r}"
            )
        if self.feasibility_tol < 0.0:
            raise OptimizationError(
                f"feasibility_tol must be >= 0, got {self.feasibility_tol!r}"
            )
        if self.utility_floor <= 0.0:
            raise OptimizationError(
                f"utility_floor must be positive, got {self.utility_floor!r}"
            )
        if self.congestion_tol < 0.0:
            raise OptimizationError(
                f"congestion_tol must be >= 0, got {self.congestion_tol!r}"
            )
        if self.max_latency_factor < 1.0:
            raise OptimizationError(
                f"max_latency_factor must be >= 1, "
                f"got {self.max_latency_factor!r}"
            )

    @staticmethod
    def fixed(gamma: float, **kwargs: Any) -> "LLAConfig":
        """Convenience: a config with a fixed step size (Figure 5's γ runs)."""
        return LLAConfig(step_policy=FixedStepSize(gamma), **kwargs)


class LLAOptimizer:
    """Runs LLA on one problem: a :class:`~repro.model.task.TaskSet` or
    its compiled :class:`~repro.core.structure.TaskSetStructure`.

    Its engine owns the dual state (prices) and the last primal iterate
    (latencies).  :meth:`run` executes a batch of iterations;
    :meth:`step` executes one, so callers that interleave optimization with
    a running system (the Section 6 prototype pattern) can drive it
    manually.

    A structure (compiled at the configured ``max_latency_factor``) is
    iterated as it is; a task set is compiled first.  :attr:`taskset` is
    the task set passed in, else ``None``: :meth:`refresh_model` and
    ``LLAConfig.warm_start`` read it and raise
    :class:`~repro.errors.OptimizationError` without one, as does a task
    set outside the kernel's model family, naming the offending model.

    The engine's arrays are the only copy of the iterate.  An iteration
    works from its :class:`~repro.core.vectorized.StepArrays` alone: the
    convergence detector gets a feasibility verdict computed from them,
    and the name-keyed views — the :class:`IterationRecord` fields,
    :attr:`latencies`, :attr:`resource_prices` — are built only when
    something reads them.
    """

    def __init__(self, problem: Union[TaskSet, TaskSetStructure],
                 config: Optional[LLAConfig] = None,
                 on_iteration: Optional[Callable[[IterationRecord], None]] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.taskset: Optional[TaskSet] = \
            None if isinstance(problem, TaskSetStructure) else problem
        self.config = config or LLAConfig()
        self.on_iteration = on_iteration
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._metrics: Optional[Dict[str, Any]] = None
        self._prev_congested: Optional[
            Tuple[FrozenSet[str], FrozenSet[PathKey]]
        ] = None

        self.detector = ConvergenceDetector(
            utility_tol=self.config.utility_tol,
            window=self.config.convergence_window,
            feasibility_tol=self.config.feasibility_tol,
            require_feasible=self.config.require_feasible,
            utility_floor=self.config.utility_floor,
        )
        self._engine = VectorizedEngine(problem, self.config,
                                        telemetry=self.telemetry)
        # The last iteration's record; None until a step, and again after
        # every re-solve of the primal iterate outside a step.  The
        # latency map is built on first read.
        self._record: Optional[ArrayRecord] = None
        self._latencies: Optional[Dict[str, float]] = None
        self.iteration = 0
        # Trace timestamps follow the iteration counter (the optimizer's
        # virtual clock) so identical runs write identical event streams,
        # unless the caller injected a clock of their own.
        tracer = self.telemetry.tracer
        if tracer.enabled and not tracer.clock_injected:
            tracer.set_clock(lambda: float(self.iteration))
        if self.config.warm_start:
            from repro.core.warmstart import apply_warm_start
            apply_warm_start(self)

    @property
    def latencies(self) -> Dict[str, float]:
        """The current primal iterate, subtask name → latency, built on
        first read: the last record's map, or the engine's array's after
        a re-solve."""
        if self._latencies is None:
            record = self._record
            self._latencies = record.latencies if record is not None \
                else dict(zip(self.structure.subtask_names, self.lat.tolist()))
        return self._latencies

    @property
    def lat(self) -> np.ndarray:
        """The current primal iterate as the engine's array, in
        ``structure.subtask_names`` order.  The engine replaces the array
        instead of writing into it, so a held one keeps its iterate."""
        return self._engine.lat

    @property
    def resource_prices(self) -> Dict[str, float]:
        """Resource name → price μ_r: a new map built from the engine's
        array on every read.  Writing into it changes nothing;
        :meth:`adopt_prices` installs prices."""
        return dict(zip(self.structure.resource_names,
                        self._engine.mu.tolist()))

    @property
    def structure(self) -> TaskSetStructure:
        """The compiled structure the kernel iterates over.  Consumers
        that can read allocation facts from its arrays should prefer it
        over re-traversing the :class:`~repro.model.task.TaskSet` object
        graph (REP016)."""
        return self._engine.structure

    def refresh_model(self) -> None:
        """Re-read share functions after an external model change.

        Error correction swaps share functions on the task set (and
        resource availabilities may shift at run time); the kernel's model
        arrays — share coefficients, latency bounds, ``B_r`` — must be
        recompiled from :attr:`taskset`.
        """
        if self.taskset is None:
            raise OptimizationError(
                "refresh_model() re-reads the task set, and this optimizer "
                "was built on a compiled structure alone"
            )
        self._engine.refresh_model(self.taskset)
        # The last step's loads predate the refresh: its latencies stand,
        # measured again on the refreshed model.
        self._record = None
        self.detector.revise_verdict(self.feasible())

    def feasible(self, tol: Optional[float] = None) -> bool:
        """Whether the current iterate satisfies Eqs. 3–4 within ``tol``
        (default: the detector's ``feasibility_tol``).

        The verdict comes from the last step's loads and path sums, or,
        right after a re-solve or a model refresh, from the engine's
        latency array measured on the compiled structure.
        """
        tol = self.detector.feasibility_tol if tol is None else float(tol)
        structure = self._engine.structure
        if self._record is None:
            lat = self._engine.lat
            return arrays_feasible(structure, compute_loads(structure, lat),
                                   path_latencies(structure, lat), tol)
        out = self._record.arrays
        return arrays_feasible(structure, out.loads, out.path_lat, tol)

    def adopt_prices(self, resource_prices: Mapping[str, float]) -> None:
        """Adopt ``resource_prices`` as the dual iterate, consistently.

        One engine call (:meth:`VectorizedEngine.adopt_prices`) installs
        the given μ — a resource the map leaves out keeps its current
        price, an unknown one raises
        :class:`~repro.errors.OptimizationError` — resets every path price
        λ to the configured initial value, snaps step-size escalation back
        to the initial γ and solves Eq. 7 once; the convergence window is
        cleared too.  Afterwards the iterate is exactly that of a fresh
        instance constructed at these resource prices, with no stale λ or
        escalated γ from a previous run.  This is the single entry point
        for warm starts, snapshot restores and the service's churn path.
        """
        self._engine.adopt_prices(resource_prices)
        self.detector.reset()
        self._record = None
        self._latencies = None

    # -- iteration ---------------------------------------------------------------

    def step(self) -> IterationRecord:
        """One full LLA iteration; returns its record.

        Telemetry never influences the iterates: instrumentation only reads
        optimizer state, so a traced run is bit-identical to an untraced
        one (asserted by a regression test).
        """
        instrumented = self.telemetry.enabled
        if instrumented:
            started = time.perf_counter()
            prev_mu = self._engine.mu

        record = self._iterate()

        if instrumented:
            self._observe_iteration(
                record, prev_mu, time.perf_counter() - started
            )
        if self.on_iteration is not None:
            self.on_iteration(record)
        return record

    def _iterate(self) -> IterationRecord:
        """One iteration through the batched numpy kernel, kept in array
        form: the detector's feasibility verdict comes from the kernel's
        arrays, and the record builds name-keyed fields on first read."""
        structure = self._engine.structure
        out = self._engine.step_arrays()
        utility = out.utility()
        self.detector.observe_verdict(utility, arrays_feasible(
            structure, out.loads, out.path_lat,
            self.detector.feasibility_tol,
        ))
        self.iteration += 1
        self._record = ArrayRecord(self.iteration, utility, structure, out)
        self._latencies = None
        return self._record

    def _observe_iteration(self, record: IterationRecord,
                           prev_mu: np.ndarray, duration: float) -> None:
        """Feed one iteration into the metrics registry and the tracer."""
        if self._metrics is None:
            registry = self.telemetry.registry
            self._metrics = {
                "iterations": registry.counter(
                    "lla.iterations_total", "LLA iterations executed"),
                "timer": registry.timer(
                    "lla.iteration_seconds", "wall time per LLA iteration",
                    max_samples=4096),
                "utility": registry.gauge(
                    "lla.utility", "total utility at the last iterate"),
                "price_drift": registry.gauge(
                    "lla.price_drift",
                    "mean |Δμ_r| over the last iteration"),
                "congested_resources": registry.counter(
                    "lla.congested_resources_total",
                    "congested-resource observations (resource-iterations)"),
                "congested_paths": registry.counter(
                    "lla.congested_paths_total",
                    "congested-path observations (path-iterations)"),
                "idle_path_steps": registry.counter(
                    "lla.idle_path_steps_total",
                    "iterations whose Eq. 9 update was skipped"),
            }
        m = self._metrics
        deltas = [
            abs(price - prev) for price, prev in
            zip(self._engine.mu.tolist(), prev_mu.tolist())
        ]
        drift = sum(deltas) / len(deltas) if deltas else 0.0
        m["iterations"].inc()
        m["timer"].observe(duration)
        m["utility"].set(record.utility)
        m["price_drift"].set(drift)
        m["congested_resources"].inc(len(record.congested_resources))
        m["congested_paths"].inc(len(record.congested_paths))
        if self._engine.idle_path_step:
            m["idle_path_steps"].inc()

        tracer = self.telemetry.tracer
        if tracer.enabled:
            tracer.emit("iteration", duration_s=duration,
                        **encode_record(record))
            if drift > 0.0:
                tracer.emit(
                    "price_update", iteration=record.iteration,
                    mean_abs_delta=drift, max_abs_delta=max(deltas),
                )
            congested = (
                frozenset(record.congested_resources),
                frozenset(record.congested_paths),
            )
            if self._prev_congested is not None and \
                    congested != self._prev_congested:
                prev_r, prev_p = self._prev_congested
                tracer.emit(
                    "congestion_flip", iteration=record.iteration,
                    resources_entered=sorted(congested[0] - prev_r),
                    resources_left=sorted(prev_r - congested[0]),
                    paths_entered=sorted(str(k) for k in congested[1] - prev_p),
                    paths_left=sorted(str(k) for k in prev_p - congested[1]),
                )
            self._prev_congested = congested

    def run(self, max_iterations: Optional[int] = None) -> OptimizationResult:
        """Run until convergence or the iteration budget is exhausted
        (``max_iterations`` iterations, default the configured budget)."""
        budget = self.config.max_iterations if max_iterations is None \
            else max_iterations
        if budget < 1:
            raise OptimizationError(
                f"max_iterations must be >= 1, got {max_iterations!r}"
            )
        tracer = self.telemetry.tracer
        if tracer.enabled:
            structure = self._engine.structure
            tracer.emit(
                "run_started", runtime="optimizer",
                starting_iteration=self.iteration, budget=budget,
                tasks=len(structure.task_names),
                subtasks=structure.n_subtasks,
                resources=structure.n_resources,
            )
        debug = logger.isEnabledFor(logging.DEBUG)
        history = []
        converged = False
        record: Optional[IterationRecord] = None
        for _ in range(budget):
            record = self.step()
            if debug:
                logger.debug(
                    "iteration %d: utility %.6f, %d congested resources, "
                    "%d congested paths", record.iteration, record.utility,
                    len(record.congested_resources),
                    len(record.congested_paths),
                )
            if self.config.record_history:
                history.append(record)
            if self.config.stop_on_convergence and self.detector.converged():
                converged = True
                break
        if not converged and self.detector.converged():
            converged = True
        assert record is not None  # budget >= 1
        final_utility = record.utility
        if converged:
            if tracer.enabled:
                tracer.emit("convergence", iteration=self.iteration,
                            utility=float(final_utility))
        elif self.config.stop_on_convergence:
            logger.warning(
                "LLA did not converge within %d iterations "
                "(utility %.6f at iteration %d)",
                budget, final_utility, self.iteration,
            )
        if tracer.enabled:
            tracer.emit("run_finished", runtime="optimizer",
                        converged=converged, iterations=self.iteration,
                        utility=float(final_utility))
            if self.telemetry.registry.enabled:
                tracer.emit("metrics_snapshot",
                            metrics=self.telemetry.registry.snapshot())
        return OptimizationResult(
            converged=converged,
            iterations=self.iteration,
            latencies=dict(self.latencies),
            utility=final_utility,
            resource_prices=self.resource_prices,
            path_prices=self._engine.path_prices_dict(),
            history=history,
        )

    def reset(self) -> None:
        """Restore initial prices, step sizes and latencies."""
        self._engine.reset()
        self.detector.reset()
        self._prev_congested = None
        self.iteration = 0
        self._record = None
        self._latencies = None
        if self.config.warm_start:
            from repro.core.warmstart import apply_warm_start
            apply_warm_start(self)
