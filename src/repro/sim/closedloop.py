"""Closed-loop operation: optimizer ↔ running system (Section 6's pattern).

The paper's prototype runs LLA continuously against a live system:

* the optimizer computes latencies, converts them to shares through the
  (possibly error-corrected) share model, and *enacts* them on the system;
* the system executes jobs under those shares while the recorder samples
  observed latencies;
* after every window, high-percentile latency samples update the additive
  model error (Section 6.3), the corrected model feeds back into the
  optimizer, and the loop repeats.

:class:`ClosedLoopRuntime` packages that loop against the discrete-event
simulator.  Epoch records capture exactly the quantities Figure 8 plots:
per-subtask enacted shares and the (raw and smoothed) error values.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.error_correction import ErrorCorrector
from repro.core.optimizer import LLAConfig, LLAOptimizer
from repro.errors import SimulationError
from repro.model.share import CorrectedShare
from repro.model.task import TaskSet
from repro.sim.system import SimulatedSystem
from repro.telemetry import NULL_TELEMETRY, Telemetry

__all__ = ["EpochRecord", "ClosedLoopRuntime"]

logger = logging.getLogger(__name__)


@dataclass
class EpochRecord:
    """Observable state at the end of one control epoch."""

    epoch: int
    time: float
    correction_enabled: bool
    shares: Dict[str, float]
    latency_targets: Dict[str, float]
    smoothed_errors: Dict[str, float]
    raw_errors: Dict[str, float] = field(default_factory=dict)
    observed_p95: Dict[str, float] = field(default_factory=dict)
    utility: float = 0.0


class ClosedLoopRuntime:
    """Drives LLA against a :class:`~repro.sim.system.SimulatedSystem`."""

    def __init__(
        self,
        taskset: TaskSet,
        window: float = 1000.0,
        model: str = "gps",
        quantum: float = 1.0,
        seed: int = 0,
        optimizer_config: Optional[LLAConfig] = None,
        corrector: Optional[ErrorCorrector] = None,
        optimizer_steps_per_epoch: int = 400,
        exec_time_factor=None,
        recorder_max_samples: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        if window <= 0.0:
            raise SimulationError(f"window must be positive, got {window!r}")
        self.taskset = taskset
        self.window = float(window)
        self.correction_enabled = False
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.corrector = corrector or ErrorCorrector(
            taskset, telemetry=telemetry
        )
        self.optimizer = LLAOptimizer(
            taskset,
            optimizer_config or LLAConfig(max_iterations=2000),
            telemetry=telemetry,
        )
        self.optimizer_steps_per_epoch = int(optimizer_steps_per_epoch)
        # Remember the raw (uncorrected) model per subtask: error is always
        # measured against the raw model, matching CorrectedShare semantics.
        self._base_model = {
            name: taskset.share_function(name)
            for name in taskset.subtask_names
        }
        # Initial allocation: optimize on the raw model only.
        self.optimizer.run()
        self.latencies = dict(self.optimizer.latencies)
        self.system = SimulatedSystem(
            taskset,
            self._shares_for(self.latencies),
            model=model,
            quantum=quantum,
            seed=seed,
            exec_time_factor=exec_time_factor,
            recorder_max_samples=recorder_max_samples,
            telemetry=telemetry,
            structure=self.optimizer.structure,
        )
        self.epoch = 0
        self.history: List[EpochRecord] = []

    # -- helpers -----------------------------------------------------------------

    def _shares_for(self, latencies: Dict[str, float]) -> Dict[str, float]:
        return {
            name: self.taskset.share_function(name).share(lat)
            for name, lat in latencies.items()
        }

    def _base_prediction(self, subtask: str) -> float:
        """Raw-model latency prediction at the currently enacted share."""
        share = self.system.current_share(subtask)
        fn = self._base_model[subtask]
        if isinstance(fn, CorrectedShare):
            fn = fn.base
        return fn.latency_for_share(share)

    def enable_correction(self) -> None:
        """Turn on Section 6.3's online model error correction."""
        self.correction_enabled = True

    def disable_correction(self) -> None:
        self.correction_enabled = False

    # -- the loop ------------------------------------------------------------------

    def run_epoch(self) -> EpochRecord:
        """One control epoch: simulate a window, correct, re-optimize, enact."""
        instrumented = self.telemetry.enabled
        if instrumented:
            started = time.perf_counter()
        self.epoch += 1
        self.system.run_for(self.window)

        raw_errors: Dict[str, float] = {}
        observed_p95: Dict[str, float] = {}
        if self.correction_enabled:
            for name in self.taskset.subtask_names:
                samples = self.system.recorder.drain_jobs(name)
                if not samples:
                    continue
                predicted = self._base_prediction(name)
                before = len(self.corrector.raw_errors(name))
                self.corrector.observe_batch(name, predicted, samples)
                history = self.corrector.raw_errors(name)
                if len(history) > before:
                    raw_errors[name] = history[-1]
                observed_p95[name] = predicted + raw_errors.get(name, 0.0)
            self.corrector.apply_all()
            self.optimizer.refresh_model()
        else:
            # Keep the recorder bounded even when correction is off.
            for name in self.taskset.subtask_names:
                self.system.recorder.drain_jobs(name)

        # Run the full step budget: the optimizer "runs continuously" in the
        # paper's prototype.  Breaking on the convergence detector would be
        # premature here — after a model correction the dual prices drift
        # slowly toward the new equilibrium (the resource gradient is small
        # once loads sit just under availability), and a utility-stability
        # window mistakes that drift for convergence.
        for _ in range(self.optimizer_steps_per_epoch):
            self.optimizer.step()
        self.latencies = dict(self.optimizer.latencies)
        shares = self._shares_for(self.latencies)
        self.system.enact_shares(shares)

        record = EpochRecord(
            epoch=self.epoch,
            time=self.system.engine.now,
            correction_enabled=self.correction_enabled,
            shares=shares,
            latency_targets=dict(self.latencies),
            smoothed_errors={
                name: self.corrector.error(name)
                for name in self.taskset.subtask_names
            },
            raw_errors=raw_errors,
            observed_p95=observed_p95,
            utility=self.taskset.total_utility(self.latencies),  # statan: disable=REP016 -- per-epoch summary, not per-iteration
        )
        self.history.append(record)
        logger.debug(
            "epoch %d (t=%.1f): utility %.6f, "
            "correction=%s, %d corrections observed",
            record.epoch, record.time, record.utility,
            record.correction_enabled, len(raw_errors),
        )
        if instrumented:
            registry = self.telemetry.registry
            registry.counter(
                "loop.epochs_total", "closed-loop control epochs").inc()
            registry.timer(
                "loop.epoch_seconds", "wall time per control epoch",
                max_samples=4096,
            ).observe(time.perf_counter() - started)
            if self.telemetry.tracer.enabled:
                self.telemetry.tracer.emit(
                    "epoch", epoch=record.epoch, time=record.time,
                    utility=float(record.utility),
                    correction_enabled=record.correction_enabled,
                    corrections=len(raw_errors),
                )
        return record

    def run_epochs(self, count: int) -> List[EpochRecord]:
        return [self.run_epoch() for _ in range(count)]

    # -- queries ---------------------------------------------------------------------

    def share_trace(self, subtask: str) -> List[float]:
        """Enacted share per epoch for one subtask (Figure 8's solid lines)."""
        return [rec.shares[subtask] for rec in self.history]

    def error_trace(self, subtask: str) -> List[float]:
        """Smoothed error per epoch (Figure 8's error line)."""
        return [rec.smoothed_errors[subtask] for rec in self.history]
