"""Supervised control loop: watchdog, churn backpressure, brownout.

:class:`~repro.service.service.AllocationService` assumes a polite world —
churn arrives one event at a time, the optimizer never wedges, snapshots
on disk are well-formed.  :class:`SupervisedService` wraps it in the
machinery a real deployment needs (the same posture PR 3's fault plans
forced onto the distributed runtime):

* a **tick-driven supervisor** — :meth:`tick` drains queued churn as one
  batched rebuild, advances the optimizer, feeds a :class:`Watchdog`
  that restarts from the last fingerprint-valid snapshot when the loop
  stops making progress (``service.supervisor_restarts_total``), and
  takes periodic snapshots;
* **bounded churn with storm coalescing** — producers go through
  :meth:`submit` into a :class:`~repro.service.churnqueue.ChurnQueue`;
  a storm of N events for the same tasks collapses to one recompile,
  and past the hard cap new subjects are shed, not buffered to OOM;
* **retry + circuit breaker around checkpoint I/O** — snapshot/restore
  run under a seeded-jitter :class:`~repro.service.retry.Retrier` with
  each attempt guarded by a :class:`~repro.service.retry.CircuitBreaker`
  on the supervisor's tick clock, so a dead checkpoint volume degrades
  to counted skips instead of a retry hot loop;
* **brownout degradation** — consecutive stressed ticks (active stall,
  sheds, deep queue, overdue re-convergence) flip the service into
  degraded mode via :class:`~repro.service.brownout.BrownoutController`
  hysteresis: queries are answered from the **last critical-time-feasible
  allocation** (views stamped ``degraded=True``), new registrations are
  shed, and the mode exits only after a run of calm ticks
  (``service_degraded`` transitions, ``service.degraded`` gauge).

Everything is deterministic: the trace clock is the tick counter, retry
jitter is seeded, and fault injection (:mod:`repro.service.faults`) is
keyed by tick — two runs of the same scenario produce identical traces.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.admission import AdmissionDecision
from repro.distributed.checkpoint import CheckpointStore
from repro.distributed.faults import ChurnStorm, FaultPlan
from repro.errors import BreakerOpenError, ReproError, ServiceError
from repro.model.graph import SubtaskGraph
from repro.model.resources import Resource
from repro.model.task import Subtask, Task
from repro.model.utility import LinearUtility, UtilityFunction
from repro.service.brownout import BrownoutConfig, BrownoutController
from repro.service.churnqueue import ChurnEvent, ChurnQueue
from repro.service.retry import CircuitBreaker, Retrier, RetryPolicy
from repro.service.service import (
    Allocation,
    AllocationService,
    AllocationView,
    ServiceConfig,
    _SNAPSHOT_AGENT,
)
from repro.telemetry import NULL_TELEMETRY, Telemetry

__all__ = ["HardeningConfig", "Watchdog", "SupervisedService",
           "SupervisedStats"]


@dataclass
class HardeningConfig:
    """Tunables of a :class:`SupervisedService`.

    Attributes
    ----------
    queue_capacity:
        Hard cap on distinct pending churn subjects; beyond it new
        subjects are shed.
    stall_deadline:
        Consecutive no-progress ticks before the watchdog fires.
    snapshot_interval:
        Ticks between periodic snapshots (``0`` disables them — and with
        them, warm supervisor restarts).
    snapshot_dir:
        Directory for file-backed snapshots (``None`` = in-memory only).
    retry:
        Retry policy for checkpoint I/O; ``None`` = defaults.
    failure_threshold / breaker_cooldown:
        Circuit-breaker trip count and cooldown (in ticks).
    brownout:
        Hysteresis widths for degraded mode; ``None`` = defaults.
    queue_high_watermark:
        Queue fill fraction that counts as overload stress.
    reconverge_patience:
        Ticks an epoch may stay unconverged before counting as stress.
    seed:
        Seed for the retry-jitter RNG (determinism).
    service:
        Inner :class:`~repro.service.service.ServiceConfig`; ``None`` =
        defaults.
    """

    queue_capacity: int = 32
    stall_deadline: int = 3
    snapshot_interval: int = 10
    snapshot_dir: Optional[str] = None
    retry: Optional[RetryPolicy] = None
    failure_threshold: int = 3
    breaker_cooldown: int = 5
    brownout: Optional[BrownoutConfig] = None
    queue_high_watermark: float = 0.75
    reconverge_patience: int = 50
    seed: int = 0
    service: Optional[ServiceConfig] = None

    def __post_init__(self) -> None:
        """Reject inconsistent knobs at construction (REP008)."""
        if self.queue_capacity < 1:
            raise ServiceError(
                f"queue_capacity must be >= 1, got {self.queue_capacity!r}"
            )
        if self.stall_deadline < 1:
            raise ServiceError(
                f"stall_deadline must be >= 1, got {self.stall_deadline!r}"
            )
        if self.snapshot_interval < 0:
            raise ServiceError(
                f"snapshot_interval must be >= 0, "
                f"got {self.snapshot_interval!r}"
            )
        if self.failure_threshold < 1:
            raise ServiceError(
                f"failure_threshold must be >= 1, "
                f"got {self.failure_threshold!r}"
            )
        if self.breaker_cooldown < 1:
            raise ServiceError(
                f"breaker_cooldown must be >= 1, "
                f"got {self.breaker_cooldown!r}"
            )
        if not 0.0 < self.queue_high_watermark <= 1.0:
            raise ServiceError(
                f"queue_high_watermark must be in (0, 1], "
                f"got {self.queue_high_watermark!r}"
            )
        if self.reconverge_patience < 1:
            raise ServiceError(
                f"reconverge_patience must be >= 1, "
                f"got {self.reconverge_patience!r}"
            )
        if self.seed < 0:
            # default_rng rejects negative seeds, but only at first use —
            # hundreds of ticks after construction on a quiet service.
            raise ServiceError(f"seed must be >= 0, got {self.seed!r}")


class Watchdog:
    """Detects a wedged control loop from a progress counter.

    :meth:`beat` is fed a monotone progress indicator (the service's
    total iteration count) once per tick; ``deadline`` consecutive beats
    without movement fire the watchdog (and reset its count, so a stall
    that outlives one restart fires again a deadline later).
    """

    def __init__(self, deadline: int) -> None:
        if deadline < 1:
            raise ServiceError(f"deadline must be >= 1, got {deadline!r}")
        self.deadline = deadline
        self.fires = 0
        self._last: Optional[int] = None
        self._stalled_for = 0

    def beat(self, progress: int) -> bool:
        """Feed one tick's progress; ``True`` when the watchdog fires."""
        if self._last is None or progress != self._last:
            self._last = progress
            self._stalled_for = 0
            return False
        self._stalled_for += 1
        if self._stalled_for >= self.deadline:
            self.fires += 1
            self._stalled_for = 0
            return True
        return False


@dataclass(frozen=True)
class SupervisedStats:
    """Aggregate hardened-service health, as exposed by :meth:`stats`."""

    tick: int
    degraded: bool
    supervisor_restarts: int
    watchdog_fires: int
    stall_ticks: int
    storms: int
    queue_depth: int
    queue_max_depth: int
    queue_shed: int
    queue_coalesced: int
    degraded_shed: int
    retries: int
    retries_exhausted: int
    breaker_state: str
    breaker_opens: int
    breaker_short_circuits: int
    checkpoint_failures: int
    snapshot_corruptions: int
    snapshots_taken: int
    live_served: int
    degraded_served: int
    stale_served: int
    failed_queries: int
    brownout_entries: int
    brownout_exits: int
    transitions: Tuple[Tuple[int, str], ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tick": self.tick,
            "degraded": self.degraded,
            "supervisor_restarts": self.supervisor_restarts,
            "watchdog_fires": self.watchdog_fires,
            "stall_ticks": self.stall_ticks,
            "storms": self.storms,
            "queue_depth": self.queue_depth,
            "queue_max_depth": self.queue_max_depth,
            "queue_shed": self.queue_shed,
            "queue_coalesced": self.queue_coalesced,
            "degraded_shed": self.degraded_shed,
            "retries": self.retries,
            "retries_exhausted": self.retries_exhausted,
            "breaker_state": self.breaker_state,
            "breaker_opens": self.breaker_opens,
            "breaker_short_circuits": self.breaker_short_circuits,
            "checkpoint_failures": self.checkpoint_failures,
            "snapshot_corruptions": self.snapshot_corruptions,
            "snapshots_taken": self.snapshots_taken,
            "live_served": self.live_served,
            "degraded_served": self.degraded_served,
            "stale_served": self.stale_served,
            "failed_queries": self.failed_queries,
            "brownout_entries": self.brownout_entries,
            "brownout_exits": self.brownout_exits,
            "transitions": [list(t) for t in self.transitions],
        }


class SupervisedService:
    """An :class:`AllocationService` under supervision (see module doc)."""

    def __init__(self, resources: List[Resource],
                 tasks: Optional[List[Task]] = None,
                 config: Optional[HardeningConfig] = None,
                 telemetry: Optional[Telemetry] = None,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        self.config = config or HardeningConfig()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._tick = 0
        # The supervisor owns the trace clock (ticks), installed before
        # the inner service can claim it with its iteration count.
        tracer = self.telemetry.tracer
        if tracer.enabled and not tracer.clock_injected:
            tracer.set_clock(lambda: float(self._tick))
        self._store = CheckpointStore(directory=self.config.snapshot_dir)
        self.service = AllocationService(
            resources, tasks, config=self.config.service,
            telemetry=self.telemetry, snapshots=self._store,
        )
        self.queue = ChurnQueue(self.config.queue_capacity)
        self.watchdog = Watchdog(self.config.stall_deadline)
        self.brownout = BrownoutController(self.config.brownout)
        self.retrier = Retrier(self.config.retry, seed=self.config.seed,
                               telemetry=self.telemetry)
        self.breaker = CircuitBreaker(
            self.config.failure_threshold,
            float(self.config.breaker_cooldown),
            clock=lambda: float(self._tick),
            telemetry=self.telemetry, name="checkpoint",
        )
        self.injector = None
        if fault_plan is not None and not fault_plan.is_empty():
            from repro.service.faults import ServiceFaultInjector
            self.injector = ServiceFaultInjector(fault_plan, self)
        # Fault state.
        self._stall_remaining = 0
        self._checkpoint_outage = False
        self._pending_corruptions = 0
        # Last known-good (critical-time-feasible) allocation.
        self._last_good: Optional[Allocation] = None
        self._last_good_tick: Optional[int] = None
        # Counters.
        self.supervisor_restarts = 0
        self.stall_ticks = 0
        self.storms = 0
        self.degraded_shed = 0
        self.checkpoint_failures = 0
        self.snapshots_taken = 0
        self.snapshot_corruptions = 0
        self.live_served = 0
        self.degraded_served = 0
        self.stale_served = 0
        self.failed_queries = 0
        self._unconverged_ticks = 0
        self._shed_this_tick = 0
        self._metrics: Optional[Dict[str, Any]] = None
        self._synthetic_serial = 0
        # An initial restore point, so a watchdog fire before the first
        # periodic snapshot can warm-restore instead of cold-resetting.
        if self.service.task_map and self.config.snapshot_interval:
            self._guarded_snapshot()

    # -- telemetry ---------------------------------------------------------------

    def _metric(self, name: str) -> Any:
        if self._metrics is None:
            registry = self.telemetry.registry
            self._metrics = {
                "restarts": registry.counter(
                    "service.supervisor_restarts_total",
                    "watchdog-triggered restarts of the control loop"),
                "degraded": registry.gauge(
                    "service.degraded",
                    "whether the service is in degraded mode (0/1)"),
                "transitions": registry.counter(
                    "service.degraded_transitions_total",
                    "brownout state transitions (either direction)"),
                "shed": registry.counter(
                    "service.churn_shed_total",
                    "churn events shed by backpressure or degraded mode"),
                "storms": registry.counter(
                    "service.churn_storms_total",
                    "churn storms injected or absorbed"),
                "ckpt_failures": registry.counter(
                    "service.checkpoint_failures_total",
                    "checkpoint operations that failed every attempt"),
                "corruptions": registry.counter(
                    "service.snapshot_corruptions_total",
                    "corrupted snapshots detected and demoted to cold"),
                "degraded_queries": registry.counter(
                    "service.degraded_queries_total",
                    "queries answered from the last-good allocation"),
                "queue_depth": registry.gauge(
                    "service.queue_depth",
                    "pending coalesced churn subjects"),
            }
        return self._metrics[name]

    # -- churn producers ---------------------------------------------------------

    def submit(self, event: ChurnEvent) -> bool:
        """Queue a churn event for the next tick's batched rebuild.

        Returns ``False`` when the event was shed: registrations while
        degraded (brownout sheds non-admitted work), or any new subject
        once the queue is at capacity.  An availability change for an
        unknown resource raises :class:`ServiceError` here, as invalid
        values do when the :class:`ChurnEvent` is created, so nothing that
        would fail the next tick's rebuild is queued.
        """
        if event.kind == "availability":
            self.service.resource(event.key)
        if self.brownout.degraded and event.kind == "register":
            self.degraded_shed += 1
            self._shed_this_tick += 1
            if self.telemetry.enabled:
                self._metric("shed").inc()
                if self.telemetry.tracer.enabled:
                    self.telemetry.tracer.emit(
                        "churn_shed", subject=event.key, reason="degraded",
                    )
            return False
        accepted = self.queue.offer(event)
        if not accepted:
            self._shed_this_tick += 1
            if self.telemetry.enabled:
                self._metric("shed").inc()
                if self.telemetry.tracer.enabled:
                    self.telemetry.tracer.emit(
                        "churn_shed", subject=event.key, reason="capacity",
                    )
        return accepted

    def register(self, task: Task) -> bool:
        return self.submit(ChurnEvent(kind="register", key=task.name,
                                      task=task))

    def deregister(self, name: str) -> bool:
        return self.submit(ChurnEvent(kind="deregister", key=name))

    def update_task(self, name: str,
                    critical_time: Optional[float] = None,
                    utility: Optional[UtilityFunction] = None) -> bool:
        return self.submit(ChurnEvent(kind="update", key=name,
                                      critical_time=critical_time,
                                      utility=utility))

    def set_availability(self, resource: str, availability: float) -> bool:
        return self.submit(ChurnEvent(kind="availability", key=resource,
                                      availability=availability))

    # -- the supervised tick -----------------------------------------------------

    def tick(self) -> None:
        """One control-loop turn: inject due faults, drain churn as one
        batch, advance the solve, feed the watchdog, snapshot, capture
        the last-good allocation, and update the brownout state."""
        restart_due, snapshot_due = self._tick_begin()
        self._apply_pending_corruptions()
        if restart_due:
            self._supervisor_restart()
        if snapshot_due:
            self._guarded_snapshot()
        self._tick_end()

    async def tick_async(self) -> None:
        """:meth:`tick` for an event loop.  The state-mutating tick body
        — fault injection, the churn drain, the optimizer slice — runs
        **on the loop thread**: it shares the :class:`ChurnQueue`, the
        optimizer iterate, and the shed counter with the concurrent
        :meth:`submit` and :meth:`query` callers on that loop, and
        cooperative scheduling is the only synchronization they have.
        (Offloading it to a worker thread would race ``drain`` against
        ``offer`` and let queries observe a half-advanced optimizer.)
        Only the checkpoint file I/O behind restarts and snapshots — the
        part that can actually stall on a slow disk or an injected
        outage — is offloaded via :func:`asyncio.to_thread`; the tick is
        suspended while it runs, so the retrier, breaker, and checkpoint
        state it mutates have no other writer."""
        restart_due, snapshot_due = self._tick_begin()
        if self._pending_corruptions:
            await asyncio.to_thread(self._apply_pending_corruptions)
        if restart_due:
            await asyncio.to_thread(self._supervisor_restart)
        if snapshot_due:
            await asyncio.to_thread(self._guarded_snapshot)
        self._tick_end()

    def _tick_begin(self) -> Tuple[bool, bool]:
        """Everything up to (but not including) the tick's I/O stage —
        injected corruptions, restart, snapshot; returns
        ``(restart_due, snapshot_due)``.  Runs on the event-loop thread
        under :meth:`tick_async`: it mutates state shared with
        concurrent :meth:`submit`/:meth:`query` callers, so it must
        never execute blocking I/O (REP011 enforces this)."""
        self._tick += 1
        self._shed_this_tick = 0
        if self.injector is not None:
            self.injector.apply(self._tick)
        self._drain_churn()
        self._advance()
        members = self.service.task_map
        restart_due = bool(
            members and self.watchdog.beat(self.service.iterations)
        )
        interval = self.config.snapshot_interval
        snapshot_due = bool(
            interval and members and self._tick % interval == 0
        )
        return restart_due, snapshot_due

    def _tick_end(self) -> None:
        """Post-I/O bookkeeping: last-good capture, brownout, gauges."""
        self._capture_last_good()
        self._observe_brownout()
        if self.telemetry.enabled:
            self._metric("queue_depth").set(float(self.queue.depth))

    def run_ticks(self, ticks: int) -> None:
        """Drive :meth:`tick` synchronously ``ticks`` times."""
        if ticks < 1:
            raise ServiceError(f"ticks must be >= 1, got {ticks!r}")
        for _ in range(ticks):
            self.tick()

    async def run(self, ticks: int) -> None:
        """Drive the loop cooperatively via :meth:`tick_async`, yielding
        between ticks so producers and queries interleave — and keeping
        checkpoint I/O off the event-loop thread."""
        if ticks < 1:
            raise ServiceError(f"ticks must be >= 1, got {ticks!r}")
        for _ in range(ticks):
            await self.tick_async()
            await asyncio.sleep(0)

    def _drain_churn(self) -> List[AdmissionDecision]:
        ops = self.queue.drain()
        if not ops:
            return []
        decisions = self.service.apply_batch(ops)
        if self.telemetry.enabled and self.telemetry.tracer.enabled:
            self.telemetry.tracer.emit(
                "churn_batch", ops=len(ops),
                rejected=sum(1 for d in decisions if not d.admitted),
            )
        return decisions

    def _advance(self) -> bool:
        """One optimizer slice, unless a stall window holds the loop."""
        if self._stall_remaining > 0:
            self._stall_remaining -= 1
            self.stall_ticks += 1
            return False
        if not self.service.task_map:
            return False
        self.service.step(self.service.config.batch_size)
        return True

    # -- supervision -------------------------------------------------------------

    def _supervisor_restart(self) -> None:
        """The watchdog fired: restart from the last valid snapshot."""
        self.supervisor_restarts += 1
        restored = False
        try:
            restored = self.retrier.call(
                lambda: self.breaker.guard(self._restore_once),
                label="restore",
            )
        except BreakerOpenError:
            pass  # counted by the breaker; stay on the live iterate
        except ReproError:
            self.checkpoint_failures += 1
            if self.telemetry.enabled:
                self._metric("ckpt_failures").inc()
        self._note_corruptions()
        if self.telemetry.enabled:
            self._metric("restarts").inc()
            if self.telemetry.tracer.enabled:
                self.telemetry.tracer.emit(
                    "supervisor_restart", restored=bool(restored),
                    stalled_for=self.watchdog.deadline,
                )

    def _restore_once(self) -> bool:
        if self._checkpoint_outage:
            raise ServiceError(
                "checkpoint store unavailable (injected outage)"
            )
        return self.service.restore()

    def _guarded_snapshot(self) -> None:
        """Snapshot through retry + breaker; failure degrades to a
        counted skip, never an escaped exception."""
        try:
            self.retrier.call(
                lambda: self.breaker.guard(self._snapshot_once),
                label="snapshot",
            )
            self.snapshots_taken += 1
        except BreakerOpenError:
            pass  # counted by the breaker; try again next interval
        except ReproError as exc:
            self.checkpoint_failures += 1
            if self.telemetry.enabled:
                self._metric("ckpt_failures").inc()
                if self.telemetry.tracer.enabled:
                    self.telemetry.tracer.emit(
                        "checkpoint_failed", error=str(exc),
                    )
        self._note_corruptions()

    def _snapshot_once(self) -> None:
        if self._checkpoint_outage:
            raise ServiceError(
                "checkpoint store unavailable (injected outage)"
            )
        self.service.snapshot()

    def _note_corruptions(self) -> None:
        """Surface newly-detected on-disk corruption into telemetry."""
        seen = self._store.corruptions
        if seen > self.snapshot_corruptions:
            delta = seen - self.snapshot_corruptions
            self.snapshot_corruptions = seen
            if self.telemetry.enabled:
                self._metric("corruptions").inc(delta)
                if self.telemetry.tracer.enabled:
                    self.telemetry.tracer.emit(
                        "snapshot_corrupt", count=seen,
                    )

    def _capture_last_good(self) -> None:
        """Hold the live iterate whenever it is critical-time feasible —
        the answer degraded mode keeps serving.  The verdict is the live
        iterate's, at the 1e-2 feasibility tolerance (never feasible with
        no tasks registered); the held :class:`Allocation` copies
        nothing."""
        if not self.service.feasible(1e-2):
            return
        self._last_good = self.service.capture()
        self._last_good_tick = self._tick

    def _observe_brownout(self) -> None:
        if not self.service.task_map or self.service.converged:
            self._unconverged_ticks = 0
        else:
            self._unconverged_ticks += 1
        high = max(1, int(self.config.queue_high_watermark
                          * self.config.queue_capacity))
        stressed = (
            self._stall_remaining > 0
            or self._shed_this_tick > 0
            or self.queue.depth >= high
            or self._unconverged_ticks > self.config.reconverge_patience
        )
        transition = self.brownout.observe(self._tick, stressed)
        if transition is not None and self.telemetry.enabled:
            self._metric("degraded").set(
                1.0 if self.brownout.degraded else 0.0)
            self._metric("transitions").inc()
            if self.telemetry.tracer.enabled:
                self.telemetry.tracer.emit(
                    "service_degraded",
                    state="degraded" if self.brownout.degraded
                    else "healthy",
                )

    # -- queries -----------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        return self.brownout.degraded

    def query(self, name: str) -> AllocationView:
        """The task's allocation: the live iterate when healthy, the
        last known-good allocation when degraded (or when the live
        lookup fails and a last-good answer exists)."""
        if self.brownout.degraded:
            view = self._last_good_view(name)
            if view is not None:
                self.degraded_served += 1
                if self.telemetry.enabled:
                    self._metric("degraded_queries").inc()
                return view
        try:
            view = self.service.query(name)
        except ServiceError:
            fallback = self._last_good_view(name)
            if fallback is not None:
                self.stale_served += 1
                if self.telemetry.enabled:
                    self._metric("degraded_queries").inc()
                return fallback
            self.failed_queries += 1
            raise
        self.live_served += 1
        return view

    def _last_good_view(self, name: str) -> Optional[AllocationView]:
        last = self._last_good
        return None if last is None else \
            last.view(name, converged=True, degraded=True)

    # -- fault hooks (driven by repro.service.faults) ----------------------------

    def inject_stall(self, ticks: int) -> None:
        """Wedge the optimizer for ``ticks`` control-loop turns."""
        if ticks < 1:
            raise ServiceError(f"stall ticks must be >= 1, got {ticks!r}")
        self._stall_remaining += ticks
        if self.telemetry.enabled and self.telemetry.tracer.enabled:
            self.telemetry.tracer.emit("loop_stall", ticks=ticks)

    def inject_storm(self, storm: ChurnStorm) -> int:
        """Fire a churn storm through :meth:`submit`; returns how many
        of its events were accepted (the rest were shed)."""
        self.storms += 1
        events = self._storm_events(storm)
        accepted = sum(1 for event in events if self.submit(event))
        if self.telemetry.enabled:
            self._metric("storms").inc()
            if self.telemetry.tracer.enabled:
                self.telemetry.tracer.emit(
                    "churn_storm", storm=storm.kind,
                    events=len(events), accepted=accepted,
                )
        return accepted

    def _storm_events(self, storm: ChurnStorm) -> List[ChurnEvent]:
        if storm.kind == "oscillate":
            victims = sorted(self.service.tasks)
            if not victims:
                return []
            events: List[ChurnEvent] = []
            for i in range(storm.events):
                name = victims[(i // 2) % len(victims)]
                if i % 2 == 0:
                    events.append(ChurnEvent(kind="deregister", key=name))
                else:
                    events.append(ChurnEvent(
                        kind="register", key=name,
                        task=self.service.task(name),
                    ))
            return events
        # storm.kind == "arrivals": fresh synthetic chain tasks cloned
        # from a live donor, with generous critical times so admission
        # pressure comes from volume, not infeasibility.
        names = sorted(self.service.tasks)
        if not names:
            return []
        donor = self.service.task(names[0])
        events = []
        for _ in range(storm.events):
            self._synthetic_serial += 1
            serial = self._synthetic_serial
            subtasks = [
                Subtask(f"storm{serial}.{i}", sub.resource,
                        exec_time=sub.exec_time)
                for i, sub in enumerate(donor.subtasks[:2])
            ]
            graph = SubtaskGraph.chain([s.name for s in subtasks])
            crit = donor.critical_time * 10.0
            task = Task(f"storm{serial}", subtasks, graph,
                        critical_time=crit, utility=LinearUtility(crit))
            events.append(ChurnEvent(kind="register", key=task.name,
                                     task=task))
        return events

    def corrupt_snapshot(self) -> None:
        """Simulate bit rot: replace the stored snapshot with garbage.

        A file-backed store gets a truncated JSON file (exercising the
        corrupted-read demotion); a memory-only store gets a snapshot
        stamped with an impossible fingerprint (exercising the mismatch
        demotion).  Either way the next restore must cold-reset."""
        path = self._store.path_for(_SNAPSHOT_AGENT)
        if path is not None:
            self._store.drop(_SNAPSHOT_AGENT)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write('{"agent": "service", "round": 7, "sta')
        else:
            self._store.save(
                _SNAPSHOT_AGENT, 0, {"mu": []},
                fingerprint="corrupted-by-fault-injection",
            )
        if self.telemetry.enabled and self.telemetry.tracer.enabled:
            self.telemetry.tracer.emit("snapshot_corrupted_injected")

    def schedule_snapshot_corruption(self) -> None:
        """Queue a :meth:`corrupt_snapshot` for this tick's I/O stage.

        The fault injector runs inside :meth:`_tick_begin`, which the
        async driver keeps on the event-loop thread — so the corrupting
        file write cannot happen there.  Scheduling defers it to the
        same stage as the restart/snapshot I/O (offloaded to a worker
        thread under :meth:`tick_async`), still before any restore in
        the same tick observes the store."""
        self._pending_corruptions += 1

    def _apply_pending_corruptions(self) -> None:
        while self._pending_corruptions > 0:
            self._pending_corruptions -= 1
            self.corrupt_snapshot()

    def set_checkpoint_outage(self, active: bool) -> None:
        """Start/stop an injected checkpoint-I/O outage."""
        self._checkpoint_outage = active
        if self.telemetry.enabled and self.telemetry.tracer.enabled:
            self.telemetry.tracer.emit(
                "checkpoint_outage", active=active,
            )

    # -- stats -------------------------------------------------------------------

    @property
    def snapshots(self) -> CheckpointStore:
        return self._store

    def stats(self) -> SupervisedStats:
        return SupervisedStats(
            tick=self._tick,
            degraded=self.brownout.degraded,
            supervisor_restarts=self.supervisor_restarts,
            watchdog_fires=self.watchdog.fires,
            stall_ticks=self.stall_ticks,
            storms=self.storms,
            queue_depth=self.queue.depth,
            queue_max_depth=self.queue.max_depth,
            queue_shed=self.queue.shed,
            queue_coalesced=self.queue.coalesced,
            degraded_shed=self.degraded_shed,
            retries=self.retrier.retries,
            retries_exhausted=self.retrier.exhausted,
            breaker_state=self.breaker.state,
            breaker_opens=self.breaker.opens,
            breaker_short_circuits=self.breaker.short_circuits,
            checkpoint_failures=self.checkpoint_failures,
            snapshot_corruptions=self.snapshot_corruptions,
            snapshots_taken=self.snapshots_taken,
            live_served=self.live_served,
            degraded_served=self.degraded_served,
            stale_served=self.stale_served,
            failed_queries=self.failed_queries,
            brownout_entries=self.brownout.entries,
            brownout_exits=self.brownout.exits,
            transitions=tuple(self.brownout.transitions),
        )
