"""Declarative fault plans for the distributed LLA runtime (chaos testing).

The paper's claim is that LLA keeps converging *online* while the system
changes underneath it (§4–§6): prices move on stale information, model
error is corrected from measurements, and workload/resource variation is
absorbed by the continuously-running optimization.  The message bus
already models benign transport faults (delay, i.i.d. loss, static
partitions); this module scripts the *malign* ones — agents crashing and
restarting, partitions that open and heal on a schedule, loss bursts and
full blackouts, duplicated and reordered messages, and resource capacity
shocks — as deterministic, seed-reproducible scenarios.

A :class:`FaultPlan` is pure data: a validated set of fault windows keyed
by protocol round.  The :class:`FaultInjector` binds a plan to a running
:class:`~repro.distributed.runtime.DistributedLLARuntime` and applies the
due actions at the start of each round, so the whole trajectory (including
every RNG draw on the bus) is a pure function of ``(seed, plan)``.

Round convention: all rounds are the runtime's 1-based round numbers, and
an action fires at the *start* of its round (before the controller phase).
A window ``start=100, end=150`` is therefore active during rounds
100..149 and cleared at the start of round 150.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from repro.errors import DistributedError

__all__ = [
    "CrashWindow",
    "PartitionWindow",
    "LossBurst",
    "DuplicationWindow",
    "ReorderWindow",
    "CapacityShock",
    "LoopStall",
    "ChurnStorm",
    "CheckpointCorruption",
    "CheckpointOutage",
    "FaultPlan",
    "FaultInjector",
]


def _require_round(value: int, label: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise DistributedError(
            f"{label} must be a round number >= 1, got {value!r}"
        )
    return value


def _require_window(start: int, end: Optional[int], label: str) -> None:
    _require_round(start, f"{label}.start")
    if end is not None and _require_round(end, f"{label}.end") <= start:
        raise DistributedError(
            f"{label} must end after it starts, got [{start}, {end})"
        )


@dataclass(frozen=True)
class CrashWindow:
    """Crash ``agent`` at round ``at``; restart it at ``restart_at``.

    ``restart_at=None`` means the agent stays down for the rest of the
    run.  ``warm=True`` restores the last checkpointed state from the
    runtime's :class:`~repro.distributed.checkpoint.CheckpointStore`
    (falling back to a cold restart when no checkpoint exists yet);
    ``warm=False`` forces a cold restart from the configured initials.
    """

    agent: str
    at: int
    restart_at: Optional[int] = None
    warm: bool = True

    def __post_init__(self):
        _require_window(self.at, self.restart_at, f"crash({self.agent})")


@dataclass(frozen=True)
class PartitionWindow:
    """Sever the ``a`` ↔ ``b`` link during ``[start, end)``; auto-heal at
    ``end`` (``end=None`` = never heals)."""

    a: str
    b: str
    start: int
    end: Optional[int] = None

    def __post_init__(self):
        _require_window(self.start, self.end,
                        f"partition({self.a}, {self.b})")


@dataclass(frozen=True)
class LossBurst:
    """Override the bus loss probability during ``[start, end)``.

    ``probability=1.0`` is a full blackout: every message sent during the
    window is dropped.  The bus's configured base probability is restored
    at ``end``.
    """

    start: int
    end: int
    probability: float = 1.0

    def __post_init__(self):
        _require_window(self.start, self.end, "loss burst")
        if not 0.0 <= self.probability <= 1.0 or \
                not math.isfinite(self.probability):
            raise DistributedError(
                f"loss burst probability must be in [0, 1], "
                f"got {self.probability!r}"
            )


@dataclass(frozen=True)
class DuplicationWindow:
    """Duplicate each sent message with ``probability`` during
    ``[start, end)``.

    The duplicate carries the original's sequence number, so a
    deduplicating bus delivers it at most once — the window verifies that
    replayed messages cannot double-apply price steps.
    """

    start: int
    end: int
    probability: float = 0.5

    def __post_init__(self):
        _require_window(self.start, self.end, "duplication window")
        if not 0.0 < self.probability <= 1.0 or \
                not math.isfinite(self.probability):
            raise DistributedError(
                f"duplication probability must be in (0, 1], "
                f"got {self.probability!r}"
            )


@dataclass(frozen=True)
class ReorderWindow:
    """Shuffle each receiver's per-round delivery order during
    ``[start, end)`` (deterministically, from the bus RNG)."""

    start: int
    end: int

    def __post_init__(self):
        _require_window(self.start, self.end, "reorder window")


@dataclass(frozen=True)
class CapacityShock:
    """Scale ``resource``'s availability by ``factor`` at round ``at``;
    restore the original availability at ``restore_at`` (``None`` =
    permanent).  ``factor == 0.0`` is a full blackout of the resource."""

    resource: str
    at: int
    factor: float
    restore_at: Optional[int] = None

    def __post_init__(self):
        _require_window(self.at, self.restore_at,
                        f"capacity shock({self.resource})")
        if self.factor < 0.0 or not math.isfinite(self.factor):
            raise DistributedError(
                f"capacity shock factor must be non-negative and finite, "
                f"got {self.factor!r}"
            )


@dataclass(frozen=True)
class LoopStall:
    """Service-layer fault: the control loop's optimizer makes no
    progress during ticks ``[at, at + ticks)`` — a wedged solve, a GC
    pause, a deadlocked worker.  The supervised loop's watchdog is
    expected to notice and restart from the last valid snapshot."""

    at: int
    ticks: int = 1

    def __post_init__(self):
        _require_round(self.at, "loop stall.at")
        if not isinstance(self.ticks, int) or isinstance(self.ticks, bool) \
                or self.ticks < 1:
            raise DistributedError(
                f"loop stall ticks must be an int >= 1, got {self.ticks!r}"
            )


@dataclass(frozen=True)
class ChurnStorm:
    """Service-layer fault: ``events`` churn events land in one tick.

    ``kind="oscillate"`` deregisters/re-registers existing tasks (net
    membership unchanged — pure coalescing pressure);
    ``kind="arrivals"`` registers fresh synthetic tasks (admission and
    shed pressure)."""

    at: int
    events: int = 16
    kind: str = "oscillate"

    def __post_init__(self):
        _require_round(self.at, "churn storm.at")
        if not isinstance(self.events, int) or \
                isinstance(self.events, bool) or self.events < 1:
            raise DistributedError(
                f"churn storm events must be an int >= 1, "
                f"got {self.events!r}"
            )
        if self.kind not in ("oscillate", "arrivals"):
            raise DistributedError(
                f"churn storm kind must be 'oscillate' or 'arrivals', "
                f"got {self.kind!r}"
            )


@dataclass(frozen=True)
class CheckpointCorruption:
    """Service-layer fault: at tick ``at`` the stored snapshot is
    replaced with garbage (bit rot, a torn write elsewhere).  The next
    restore must demote to a cold reset, not crash."""

    at: int

    def __post_init__(self):
        _require_round(self.at, "checkpoint corruption.at")


@dataclass(frozen=True)
class CheckpointOutage:
    """Service-layer fault: checkpoint I/O fails during ``[start, end)``
    (disk full, volume detached).  Saves are expected to retry with
    backoff and eventually trip the circuit breaker."""

    start: int
    end: int

    def __post_init__(self):
        _require_window(self.start, self.end, "checkpoint outage")


def _no_overlap(spans, label: str) -> None:
    """``spans`` is an iterable of (start, end-or-None) round pairs."""
    ordered = sorted(
        (start, end if end is not None else math.inf) for start, end in spans
    )
    for (s1, e1), (s2, _e2) in zip(ordered, ordered[1:]):
        if s2 < e1:
            raise DistributedError(
                f"{label} windows overlap: [{s1}, {e1}) and start {s2}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic chaos scenario: validated fault windows by round.

    All sequences are normalized to tuples so plans are hashable and safe
    to share.  Windows of the same kind on the same subject may not
    overlap (overlap would make restore order ambiguous); crash windows of
    the same agent may not overlap either.
    """

    crashes: Tuple[CrashWindow, ...] = ()
    partitions: Tuple[PartitionWindow, ...] = ()
    loss_bursts: Tuple[LossBurst, ...] = ()
    duplications: Tuple[DuplicationWindow, ...] = ()
    reorders: Tuple[ReorderWindow, ...] = ()
    capacity_shocks: Tuple[CapacityShock, ...] = ()
    # Service-layer faults (applied by repro.service.faults.
    # ServiceFaultInjector against a SupervisedService tick loop; the
    # distributed FaultInjector rejects plans that carry them).
    loop_stalls: Tuple[LoopStall, ...] = ()
    churn_storms: Tuple[ChurnStorm, ...] = ()
    checkpoint_corruptions: Tuple[CheckpointCorruption, ...] = ()
    checkpoint_outages: Tuple[CheckpointOutage, ...] = ()

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, tuple(getattr(self, f.name)))
        by_agent: Dict[str, List[Tuple[int, Optional[int]]]] = {}
        for crash in self.crashes:
            by_agent.setdefault(crash.agent, []).append(
                (crash.at, crash.restart_at)
            )
        for agent, spans in by_agent.items():
            _no_overlap(spans, f"crash({agent})")
        _no_overlap([(w.start, w.end) for w in self.loss_bursts],
                    "loss burst")
        _no_overlap([(w.start, w.end) for w in self.duplications],
                    "duplication")
        _no_overlap([(w.start, w.end) for w in self.reorders], "reorder")
        by_resource: Dict[str, List[Tuple[int, Optional[int]]]] = {}
        for shock in self.capacity_shocks:
            by_resource.setdefault(shock.resource, []).append(
                (shock.at, shock.restore_at)
            )
        for resource, spans in by_resource.items():
            _no_overlap(spans, f"capacity shock({resource})")
        _no_overlap([(s.at, s.at + s.ticks) for s in self.loop_stalls],
                    "loop stall")
        _no_overlap([(w.start, w.end) for w in self.checkpoint_outages],
                    "checkpoint outage")

    def is_empty(self) -> bool:
        return not any(getattr(self, f.name) for f in fields(self))

    def has_service_faults(self) -> bool:
        """Whether the plan targets the service control loop (loop
        stalls, churn storms, checkpoint corruption/outages)."""
        return bool(self.loop_stalls or self.churn_storms
                    or self.checkpoint_corruptions
                    or self.checkpoint_outages)

    def has_distributed_faults(self) -> bool:
        """Whether the plan targets the distributed runtime or bus."""
        return bool(self.crashes or self.partitions or self.loss_bursts
                    or self.duplications or self.reorders
                    or self.capacity_shocks)

    def agents(self) -> Tuple[str, ...]:
        """Every agent name the plan references."""
        names = {c.agent for c in self.crashes}
        for p in self.partitions:
            names.update((p.a, p.b))
        return tuple(sorted(names))

    def resources(self) -> Tuple[str, ...]:
        """Every resource name the plan references."""
        return tuple(sorted({s.resource for s in self.capacity_shocks}))

    def last_round(self) -> int:
        """The latest round at which the plan still does anything."""
        latest = 0
        for crash in self.crashes:
            latest = max(latest, crash.restart_at or crash.at)
        for part in self.partitions:
            latest = max(latest, part.end or part.start)
        for window in (self.loss_bursts + self.duplications + self.reorders):
            latest = max(latest, window.end)
        for shock in self.capacity_shocks:
            latest = max(latest, shock.restore_at or shock.at)
        for stall in self.loop_stalls:
            latest = max(latest, stall.at + stall.ticks)
        for storm in self.churn_storms:
            latest = max(latest, storm.at)
        for corruption in self.checkpoint_corruptions:
            latest = max(latest, corruption.at)
        for outage in self.checkpoint_outages:
            latest = max(latest, outage.end)
        return latest


@dataclass
class _Actions:
    """Everything a single round triggers, precomputed."""

    crashes: List[CrashWindow] = field(default_factory=list)
    restarts: List[CrashWindow] = field(default_factory=list)
    partitions: List[PartitionWindow] = field(default_factory=list)
    heals: List[PartitionWindow] = field(default_factory=list)
    burst_starts: List[LossBurst] = field(default_factory=list)
    burst_ends: List[LossBurst] = field(default_factory=list)
    dup_starts: List[DuplicationWindow] = field(default_factory=list)
    dup_ends: List[DuplicationWindow] = field(default_factory=list)
    reorder_starts: List[ReorderWindow] = field(default_factory=list)
    reorder_ends: List[ReorderWindow] = field(default_factory=list)
    shocks: List[CapacityShock] = field(default_factory=list)
    shock_restores: List[CapacityShock] = field(default_factory=list)


class FaultInjector:
    """Applies a :class:`FaultPlan` to a runtime, round by round.

    Validates every referenced agent and resource against the runtime at
    construction, then indexes the plan by round so :meth:`apply` is an
    O(1) dictionary probe on quiet rounds.
    """

    def __init__(self, plan: FaultPlan, runtime) -> None:
        if plan.has_service_faults():
            raise DistributedError(
                "fault plan contains service-layer faults (loop stalls, "
                "churn storms, checkpoint corruption/outages); apply those "
                "with repro.service.faults.ServiceFaultInjector against a "
                "SupervisedService, not the distributed FaultInjector"
            )
        self.plan = plan
        self.runtime = runtime
        known_agents = set(runtime.agent_names())
        for name in plan.agents():
            if name not in known_agents:
                raise DistributedError(
                    f"fault plan references unknown agent {name!r}; "
                    f"known agents: {sorted(known_agents)}"
                )
        for rname in plan.resources():
            if rname not in runtime.taskset.resources:
                raise DistributedError(
                    f"fault plan references unknown resource {rname!r}"
                )
        self._by_round: Dict[int, _Actions] = {}
        for crash in plan.crashes:
            self._at(crash.at).crashes.append(crash)
            if crash.restart_at is not None:
                self._at(crash.restart_at).restarts.append(crash)
        for part in plan.partitions:
            self._at(part.start).partitions.append(part)
            if part.end is not None:
                self._at(part.end).heals.append(part)
        for burst in plan.loss_bursts:
            self._at(burst.start).burst_starts.append(burst)
            self._at(burst.end).burst_ends.append(burst)
        for dup in plan.duplications:
            self._at(dup.start).dup_starts.append(dup)
            self._at(dup.end).dup_ends.append(dup)
        for reorder in plan.reorders:
            self._at(reorder.start).reorder_starts.append(reorder)
            self._at(reorder.end).reorder_ends.append(reorder)
        for shock in plan.capacity_shocks:
            self._at(shock.at).shocks.append(shock)
            if shock.restore_at is not None:
                self._at(shock.restore_at).shock_restores.append(shock)
        self._base_loss: Optional[float] = None
        self._base_availability: Dict[str, float] = {}

    def _at(self, round_number: int) -> _Actions:
        actions = self._by_round.get(round_number)
        if actions is None:
            actions = self._by_round[round_number] = _Actions()
        return actions

    # -- actuation ---------------------------------------------------------------

    def apply(self, round_number: int) -> None:
        """Fire every action scheduled for ``round_number``."""
        actions = self._by_round.get(round_number)
        if actions is None:
            return
        runtime, bus = self.runtime, self.runtime.bus
        # Restores first so back-to-back windows hand over cleanly.
        for _burst in actions.burst_ends:
            bus.set_loss_probability(self._base_loss)
            self._base_loss = None
        for _dup in actions.dup_ends:
            bus.duplication_probability = 0.0
        for _reorder in actions.reorder_ends:
            bus.reorder = False
        for shock in actions.shock_restores:
            runtime.set_resource_availability(
                shock.resource, self._base_availability.pop(shock.resource)
            )
        for part in actions.heals:
            bus.heal(part.a, part.b)
        for crash in actions.restarts:
            runtime.restart_agent(crash.agent, warm=crash.warm)
        # Then this round's new faults.
        for crash in actions.crashes:
            runtime.crash_agent(crash.agent)
        for part in actions.partitions:
            bus.partition(part.a, part.b)
        for burst in actions.burst_starts:
            self._base_loss = bus.loss_probability
            bus.set_loss_probability(burst.probability)
        for dup in actions.dup_starts:
            bus.duplication_probability = dup.probability
        for _reorder in actions.reorder_starts:
            bus.reorder = True
        for shock in actions.shocks:
            self._base_availability[shock.resource] = \
                runtime.taskset.resources[shock.resource].availability
            runtime.set_resource_availability(
                shock.resource,
                self._base_availability[shock.resource] * shock.factor,
            )
