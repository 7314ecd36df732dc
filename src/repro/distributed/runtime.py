"""The distributed LLA runtime: agents + bus + round loop.

One *round* is one iteration of the paper's distributed algorithm:

1. controllers collect due price messages, update path prices, allocate
   latencies and send them to the resources (Latency Allocation box);
2. resources collect due latency messages, update their prices and send
   them (with congestion bits) back to the controllers (Resource Price
   Computation box).

With a zero-delay, lossless bus and fixed step sizes this sequence is
bit-for-bit the in-process :class:`~repro.core.optimizer.LLAOptimizer`
iteration; with delays, jitter, drops or partitions it shows how the
protocol degrades (it keeps converging under moderate loss — prices simply
move on stale information, which the dual-gradient iteration tolerates).

Utility/feasibility are measured by an omniscient observer (this module) —
the agents themselves never see global state.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.state import IterationRecord, OptimizationResult, PathKey
from repro.core.structure import TaskSetStructure, compile_structure
from repro.core.vectorized import observe_assignment
from repro.distributed.activation import ActivationSchedule, EveryRound
from repro.distributed.agents import (
    LocalGamma,
    ResourceAgent,
    TaskControllerAgent,
)
from repro.distributed.checkpoint import CheckpointStore
from repro.distributed.faults import FaultInjector, FaultPlan
from repro.distributed.messages import PriceMessage
from repro.distributed.network import MessageBus
from repro.errors import DistributedError
from repro.model.fingerprint import taskset_fingerprint
from repro.model.task import TaskSet
from repro.telemetry import (
    NULL_TELEMETRY,
    SpanContext,
    SpanTracker,
    Telemetry,
    encode_record,
)

__all__ = ["DistributedConfig", "DistributedLLARuntime"]

logger = logging.getLogger(__name__)


@dataclass
class DistributedConfig:
    """Runtime tunables (bus faults + protocol constants)."""

    rounds: int = 500
    delay: int = 0
    jitter: int = 0
    loss_probability: float = 0.0
    seed: int = 0
    initial_resource_price: float = 1.0
    initial_path_price: float = 0.0
    initial_gamma: float = 1.0
    adaptive: bool = True
    max_gamma: float = 8.0
    max_latency_factor: float = 1.0
    record_history: bool = True
    #: Which agents act each round; None = the synchronous ideal.
    activation: Optional[ActivationSchedule] = None
    #: Scripted chaos scenario applied round by round; None = fault-free.
    fault_plan: Optional[FaultPlan] = None
    #: Controllers freeze dual updates and fall back to their last
    #: critical-time-feasible assignment once their newest resource price
    #: is older than this many rounds; None disables the detector.
    staleness_limit: Optional[int] = None
    #: Checkpoint every agent's state every this many rounds (for warm
    #: restarts after a crash); 0 disables checkpointing.
    checkpoint_interval: int = 25
    #: Bus-level envelope TTL in rounds (None = messages never expire).
    message_ttl: Optional[int] = None
    #: Suppress duplicate deliveries of the same envelope sequence number.
    dedup: bool = True

    def __post_init__(self) -> None:
        """Reject inconsistent knobs at construction (REP008)."""
        if self.rounds < 1:
            raise DistributedError(
                f"rounds must be >= 1, got {self.rounds!r}"
            )
        if self.delay < 0 or self.jitter < 0:
            raise DistributedError(
                f"delay/jitter must be >= 0, got "
                f"{self.delay!r}/{self.jitter!r}"
            )
        if not 0.0 <= self.loss_probability <= 1.0:
            raise DistributedError(
                f"loss_probability must be in [0, 1], "
                f"got {self.loss_probability!r}"
            )
        for name in ("initial_resource_price", "initial_path_price",
                     "initial_gamma", "max_gamma", "max_latency_factor"):
            # NaN passes every comparison below.
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DistributedError(f"{name} must be finite, got {value!r}")
        if self.seed < 0:
            # default_rng rejects negative seeds, but only when the bus
            # first draws — mid-run, not at construction.
            raise DistributedError(f"seed must be >= 0, got {self.seed!r}")
        if self.initial_resource_price <= 0.0:
            raise DistributedError(
                f"initial_resource_price must be positive, "
                f"got {self.initial_resource_price!r}"
            )
        if self.initial_path_price < 0.0:
            raise DistributedError(
                f"initial_path_price must be >= 0, "
                f"got {self.initial_path_price!r}"
            )
        if self.initial_gamma <= 0.0:
            raise DistributedError(
                f"initial_gamma must be positive, got {self.initial_gamma!r}"
            )
        if self.max_gamma < self.initial_gamma:
            raise DistributedError(
                f"max_gamma {self.max_gamma!r} below initial_gamma "
                f"{self.initial_gamma!r}"
            )
        if self.max_latency_factor < 1.0:
            raise DistributedError(
                f"max_latency_factor must be >= 1, "
                f"got {self.max_latency_factor!r}"
            )
        if self.staleness_limit is not None and self.staleness_limit < 1:
            raise DistributedError(
                f"staleness_limit must be >= 1, got {self.staleness_limit!r}"
            )
        if self.checkpoint_interval < 0:
            raise DistributedError(
                f"checkpoint_interval must be >= 0, "
                f"got {self.checkpoint_interval!r}"
            )
        if self.message_ttl is not None and self.message_ttl < 1:
            raise DistributedError(
                f"message_ttl must be >= 1, got {self.message_ttl!r}"
            )


class DistributedLLARuntime:
    """Message-passing execution of LLA over a simulated control network.

    Runs the optimizer's model family only: a task set outside it
    (:func:`~repro.core.structure.task_model`) raises
    :class:`~repro.errors.OptimizationError` at construction.
    """

    def __init__(self, taskset: TaskSet,
                 config: Optional[DistributedConfig] = None,
                 on_round: Optional[Callable[[IterationRecord], None]] = None,
                 telemetry: Optional[Telemetry] = None):
        self.taskset = taskset
        self.config = config or DistributedConfig()
        self.on_round = on_round
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # Compile the task set once; the omniscient observer and the
        # per-resource agent views read the arrays instead of re-walking
        # the object graph every round.  A model outside the kernel's
        # family raises OptimizationError here, naming it.
        self.structure: TaskSetStructure = compile_structure(
            taskset, max_latency_factor=self.config.max_latency_factor
        )
        # The fingerprint only changes when the model does (capacity
        # shocks); cache it instead of re-hashing at every checkpoint.
        self._fingerprint = taskset_fingerprint(taskset)
        # Trace timestamps follow the protocol round so identical runs
        # write identical traces (unless the caller injected a clock).
        tracer = self.telemetry.tracer
        if tracer.enabled and not tracer.clock_injected:
            tracer.set_clock(lambda: float(self.round))
        cfg = self.config
        self.bus = MessageBus(
            delay=cfg.delay,
            jitter=cfg.jitter,
            loss_probability=cfg.loss_probability,
            seed=cfg.seed,
            telemetry=telemetry,
            message_ttl=cfg.message_ttl,
            dedup=cfg.dedup,
        )

        def gamma_factory() -> LocalGamma:
            return LocalGamma(
                initial=cfg.initial_gamma,
                max_gamma=cfg.max_gamma,
                adapt=cfg.adaptive,
            )

        self.controllers: Dict[str, TaskControllerAgent] = {
            task.name: TaskControllerAgent(
                taskset,
                task,
                self.bus,
                initial_resource_price=cfg.initial_resource_price,
                initial_path_price=cfg.initial_path_price,
                gamma_factory=gamma_factory,
                max_latency_factor=cfg.max_latency_factor,
                staleness_limit=cfg.staleness_limit,
            )
            for task in taskset.tasks
        }
        agent_views = self._resource_agent_views()
        self.resources: Dict[str, ResourceAgent] = {
            rname: ResourceAgent(
                taskset,
                rname,
                self.bus,
                initial_price=cfg.initial_resource_price,
                gamma=gamma_factory(),
                hosted=agent_views[rname][0],
                controllers=agent_views[rname][1],
            )
            for rname in taskset.resources
        }
        self.bus.register(*self.agent_names())
        self.checkpoints = CheckpointStore()
        self.injector = (
            FaultInjector(cfg.fault_plan, self)
            if cfg.fault_plan is not None and not cfg.fault_plan.is_empty()
            else None
        )
        self.activation = cfg.activation or EveryRound()
        self.round = 0
        self.history: List[IterationRecord] = []
        self.crash_dropped = 0
        # Root causal span of the current run() (None outside a traced run).
        self._run_span: Optional[SpanContext] = None
        # Price-staleness tracking: the round each controller last received
        # a price message, for the dist.price_staleness_max gauge.
        self._last_price_round: Dict[str, int] = {
            agent.name: 0 for agent in self.controllers.values()
        }

    def _resource_agent_views(
        self,
    ) -> Dict[str, Tuple[List[str], List[str]]]:
        """Per-resource (hosted subtasks, controller names) from the
        compiled structure in one pass over the subtask arrays — replaces
        the O(R x S) per-agent object-graph scans."""
        s = self.structure
        hosted: Dict[str, List[str]] = {r: [] for r in s.resource_names}
        owners: Dict[str, set] = {r: set() for r in s.resource_names}
        for i, sub_name in enumerate(s.subtask_names):
            rname = s.resource_names[int(s.sub_resource[i])]
            hosted[rname].append(sub_name)
            owners[rname].add(s.task_names[int(s.sub_task_ids[i])])
        return {
            rname: (hosted[rname], sorted(owners[rname]))
            for rname in s.resource_names
        }

    # -- agent directory --------------------------------------------------------

    def agent_names(self):
        """Every agent name, controllers then resources."""
        return (
            [agent.name for agent in self.controllers.values()]
            + [agent.name for agent in self.resources.values()]
        )

    def agent(self, name: str):
        """Resolve ``"controller:T"``/``"resource:r"`` to its agent."""
        kind, _, subject = name.partition(":")
        if kind == "controller" and subject in self.controllers:
            return self.controllers[subject]
        if kind == "resource" and subject in self.resources:
            return self.resources[subject]
        raise DistributedError(
            f"unknown agent {name!r}; known agents: "
            f"{sorted(self.agent_names())}"
        )

    # -- faults ------------------------------------------------------------------

    def crash_agent(self, name: str) -> None:
        """Take an agent down: it stops receiving, acting and sending;
        messages addressed to it are dropped until it restarts."""
        agent = self.agent(name)
        if agent.crashed:
            raise DistributedError(f"agent {name!r} is already crashed")
        agent.crashed = True
        logger.warning("agent crash: %s (round %d)", name, self.round)
        if self.telemetry.enabled:
            self.telemetry.registry.counter(
                "dist.agent_crashes_total", "agent crash events"
            ).inc()
            self.telemetry.registry.gauge(
                "dist.crashed_agents", "agents currently down"
            ).inc()
            if self.telemetry.tracer.enabled:
                self.telemetry.tracer.emit(
                    "agent_crash", agent=name, round=self.round
                )

    def restart_agent(self, name: str, warm: bool = True) -> None:
        """Bring a crashed agent back, warm (from its last checkpoint,
        when one exists) or cold (from the configured initials)."""
        agent = self.agent(name)
        if not agent.crashed:
            raise DistributedError(f"agent {name!r} is not crashed")
        checkpoint = None
        if warm:
            # A checkpoint stamped for a different task set (capacity
            # shocks, churn) is not a head start — demand the current
            # fingerprint and fall back to a cold restart on mismatch.
            mismatches_before = self.checkpoints.mismatches
            checkpoint = self.checkpoints.load(
                name, fingerprint=self._fingerprint
            )
            if checkpoint is None and \
                    self.checkpoints.mismatches > mismatches_before:
                logger.warning(
                    "agent %s: checkpoint is for a different task set; "
                    "restarting cold (round %d)", name, self.round,
                )
                if self.telemetry.enabled:
                    self.telemetry.registry.counter(
                        "dist.checkpoint_mismatches_total",
                        "warm restarts demoted to cold by a task-set "
                        "fingerprint mismatch",
                    ).inc()
                    if self.telemetry.tracer.enabled:
                        self.telemetry.tracer.emit(
                            "checkpoint_mismatch", agent=name,
                            round=self.round,
                        )
        if checkpoint is not None:
            agent.restore_checkpoint(checkpoint.state)
        else:
            agent.cold_restart()
        agent.crashed = False
        logger.info(
            "agent restart: %s (round %d, %s)", name, self.round,
            f"warm from round {checkpoint.round}" if checkpoint is not None
            else "cold",
        )
        if self.telemetry.enabled:
            self.telemetry.registry.counter(
                "dist.agent_restarts_total", "agent restart events"
            ).inc()
            self.telemetry.registry.gauge(
                "dist.crashed_agents", "agents currently down"
            ).dec()
            if self.telemetry.tracer.enabled:
                self.telemetry.tracer.emit(
                    "agent_restart", agent=name, round=self.round,
                    warm=checkpoint is not None,
                    checkpoint_round=(
                        checkpoint.round if checkpoint is not None else None
                    ),
                )

    def set_resource_availability(self, resource: str, value: float) -> None:
        """Apply a capacity shock: change ``B_r`` live and refresh every
        controller's allocation bounds to the new model."""
        self.taskset.set_availability(resource, value)
        self.refresh_model()
        logger.warning("capacity shock: %s availability -> %.6g (round %d)",
                       resource, value, self.round)
        if self.telemetry.tracer.enabled:
            self.telemetry.tracer.emit(
                "capacity_shock", resource=resource,
                availability=float(value), round=self.round,
            )

    def refresh_model(self) -> None:
        """Re-read mutable model state (availabilities, corrected share
        functions) into every controller's allocation bounds, the compiled
        structure the omniscient observer reads, and the cached checkpoint
        fingerprint."""
        for controller in self.controllers.values():
            controller.allocator.refresh_bounds()
        self.structure.refresh_model(self.taskset)
        self._fingerprint = taskset_fingerprint(self.taskset)

    def crashed_agents(self):
        """Names of agents currently down."""
        return [
            name for name in self.agent_names() if self.agent(name).crashed
        ]

    def degraded_controllers(self):
        """Names of controllers currently in graceful degradation."""
        return [
            agent.name for agent in self.controllers.values()
            if agent.degraded
        ]

    def _checkpoint_all(self) -> None:
        fingerprint = self._fingerprint
        for name in self.agent_names():
            agent = self.agent(name)
            if not agent.crashed:
                self.checkpoints.save(name, self.round,
                                      agent.to_checkpoint(),
                                      fingerprint=fingerprint)

    # -- observation ----------------------------------------------------------

    def global_latencies(self) -> Dict[str, float]:
        """Omniscient snapshot of every controller's current latencies."""
        latencies: Dict[str, float] = {}
        for controller in self.controllers.values():
            latencies.update(controller.latencies)
        return latencies

    def _snapshot(self) -> IterationRecord:
        latencies = self.global_latencies()
        path_prices_all: Dict[PathKey, float] = {}
        for controller in self.controllers.values():
            path_prices_all.update(controller.path_prices)
        s = self.structure
        obs = observe_assignment(s, latencies, tol=1e-9)
        return IterationRecord(
            iteration=self.round,
            utility=obs.utility,
            latencies=latencies,
            resource_prices={
                r: agent.price for r, agent in self.resources.items()
            },
            path_prices=path_prices_all,
            resource_loads=dict(zip(s.resource_names, obs.loads.tolist())),
            congested_resources=tuple(
                s.resource_names[i] for i in np.flatnonzero(obs.cong_r)
            ),
            congested_paths=tuple(
                s.path_keys[i] for i in np.flatnonzero(obs.cong_p)
            ),
            critical_paths=dict(zip(s.task_names, obs.crit.tolist())),
        )

    # -- execution -------------------------------------------------------------

    def _act_with_span(self, agent, spans: Optional[SpanTracker],
                       round_ctx: Optional[SpanContext]) -> None:
        """Run one agent's act, wrapped in a causal span while tracing.

        The act span parents on the span of the last message that changed
        the agent's state (so price → act → latency chains link up across
        agents and rounds) and falls back to the round span before any
        message has arrived.
        """
        if spans is None:
            agent.act(self.round)
            return
        parent = agent.last_cause if agent.last_cause is not None \
            else round_ctx
        with spans.start_span("act", parent=parent, agent=agent.name,
                              round=self.round) as span:
            agent.act_context = span.context
            try:
                agent.act(self.round)
            finally:
                agent.act_context = None

    def step(self) -> IterationRecord:
        """One protocol round (controller phase, then resource phase).

        Scripted faults fire at the start of the round; crashed agents
        neither receive nor act, and their due messages are discarded.
        """
        instrumented = self.telemetry.enabled
        if instrumented:
            started = time.perf_counter()
        self.round += 1
        spans = (
            self.telemetry.spans if self.telemetry.tracer.enabled else None
        )
        round_ctx = (
            spans.open_span("round", parent=self._run_span, round=self.round)
            if spans is not None else None
        )
        if self.injector is not None:
            self.injector.apply(self.round)
        newly_degraded = []
        for controller in self.controllers.values():
            if controller.crashed:
                self.crash_dropped += self.bus.purge(controller.name)
                continue
            was_degraded = controller.degraded
            messages = self.bus.deliver(controller.name)
            controller.receive(messages)
            if instrumented and any(
                    isinstance(env.payload, PriceMessage)
                    for env in messages):
                self._last_price_round[controller.name] = self.round
            if self.activation.is_active(controller.name, self.round):
                self._act_with_span(controller, spans, round_ctx)
            if controller.degraded and not was_degraded:
                newly_degraded.append(controller)
        for agent in self.resources.values():
            if agent.crashed:
                self.crash_dropped += self.bus.purge(agent.name)
                continue
            agent.receive(self.bus.deliver(agent.name))
            if self.activation.is_active(agent.name, self.round):
                self._act_with_span(agent, spans, round_ctx)
        self.bus.advance()
        if self.config.checkpoint_interval > 0 and \
                self.round % self.config.checkpoint_interval == 0:
            self._checkpoint_all()
        record = self._snapshot()
        if spans is not None and round_ctx is not None:
            spans.end_span(round_ctx, utility=float(record.utility))
        if instrumented:
            self._observe_round(record, time.perf_counter() - started)
            self._observe_degradation(newly_degraded)
        if self.on_round is not None:
            self.on_round(record)
        return record

    def _observe_degradation(self, newly_degraded) -> None:
        registry = self.telemetry.registry
        tracer = self.telemetry.tracer
        for controller in newly_degraded:
            logger.warning(
                "controller %s degraded: newest price is %d rounds old "
                "(limit %d), freezing on last feasible assignment (round %d)",
                controller.name, controller.staleness(),
                controller.staleness_limit, self.round,
            )
            if tracer.enabled:
                tracer.emit(
                    "staleness_violation", agent=controller.name,
                    staleness=controller.staleness(),
                    limit=controller.staleness_limit, round=self.round,
                )
        degraded = self.degraded_controllers()
        if degraded:
            registry.counter(
                "dist.degraded_rounds_total",
                "controller-rounds spent in graceful degradation",
            ).inc(len(degraded))
        registry.gauge(
            "dist.degraded_controllers",
            "controllers currently running degraded",
        ).set(len(degraded))

    def _observe_round(self, record: IterationRecord,
                       duration: float) -> None:
        registry = self.telemetry.registry
        registry.counter(
            "dist.rounds_total", "protocol rounds executed").inc()
        registry.timer(
            "dist.round_seconds", "wall time per protocol round",
            max_samples=4096,
        ).observe(duration)
        registry.gauge(
            "dist.utility", "total utility at the last round").set(
                record.utility)
        staleness = max(
            (self.round - last for last in self._last_price_round.values()),
            default=0,
        )
        registry.gauge(
            "dist.price_staleness_max",
            "rounds since the most price-starved controller heard a price",
        ).set(staleness)
        if self.telemetry.tracer.enabled:
            self.telemetry.tracer.emit(
                "iteration", duration_s=duration, **encode_record(record))

    def run(self, rounds: Optional[int] = None) -> OptimizationResult:
        """Run a fixed number of rounds; returns the final global view."""
        budget = rounds or self.config.rounds
        tracer = self.telemetry.tracer
        if tracer.enabled:
            tracer.emit(
                "run_started", runtime="distributed",
                starting_round=self.round, budget=budget,
                controllers=len(self.controllers),
                resources=len(self.resources),
                delay=self.bus.delay, jitter=self.bus.jitter,
                loss_probability=self.bus.loss_probability,
                fault_plan=self.injector is not None,
                staleness_limit=self.config.staleness_limit,
            )
            self._run_span = self.telemetry.spans.open_span(
                "run", runtime="distributed", budget=budget,
            )
        debug = logger.isEnabledFor(logging.DEBUG)
        for _ in range(budget):
            record = self.step()
            if debug:
                logger.debug(
                    "round %d: utility %.6f, %d in-flight messages, "
                    "%d dropped", self.round, record.utility,
                    self.bus.pending(), self.bus.dropped,
                )
            if self.config.record_history:
                self.history.append(record)
        latencies = self.global_latencies()
        final = observe_assignment(self.structure, latencies, tol=1e-2)
        converged = final.feasible()
        utility = final.utility
        if not converged:
            logger.warning(
                "distributed run ended infeasible after %d rounds "
                "(utility %.6f, %d messages dropped)",
                self.round, utility, self.bus.dropped,
            )
        if self._run_span is not None:
            self.telemetry.spans.end_span(
                self._run_span, converged=bool(converged),
            )
            self._run_span = None
        if tracer.enabled:
            tracer.emit(
                "run_finished", runtime="distributed", converged=converged,
                iterations=self.round, utility=float(utility),
                sent=self.bus.sent, delivered=self.bus.delivered,
                dropped=self.bus.dropped, expired=self.bus.expired,
                deduplicated=self.bus.deduplicated,
                crash_dropped=self.crash_dropped,
            )
            if self.telemetry.registry.enabled:
                tracer.emit("metrics_snapshot",
                            metrics=self.telemetry.registry.snapshot())
        return OptimizationResult(
            converged=converged,
            iterations=self.round,
            latencies=latencies,
            utility=utility,
            resource_prices={
                r: agent.price for r, agent in self.resources.items()
            },
            path_prices={
                key: price
                for controller in self.controllers.values()
                for key, price in controller.path_prices.items()
            },
            history=self.history,
        )
