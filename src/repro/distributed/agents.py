"""The distributed LLA agents: task controllers and resource price agents.

Section 4.1: "a task controller for each task in the system … determines the
resource share and latencies for all subtasks that belong to the task", and
each resource "computes a price value and sends it to the controllers of the
tasks that have subtasks executing at the resource" (prices for links are
computed by one of the link's endpoints — here simply by the link's agent).

Each agent holds only local state plus its last-received view of the remote
state, and exchanges :mod:`repro.distributed.messages` over a
:class:`~repro.distributed.network.MessageBus`.  Under a zero-delay lossless
bus with fixed step sizes, the runtime's iterates match the in-process
:class:`~repro.core.optimizer.LLAOptimizer` exactly (integration-tested).

Step-size adaptation is local, as it must be in a real deployment: a
resource doubles its own γ while it observes congestion; a controller
doubles a path's γ while any resource the path traverses reported a
congestion bit in its last price message.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Sequence

from repro.errors import DistributedError
from repro.core.allocation import LatencyAllocator
from repro.core.prices import update_path_price, update_resource_price
from repro.core.state import PathKey
from repro.distributed.messages import Envelope, LatencyMessage, PriceMessage
from repro.distributed.network import MessageBus
from repro.model.task import Task, TaskSet
from repro.telemetry.spans import SpanContext

__all__ = ["ResourceAgent", "TaskControllerAgent", "LocalGamma"]


class LocalGamma:
    """Per-agent multiplicative step-size state (the adaptive heuristic,
    localized).  ``adapt=False`` freezes it at ``initial`` (fixed policy)."""

    def __init__(self, initial: float = 1.0, growth: float = 2.0,
                 max_gamma: float = 8.0, adapt: bool = True):
        if initial <= 0.0:
            raise DistributedError(f"gamma must be positive, got {initial!r}")
        self.initial = float(initial)
        self.growth = float(growth)
        self.max_gamma = float(max_gamma)
        self.adapt = bool(adapt)
        self.value = self.initial

    def observe(self, congested: bool) -> float:
        if not self.adapt:
            return self.value
        if congested:
            self.value = min(self.value * self.growth, self.max_gamma)
        else:
            self.value = self.initial
        return self.value


class ResourceAgent:
    """Owns one resource's price ``μ_r`` (the Resource Price Computation box).

    Keeps the most recent latency heard for every subtask hosted on the
    resource; missing or stale entries simply persist — exactly the
    behaviour of a real system under message loss.
    """

    def __init__(self, taskset: TaskSet, resource_name: str, bus: MessageBus,
                 initial_price: float = 1.0,
                 gamma: Optional[LocalGamma] = None,
                 hosted: Optional[Sequence[str]] = None,
                 controllers: Optional[Sequence[str]] = None):
        self.taskset = taskset
        self.resource = taskset.resources[resource_name]
        self.name = f"resource:{resource_name}"
        self.bus = bus
        self.initial_price = float(initial_price)
        self.price = float(initial_price)
        self.gamma = gamma or LocalGamma()
        self.paused = False
        self.crashed = False
        # Which controllers to notify: tasks with subtasks executing here.
        # The runtime hands both views down from the compiled structure
        # (one O(S) pass total); standalone construction derives them by
        # walking the object graph for this one resource.
        if controllers is not None:
            self._controllers = list(controllers)
        else:
            self._controllers = sorted({
                task.name for task, _sub in taskset.subtasks_on(resource_name)  # statan: disable=REP016 -- standalone-construction fallback; the runtime passes structure views
            })
        if hosted is not None:
            self._hosted = list(hosted)
        else:
            self._hosted = [
                sub.name for _t, sub in taskset.subtasks_on(resource_name)  # statan: disable=REP016 -- standalone-construction fallback; the runtime passes structure views
            ]
        self._hosted_set = frozenset(self._hosted)
        self.latencies: Dict[str, float] = {}
        self.congested = False
        # Causal-span plumbing (set by the runtime while tracing): the
        # span of this agent's in-progress act, and the span of the last
        # message whose payload changed local state.
        self.act_context: Optional[SpanContext] = None
        self.last_cause: Optional[SpanContext] = None

    # -- crash/recovery ----------------------------------------------------------

    def to_checkpoint(self) -> Dict[str, Any]:
        """Snapshot the agent's mutable state for warm restarts."""
        return {
            "price": self.price,
            "gamma": self.gamma.value,
            "latencies": dict(self.latencies),
            "congested": self.congested,
        }

    def restore_checkpoint(self, state: Dict[str, Any]) -> None:
        """Warm-restart: resume from a checkpointed snapshot."""
        self.price = float(state["price"])
        self.gamma.value = float(state["gamma"])
        self.latencies = dict(state["latencies"])
        self.congested = bool(state["congested"])

    def cold_restart(self) -> None:
        """Cold-restart: forget everything, back to the configured initials."""
        self.price = self.initial_price
        self.gamma.value = self.gamma.initial
        self.latencies.clear()
        self.congested = False

    def receive(self, envelopes: Iterable[Envelope]) -> None:
        for env in envelopes:
            payload = env.payload
            if isinstance(payload, LatencyMessage):
                if payload.subtask in self._hosted_set:
                    self.latencies[payload.subtask] = payload.latency
                    if env.span is not None:
                        self.last_cause = env.span

    def load(self) -> Optional[float]:
        """Share sum from the latest heard latencies (``None`` until every
        hosted subtask has reported at least once)."""
        total = 0.0
        for name in self._hosted:
            if name not in self.latencies:
                return None
            total += self.taskset.share_function(name).share(self.latencies[name])
        return total

    def act(self, iteration: int) -> None:
        """Update ``μ_r`` (Eq. 8) and broadcast the price + congestion bit."""
        if self.paused:
            return
        load = self.load()
        if load is not None:
            self.congested = load > self.resource.availability + 1e-9
            gamma = self.gamma.observe(self.congested)
            self.price = update_resource_price(
                self.price, gamma, self.resource.availability, load
            )
        for controller in self._controllers:
            self.bus.send(
                self.name,
                f"controller:{controller}",
                PriceMessage(
                    resource=self.resource.name,
                    price=self.price,
                    congested=self.congested,
                    iteration=iteration,
                ),
                parent=self.act_context,
            )


class TaskControllerAgent:
    """Owns one task's path prices and latencies (the Latency Allocation box).

    The controller knows its own task's structure and latencies perfectly
    (they are local state); its view of resource prices is whatever the
    last received :class:`PriceMessage` said.

    With ``staleness_limit`` set, the controller doubles as its own
    failure detector: when its *newest* resource price is older than the
    limit (the price's sender crashed, or the link is down), it stops
    trusting the frozen prices — Eq. 8/9 dual updates are suspended and
    the latencies fall back to the last critical-time-feasible assignment
    the controller produced, so the degraded task never violates
    ``Σ lat ≤ Cᵢ`` while the control loop is broken.  Fresh prices lift
    the degradation and the dual iteration resumes where it froze.
    """

    def __init__(self, taskset: TaskSet, task: Task, bus: MessageBus,
                 initial_resource_price: float = 1.0,
                 initial_path_price: float = 0.0,
                 gamma_factory=None, max_latency_factor: float = 1.0,
                 staleness_limit: Optional[int] = None):
        if staleness_limit is not None and staleness_limit < 1:
            raise DistributedError(
                f"staleness_limit must be >= 1, got {staleness_limit!r}"
            )
        self.taskset = taskset
        self.task = task
        self.name = f"controller:{task.name}"
        self.bus = bus
        self.allocator = LatencyAllocator(
            taskset, task, max_latency_factor=max_latency_factor
        )
        self._initial_resource_price = float(initial_resource_price)
        self._initial_path_price = float(initial_path_price)
        self.staleness_limit = staleness_limit
        gamma_factory = gamma_factory or (lambda: LocalGamma())
        # Local view of μ_r for resources this task uses, seeded at the
        # protocol's initial price so round 0 matches the centralized run.
        self.resource_prices: Dict[str, float] = {
            sub.resource: float(initial_resource_price)
            for sub in task.subtasks
        }
        self.path_prices: Dict[PathKey, float] = {
            PathKey(task.name, i): float(initial_path_price)
            for i in range(len(task.graph.paths))
        }
        self._path_gammas: Dict[PathKey, LocalGamma] = {
            key: gamma_factory() for key in self.path_prices
        }
        # Congestion bits heard from resources, by resource name.
        self._congested_resources: Dict[str, bool] = {}
        # Resources traversed by each path (for the adaptive heuristic).
        resource_of = {s.name: s.resource for s in task.subtasks}
        self._path_resources: Dict[PathKey, frozenset] = {
            PathKey(task.name, i): frozenset(resource_of[s] for s in path)
            for i, path in enumerate(task.graph.paths)
        }
        # Bus round at which each resource's price was last refreshed; the
        # seeded initial prices count as round-0 information.
        self._price_heard_round: Dict[str, int] = {
            r: 0 for r in self.resource_prices
        }
        self.latencies: Dict[str, float] = self.allocator.allocate(
            self.resource_prices, self.path_prices
        )
        self._last_feasible: Optional[Dict[str, float]] = None
        self.degraded = False
        self.degraded_rounds = 0
        self.paused = False
        self.crashed = False
        # Causal-span plumbing (set by the runtime while tracing).
        self.act_context: Optional[SpanContext] = None
        self.last_cause: Optional[SpanContext] = None

    def receive(self, envelopes: Iterable[Envelope]) -> None:
        for env in envelopes:
            payload = env.payload
            if isinstance(payload, PriceMessage):
                self.resource_prices[payload.resource] = payload.price
                self._congested_resources[payload.resource] = payload.congested
                self._price_heard_round[payload.resource] = env.send_round
                if env.span is not None:
                    self.last_cause = env.span

    # -- failure detection -------------------------------------------------------

    def staleness(self) -> int:
        """Age (in bus rounds) of the most outdated resource price."""
        if not self._price_heard_round:
            return 0
        return self.bus.round - min(self._price_heard_round.values())

    def is_stale(self) -> bool:
        """True when the failure detector considers the price view broken."""
        return (
            self.staleness_limit is not None
            and self.staleness() > self.staleness_limit
        )

    def _paths_feasible(self, latencies: Dict[str, float]) -> bool:
        graph = self.task.graph
        budget = self.task.critical_time + 1e-9
        return all(
            graph.path_latency(path, latencies) <= budget  # statan: disable=REP016 -- agent-local walk of its own task graph
            for path in graph.paths
        )

    # -- crash/recovery ----------------------------------------------------------

    def to_checkpoint(self) -> Dict[str, Any]:
        """Snapshot the agent's mutable state for warm restarts."""
        return {
            "resource_prices": dict(self.resource_prices),
            "path_prices": dict(self.path_prices),
            "path_gammas": {
                key: gamma.value for key, gamma in self._path_gammas.items()
            },
            "congested_resources": dict(self._congested_resources),
            "price_heard_round": dict(self._price_heard_round),
            "latencies": dict(self.latencies),
            "last_feasible": (
                None if self._last_feasible is None
                else dict(self._last_feasible)
            ),
        }

    def restore_checkpoint(self, state: Dict[str, Any]) -> None:
        """Warm-restart: resume from a checkpointed snapshot."""
        self.resource_prices = dict(state["resource_prices"])
        self.path_prices = dict(state["path_prices"])
        for key, value in state["path_gammas"].items():
            self._path_gammas[key].value = float(value)
        self._congested_resources = dict(state["congested_resources"])
        self._price_heard_round = dict(state["price_heard_round"])
        self.latencies = dict(state["latencies"])
        last = state["last_feasible"]
        self._last_feasible = None if last is None else dict(last)
        self.degraded = False

    def cold_restart(self) -> None:
        """Cold-restart: forget everything, back to the configured initials."""
        for r in self.resource_prices:
            self.resource_prices[r] = self._initial_resource_price
        for key in self.path_prices:
            self.path_prices[key] = self._initial_path_price
        for gamma in self._path_gammas.values():
            gamma.value = gamma.initial
        self._congested_resources.clear()
        # A cold restart treats the initial prices as fresh-as-of-now, so
        # the failure detector restarts its staleness clock.
        self._price_heard_round = {
            r: self.bus.round for r in self.resource_prices
        }
        self.latencies = self.allocator.allocate(
            self.resource_prices, self.path_prices
        )
        self._last_feasible = None
        self.degraded = False

    def act(self, iteration: int) -> None:
        """Update λ_p (Eq. 9), allocate latencies (Eq. 7), send them out.

        When the failure detector trips, the dual updates are frozen and
        the last critical-time-feasible assignment is re-enacted instead
        (graceful degradation); latency messages keep flowing either way
        so resource agents retain an accurate load view.
        """
        if self.paused:
            return
        if self.is_stale():
            self.degraded = True
            self.degraded_rounds += 1
            if self._last_feasible is not None:
                self.latencies = dict(self._last_feasible)
        else:
            self.degraded = False
            for i, path in enumerate(self.task.graph.paths):
                key = PathKey(self.task.name, i)
                path_congested = any(
                    self._congested_resources.get(r, False)
                    for r in self._path_resources[key]
                )
                gamma = self._path_gammas[key].observe(path_congested)
                lat = self.task.graph.path_latency(path, self.latencies)  # statan: disable=REP016 -- agent-local walk of its own task graph
                self.path_prices[key] = update_path_price(
                    self.path_prices[key], gamma, lat, self.task.critical_time
                )
            self.latencies = self.allocator.allocate(
                self.resource_prices, self.path_prices
            )
            if self.staleness_limit is not None and \
                    self._paths_feasible(self.latencies):
                self._last_feasible = dict(self.latencies)
        for sub in self.task.subtasks:
            self.bus.send(
                self.name,
                f"resource:{sub.resource}",
                LatencyMessage(
                    task=self.task.name,
                    subtask=sub.name,
                    latency=self.latencies[sub.name],
                    iteration=iteration,
                ),
                parent=self.act_context,
            )
