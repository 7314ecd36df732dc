"""The always-on allocation service (§4.4's "running continuously" mode).

The paper frames LLA as an offline solve, but its deployment story is a
long-running control loop: tasks arrive and leave while prices keep
iterating, and the current primal iterate *is* the allocation the system
enforces.  :class:`AllocationService` is that loop:

* **churn API** — :meth:`register` / :meth:`deregister` /
  :meth:`update_task` / :meth:`set_availability` (and :meth:`apply_batch`
  for a coalesced batch) mutate the live workload.  A churn event costs
  what it changes: each arriving task is compiled once into a
  :class:`~repro.core.structure.TaskFragment`, spliced into (or out of)
  the live :class:`~repro.core.structure.TaskSetStructure` unless the
  :class:`~repro.service.cache.StructureCache` already holds the new
  membership under its fingerprint, and a fresh optimizer on that
  structure alone is **warm-started from the resources' live prices**
  (the resource set is fixed, so every resource has one) — no
  :class:`~repro.model.task.TaskSet` is built, and re-convergence after
  churn costs a fraction of a cold restart;
* **query API** — :meth:`query` answers allocation lookups from the
  current iterate without touching the optimization, so query throughput
  is decoupled from convergence;
* **admission control** — arriving tasks are screened with the sound
  closed-form certificate
  (:func:`~repro.analysis.admission.certify_infeasible`), run over the
  candidate structure's arrays; a provably infeasible task set is
  rejected before it can poison the live solve;
* **snapshots** — :meth:`snapshot` / :meth:`restore` keep the resource
  prices, the whole warm state, with a SHA-256 digest of them in the
  distributed :class:`~repro.distributed.checkpoint.CheckpointStore`,
  stamped with the membership fingerprint
  (:func:`~repro.model.fingerprint.membership_fingerprint`) so a snapshot
  taken for a different problem, or a damaged one, demotes to a cold
  reset instead of restoring garbage.

Drive it synchronously with :meth:`step` (deterministic — experiments and
benchmarks do this) or asynchronously with :meth:`run`, which iterates in
batches and yields to the event loop between them so registrations and
queries interleave with the optimization.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.analysis.admission import AdmissionDecision, certify_infeasible
from repro.core.optimizer import LLAConfig, LLAOptimizer
from repro.core.structure import (
    TaskFragment,
    TaskSetStructure,
    compile_fragment,
    empty_structure,
    splice_structure,
)
from repro.core.vectorized import task_utility
from repro.distributed.checkpoint import CheckpointStore
from repro.errors import ModelError, OptimizationError, ServiceError
from repro.model.fingerprint import (
    DIGEST_MODULUS,
    membership_fingerprint,
    task_digest,
)
# The churn path no longer calls them; the names stay bound here because
# llabench/tracing.py wraps them by attribute lookup.
from repro.core.structure import structure_to_dict as structure_to_dict
from repro.model.fingerprint import taskset_fingerprint as taskset_fingerprint
from repro.model.resources import Resource
from repro.model.task import Task, TaskSet
from repro.model.utility import (
    ExponentialUtility,
    InelasticUtility,
    LinearUtility,
    LogUtility,
    QuadraticUtility,
    UtilityFunction,
)
from repro.service.cache import StructureCache
from repro.service.churnqueue import ChurnEvent
from repro.telemetry import NULL_TELEMETRY, Telemetry

__all__ = ["ServiceConfig", "AllocationService", "Allocation",
           "AllocationView", "ServiceStats"]

#: CheckpointStore agent key for service snapshots.
_SNAPSHOT_AGENT = "service"


@dataclass
class ServiceConfig:
    """Tunables of an :class:`AllocationService`.

    Attributes
    ----------
    admission_control:
        Screen arriving tasks with the closed-form infeasibility
        certificate before rebuilding.
    warm_start_churn:
        Warm-start rebuilt optimizers from the previous optimizer's live
        resource prices (the service's whole point; ``False`` exists so
        benchmarks can measure the cold alternative).
    cache_capacity:
        Entries in the compiled-structure LRU.
    batch_size:
        Optimizer iterations per :meth:`run` slice between event-loop
        yields.

    Every epoch's optimizer runs the paper's defaults (``LLAConfig()``).
    """

    admission_control: bool = True
    warm_start_churn: bool = True
    cache_capacity: int = 64
    batch_size: int = 32

    def __post_init__(self) -> None:
        """Reject inconsistent knobs at construction (REP008)."""
        if self.cache_capacity < 1:
            raise ServiceError(
                f"cache_capacity must be >= 1, got {self.cache_capacity!r}"
            )
        if self.batch_size < 1:
            raise ServiceError(
                f"batch_size must be >= 1, got {self.batch_size!r}"
            )


@dataclass(frozen=True)
class AllocationView:
    """One task's allocation as of the current iterate."""

    task: str
    latencies: Dict[str, float]
    aggregated_latency: float
    utility: float
    meets_critical_time: bool
    iteration: int
    epoch: int
    converged: bool
    #: True when the view was answered from the last known-good
    #: allocation by a degraded (browned-out) supervised service rather
    #: than the live iterate.
    degraded: bool = False


@dataclass(frozen=True, eq=False)
class Allocation:
    """One iterate as queries read it: the epoch's compiled structure,
    its latency array, and the optimizer iteration and service epoch it
    was taken at.

    Nothing writes into the structure or the array: the engine replaces
    its arrays instead of editing them, and a service optimizer, built on
    a structure alone, refuses ``refresh_model``.  So taking one copies
    nothing, and a held one answers for its iterate however much the
    service has moved on.
    """

    structure: TaskSetStructure
    lat: np.ndarray
    iteration: int
    epoch: int

    def view(self, task_name: str, converged: bool,
             degraded: bool = False) -> Optional[AllocationView]:
        """The task's allocation in this iterate (``None`` when the task
        is not in it), read from the compiled structure ("compile once,
        share everywhere") with no object traversal.

        Matches the task object graph value-for-value: the weighted
        aggregate and per-path sums run as sequential Python float
        additions in the same operand order :meth:`Task.aggregated_latency`
        and the graph's critical-path walk use, and the utility is the
        kernel's own formula (:func:`~repro.core.vectorized.task_utility`,
        whose log values may differ from ``math.log``'s in the last ulp).
        """
        s = self.structure
        try:
            t = s.task_index(task_name)
        except ModelError:
            return None
        ssl = s.task_subtask_slice(t)
        local = self.lat[ssl.start:ssl.stop].tolist()
        agg = 0.0
        for w, lat in zip(s.weights[ssl.start:ssl.stop].tolist(), local):
            agg += w * lat
        psl = s.task_path_slice(t)
        # The flattened path membership is grouped by ascending path id,
        # so the task's entries form one contiguous run.
        lo = int(np.searchsorted(s.path_ids_flat, psl.start, side="left"))
        hi = int(np.searchsorted(s.path_ids_flat, psl.stop, side="left"))
        sums = [0.0] * (psl.stop - psl.start)
        for flat in range(lo, hi):
            path = int(s.path_ids_flat[flat]) - psl.start
            sums[path] += local[int(s.path_sub_flat[flat]) - ssl.start]
        return AllocationView(
            task=task_name,
            latencies=dict(zip(s.subtask_names[ssl.start:ssl.stop], local)),
            aggregated_latency=agg,
            utility=task_utility(s, t, agg),
            meets_critical_time=max(sums) <= float(s.path_crit[psl.start]),
            iteration=self.iteration,
            epoch=self.epoch,
            converged=converged,
            degraded=degraded,
        )


@dataclass(frozen=True)
class ServiceStats:
    """Aggregate service health, as exposed by :meth:`stats`."""

    tasks: int
    resources: int
    iterations: int
    epoch: int
    churn_events: int
    queries: int
    admission_rejections: int
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float
    converged: bool
    last_reconvergence_rounds: Optional[int]
    reconvergence_rounds: Tuple[int, ...]
    snapshot_fallbacks: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tasks": self.tasks,
            "resources": self.resources,
            "iterations": self.iterations,
            "epoch": self.epoch,
            "churn_events": self.churn_events,
            "queries": self.queries,
            "admission_rejections": self.admission_rejections,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "converged": self.converged,
            "last_reconvergence_rounds": self.last_reconvergence_rounds,
            "reconvergence_rounds": list(self.reconvergence_rounds),
            "snapshot_fallbacks": self.snapshot_fallbacks,
        }


def _retarget_utility(utility: UtilityFunction,
                      critical_time: float) -> UtilityFunction:
    """The same utility family re-anchored at a new critical time."""
    if isinstance(utility, LinearUtility):
        return LinearUtility(critical_time, k=utility.k, slope=utility.slope)
    if isinstance(utility, LogUtility):
        return LogUtility(critical_time, scale=utility.scale,
                          softness=utility.softness)
    if isinstance(utility, QuadraticUtility):
        return QuadraticUtility(critical_time, u_max=utility.u_max,
                                a=utility.a)
    if isinstance(utility, ExponentialUtility):
        return ExponentialUtility(critical_time, u_max=utility.u_max,
                                  tau=utility.tau)
    if isinstance(utility, InelasticUtility):
        return InelasticUtility(critical_time, u_max=utility.u_max)
    raise ServiceError(
        f"cannot retarget utility of type {type(utility).__name__}; "
        "pass an explicit utility to update_task"
    )


def _mutated_task(old: Task, critical_time: Optional[float],
                  utility: Optional[UtilityFunction]) -> Task:
    """``old`` with its critical time and/or utility replaced (the
    utility re-anchored within its family when only the time moves)."""
    new_crit = old.critical_time if critical_time is None \
        else float(critical_time)
    new_utility = utility
    if new_utility is None:
        new_utility = old.utility if critical_time is None \
            else _retarget_utility(old.utility, new_crit)
    return Task(
        name=old.name,
        subtasks=list(old.subtasks),
        graph=old.graph,
        critical_time=new_crit,
        utility=new_utility,
        variant=old.variant,
        trigger=old.trigger,
    )


def _price_digest(prices: Mapping[str, Any]) -> str:
    """SHA-256 of a price map: names sorted, each price as JSON writes it
    (its ``repr``, which reads back as the same float)."""
    encoded = json.dumps(prices, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def _verified_prices(state: Any, live: Mapping[str, float]
                     ) -> Optional[Dict[str, float]]:
    """The snapshot's price map when it passes its digest and prices
    exactly the resources of ``live`` with numbers a price can take
    (finite and non-negative, as Eq. 8's projection keeps μ); ``None``
    otherwise."""
    if not isinstance(state, dict):
        return None
    prices = state.get("resource_prices")
    if not isinstance(prices, dict) or prices.keys() != live.keys():
        return None
    for price in prices.values():
        if isinstance(price, bool) or not isinstance(price, (int, float)):
            return None
        if not (math.isfinite(price) and price >= 0.0):
            return None
    if state.get("digest") != _price_digest(prices):
        return None
    return prices


def _admitted(name: str) -> AdmissionDecision:
    return AdmissionDecision(task=name, admitted=True,
                             reason="no infeasibility certificate")


class _Draft:
    """A working copy of the service's membership that one churn call
    edits; :meth:`AllocationService._commit` adopts it whole, and a call
    that raises or rejects simply drops it.

    Besides the task map it keeps the subtask owners, the task digests
    and their sum, the resources with their availability array, and the
    compiled structure with the changes not yet spliced into it (fragments
    to insert, task names to remove).  Every admitted task is compiled
    once, into a fragment; an admission splices the pending changes and
    the arrival into a candidate structure and certifies its arrays, and
    an admitted candidate becomes the draft's structure.
    """

    def __init__(self, service: "AllocationService") -> None:
        self._service = service
        self.tasks = dict(service._tasks)
        self.owners = dict(service._owners)
        self.digests = dict(service._digests)
        self.digest_sum = service._digest_sum
        self.resources = dict(service._resources)
        self.availability = service._availability
        #: the structure of the membership before the pending changes
        self.structure = service._structure
        self._insert: Dict[str, TaskFragment] = {}
        self._remove: Set[str] = set()
        self._names = service._resource_names
        self._factor = float(service._lla.max_latency_factor)

    # -- membership --------------------------------------------------------------

    def fingerprint(self, digest_sum: Optional[int] = None) -> str:
        """The membership fingerprint (with another digest sum, that of
        a candidate)."""
        return membership_fingerprint(
            self.digest_sum if digest_sum is None else digest_sum,
            self._service._resource_key + self.availability.tobytes(),
            self._factor,
        )

    def unknown_resource(self, task: Task) -> Optional[str]:
        for sub in task.subtasks:
            if sub.resource not in self.resources:
                return (
                    f"subtask {sub.name!r} references unknown resource "
                    f"{sub.resource!r}"
                )
        return None

    def admit(self, task: Task, replace: bool) -> Optional[str]:
        """Why ``task`` cannot join the membership (or, with ``replace``,
        replace the task of its name); ``None`` once it has joined.

        The name checks need only the task and the owner map, the model
        family only its fragment; the certificate runs over the candidate
        structure's arrays (from the cache when the candidate membership
        was seen before, else spliced).  A rejection leaves the draft as
        it was.
        """
        if not replace and task.name in self.tasks:
            return f"a task named {task.name!r} is already registered"
        reason = self.unknown_resource(task)
        if reason is not None:
            return reason
        for sub in task.subtasks:
            owner = self.owners.get(sub.name)
            if owner is not None and owner != task.name:
                return f"subtask name {sub.name!r} appears in multiple tasks"
        try:
            fragment = compile_fragment(task, self.resources, self._names,
                                        self._factor)
            digest = task_digest(task)
        except (ModelError, OptimizationError) as exc:
            return str(exc)
        digest_sum = (self.digest_sum - self.digests.get(task.name, 0)
                      + digest) % DIGEST_MODULUS
        if self._service.config.admission_control:
            candidate = self._service._cache.peek(
                self.fingerprint(digest_sum), self._factor)
            if candidate is None:
                pending = [f for name, f in self._insert.items()
                           if name != task.name]
                candidate = splice_structure(
                    self._base(), pending + [fragment], self._remove,
                    self.availability,
                )
            certificate = certify_infeasible(candidate)
            if certificate is not None:
                return f"provably infeasible: {certificate}"
            self.structure = candidate
            self._insert.clear()
            self._remove.clear()
        else:
            self._insert[task.name] = fragment
        self._drop(task.name)
        self.tasks[task.name] = task
        self.owners.update((sub.name, task.name) for sub in task.subtasks)
        self.digests[task.name] = digest
        self.digest_sum = digest_sum
        return None

    def remove(self, name: str) -> Optional[Task]:
        """Take ``name`` out of the membership; ``None`` when absent."""
        task = self._drop(name)
        if task is None:
            return None
        self.digest_sum = (self.digest_sum - self.digests.pop(name)) \
            % DIGEST_MODULUS
        self._insert.pop(name, None)
        if self.structure is not None and name in self.structure.task_names:
            self._remove.add(name)
        return task

    def set_availability(self, resource: str, availability: float) -> None:
        """Change one resource's availability.  The tasks on it are
        compiled again: their latency bounds depend on ``B_r``."""
        old = self.resources.get(resource)
        if old is None:
            raise ServiceError(f"no resource named {resource!r}")
        self.resources[resource] = Resource(
            name=old.name, kind=old.kind, availability=availability,
            lag=old.lag, metadata=dict(old.metadata),
        )
        r = bisect.bisect_left(self._names, resource)
        changed = self.availability.copy()
        changed[r] = float(availability)
        self.availability = changed
        for name in self._tasks_on(r):
            self._insert[name] = compile_fragment(
                self.tasks[name], self.resources, self._names, self._factor,
            )

    def materialize(self) -> TaskSetStructure:
        """The structure of the membership: the pending changes spliced
        into the draft's structure with one splice."""
        base = self._base()
        if self._insert or self._remove or \
                base.availability is not self.availability:
            self.structure = splice_structure(
                base, list(self._insert.values()), self._remove,
                self.availability,
            )
            self._insert.clear()
            self._remove.clear()
        assert self.structure is not None
        return self.structure

    # -- internals ---------------------------------------------------------------

    def _base(self) -> TaskSetStructure:
        if self.structure is not None:
            return self.structure
        return empty_structure(self._names, self.availability, self._factor)

    def _drop(self, name: str) -> Optional[Task]:
        task = self.tasks.pop(name, None)
        if task is not None:
            for sub in task.subtasks:
                del self.owners[sub.name]
        return task

    def _tasks_on(self, r: int) -> List[str]:
        """Members with a subtask on resource index ``r``."""
        names = set(self._insert)
        if self.structure is not None:
            s = self.structure
            hosted = np.unique(s.sub_task_ids[s.sub_resource == r])
            names.update(s.task_names[t] for t in hosted.tolist())
        rname = self._names[r]
        return sorted(
            name for name in names if name in self.tasks
            and any(sub.resource == rname for sub in self.tasks[name].subtasks)
        )


class AllocationService:
    """A live LLA optimizer behind a churn/query/admission API."""

    def __init__(self, resources: List[Resource],
                 tasks: Optional[List[Task]] = None,
                 config: Optional[ServiceConfig] = None,
                 telemetry: Optional[Telemetry] = None,
                 snapshots: Optional[CheckpointStore] = None) -> None:
        if not resources:
            raise ServiceError("service needs at least one resource")
        self.config = config or ServiceConfig()
        #: every epoch's optimizer configuration
        self._lla = LLAConfig()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._resources: Dict[str, Resource] = {}
        for resource in resources:
            if resource.name in self._resources:
                raise ServiceError(f"duplicate resource {resource.name!r}")
            self._resources[resource.name] = resource
        # The resource set is fixed for the service's life; only
        # availabilities change.  Names, kinds and lags are encoded once
        # for the membership fingerprint, availabilities as an array in
        # the structure's (sorted) resource order.
        self._resource_names = tuple(sorted(self._resources))
        ordered = [self._resources[r] for r in self._resource_names]
        self._resource_key = json.dumps(
            [[r.name, r.kind.value, r.lag] for r in ordered]
        ).encode("utf-8")
        self._availability = np.array([r.availability for r in ordered])
        self._tasks: Dict[str, Task] = {}
        # subtask name -> owning task, and each task body's digest
        # (model.fingerprint.task_digest) with their sum.
        self._owners: Dict[str, str] = {}
        self._digests: Dict[str, int] = {}
        self._digest_sum = 0
        self._structure: Optional[TaskSetStructure] = None
        self._cache = StructureCache(capacity=self.config.cache_capacity)
        # Injectable so the hardened layer can supply a file-backed store
        # whose snapshots survive a process restart.
        self._snapshots = snapshots if snapshots is not None \
            else CheckpointStore()
        self._optimizer: Optional[LLAOptimizer] = None
        # The membership's TaskSet, built by the first read of
        # `taskset` after a commit; no churn event builds one.
        self._taskset: Optional[TaskSet] = None
        self._fingerprint: Optional[str] = None
        self._running = False
        self._metrics: Optional[Dict[str, Any]] = None
        # Epoch bookkeeping: an epoch spans one workload generation.
        self._epoch = 0
        self._epoch_iterations = 0
        self._reconverged = False
        self._total_iterations = 0
        self._churn_events = 0
        self._queries = 0
        self._admission_rejections = 0
        self._snapshot_fallbacks = 0
        self._reconvergence_rounds: List[int] = []
        # The service outlives any single optimizer, so it owns the trace
        # clock: one monotone iteration count across churn epochs.
        tracer = self.telemetry.tracer
        if tracer.enabled and not tracer.clock_injected:
            tracer.set_clock(lambda: float(self._total_iterations))
        if tasks:
            self._install(tasks)

    # -- telemetry ---------------------------------------------------------------

    def _metric(self, name: str) -> Any:
        if self._metrics is None:
            registry = self.telemetry.registry
            self._metrics = {
                "queries": registry.counter(
                    "service.queries_total", "allocation queries answered"),
                "churn": registry.counter(
                    "service.churn_total", "workload churn events applied"),
                "rejections": registry.counter(
                    "service.admission_rejections_total",
                    "tasks rejected by admission control"),
                "fallbacks": registry.counter(
                    "service.snapshot_fallbacks_total",
                    "snapshot restores demoted to cold resets by a "
                    "stamp or digest mismatch"),
                "snapshot_ms": registry.histogram(
                    "service.snapshot_ms",
                    "wall time of one snapshot, milliseconds",
                    max_samples=1024),
                "snapshot_bytes": registry.gauge(
                    "service.snapshot_bytes",
                    "bytes of the last snapshot file (file-backed "
                    "stores only)"),
                "tasks": registry.gauge(
                    "service.tasks", "tasks currently registered"),
                "reconv": registry.gauge(
                    "service.reconvergence_rounds",
                    "iterations the last churn epoch took to re-converge"),
                "hit_rate": registry.gauge(
                    "service.cache_hit_rate",
                    "structure-cache hit rate since service start"),
                "converged": registry.gauge(
                    "service.converged",
                    "whether the current epoch has re-converged (0/1)"),
                "qps": registry.gauge(
                    "service.qps",
                    "queries per second over the last run() slice"),
            }
        return self._metrics[name]

    # -- churn API ---------------------------------------------------------------

    def _reject(self, name: str, reason: str) -> AdmissionDecision:
        """Count and trace an admission rejection."""
        decision = AdmissionDecision(task=name, admitted=False, reason=reason)
        self._note_rejection(decision)
        return decision

    def _note_rejection(self, decision: AdmissionDecision) -> None:
        self._admission_rejections += 1
        if self.telemetry.enabled:
            self._metric("rejections").inc()
            if self.telemetry.tracer.enabled:
                self.telemetry.tracer.emit(
                    "admission_rejected", task=decision.task,
                    reason=decision.reason,
                )

    def register(self, task: Task) -> AdmissionDecision:
        """Admit and install a task; rejection leaves the service as-is."""
        draft = _Draft(self)
        reason = draft.admit(task, replace=False)
        if reason is not None:
            return self._reject(task.name, reason)
        self._commit(draft)
        return _admitted(task.name)

    def deregister(self, name: str) -> Task:
        """Remove a task; the survivors keep their live prices."""
        if name not in self._tasks:
            raise ServiceError(f"no task named {name!r} is registered")
        draft = _Draft(self)
        task = draft.remove(name)
        assert task is not None
        self._commit(draft)
        return task

    def update_task(self, name: str,
                    critical_time: Optional[float] = None,
                    utility: Optional[UtilityFunction] = None,
                    ) -> AdmissionDecision:
        """Mutate a registered task's critical time and/or utility.

        When only ``critical_time`` is given, the utility is re-anchored
        at the new critical time within its family.  The mutated task
        passes through admission control like an arrival; on rejection
        the old task stays registered and live.
        """
        old = self._tasks.get(name)
        if old is None:
            raise ServiceError(f"no task named {name!r} is registered")
        if critical_time is None and utility is None:
            raise ServiceError(
                "update_task needs a critical_time and/or a utility"
            )
        draft = _Draft(self)
        reason = draft.admit(_mutated_task(old, critical_time, utility),
                             replace=True)
        if reason is not None:
            return self._reject(name, reason)
        self._commit(draft)
        return _admitted(name)

    def set_availability(self, resource: str, availability: float) -> None:
        """Apply a capacity change (e.g. a shock) to a live resource."""
        draft = _Draft(self)
        draft.set_availability(resource, availability)
        self._commit(draft, rebuild=bool(self._tasks))

    def apply_batch(self,
                    events: List[ChurnEvent]) -> List[AdmissionDecision]:
        """Apply a drained (coalesced) churn batch through **one**
        rebuild.

        This is the storm-coalescing payoff: N raw events collapse to at
        most one slot per subject in the
        :class:`~repro.service.churnqueue.ChurnQueue`, and the whole
        batch is applied to a draft of the membership before a single
        rebuild.  Each task-shaped event yields an
        :class:`AdmissionDecision`, judged against the membership the
        events before it left; a rejection keeps that subject as it was
        and the batch continues.  A ``replace`` (deregister+register
        coalesced) that fails admission keeps the previously live task.

        The batch is one transaction: an event that raises (an unknown
        resource, a utility that cannot be re-anchored) raises before
        anything live changes, so the task map, the live solve and the
        counters stay in step.
        """
        draft = _Draft(self)
        decisions: List[AdmissionDecision] = []
        mutated = False
        for event in events:
            if event.kind == "deregister":
                # Tolerant of already-gone tasks: a storm batch may
                # carry a departure the producer lost the race on.
                mutated |= draft.remove(event.key) is not None
                continue
            if event.kind == "availability":
                assert event.availability is not None
                draft.set_availability(event.key, float(event.availability))
                mutated = True
                continue
            if event.kind in ("register", "replace"):
                assert event.task is not None
                candidate = event.task
                if event.critical_time is not None or \
                        event.utility is not None:
                    candidate = _mutated_task(
                        candidate, event.critical_time, event.utility,
                    )
            else:  # update
                old = draft.tasks.get(event.key)
                if old is None:
                    decisions.append(AdmissionDecision(
                        task=event.key, admitted=False,
                        reason=f"no task named {event.key!r} is registered",
                    ))
                    continue
                candidate = _mutated_task(
                    old, event.critical_time, event.utility,
                )
            # The live body, if any, stays on a rejection.
            reason = draft.admit(candidate, replace=True)
            if reason is None:
                mutated = True
                decisions.append(_admitted(event.key))
            else:
                decisions.append(AdmissionDecision(
                    task=event.key, admitted=False, reason=reason,
                ))
        for decision in decisions:
            if not decision.admitted:
                self._note_rejection(decision)
        if mutated:
            self._commit(draft)
        return decisions

    def _install(self, tasks: List[Task]) -> None:
        """Admit the initial tasks as one membership, with one compile.

        Each task is screened on its own (duplicate name, unknown
        resource), the set is compiled cold (which also checks the
        kernel's model family), then the infeasibility certificate runs
        once over the whole set.  The certificate only grows with
        membership, so it fires exactly when registering the tasks one at
        a time would have rejected one of them; a rejection raises
        :class:`ServiceError`.
        """
        draft = _Draft(self)
        for task in tasks:
            if task.name in draft.tasks:
                raise ServiceError(
                    f"initial task {task.name!r} rejected: a task named "
                    f"{task.name!r} is already registered"
                )
            reason = draft.unknown_resource(task)
            if reason is not None:
                raise ServiceError(f"initial tasks rejected: {reason}")
            draft.tasks[task.name] = task
        try:
            draft.digests = {task.name: task_digest(task) for task in tasks}
            draft.digest_sum = sum(draft.digests.values()) % DIGEST_MODULUS
            structure = self._cache.get(
                self._make_taskset(draft.tasks),
                max_latency_factor=self._lla.max_latency_factor,
                fingerprint=draft.fingerprint(),
            )
        except (ModelError, OptimizationError) as exc:
            raise ServiceError(f"initial tasks rejected: {exc}") from exc
        if self.config.admission_control:
            certificate = certify_infeasible(structure)
            if certificate is not None:
                raise ServiceError(
                    "initial tasks rejected: provably infeasible: "
                    f"{certificate}"
                )
        for task in tasks:
            draft.owners.update((sub.name, task.name) for sub in task.subtasks)
        draft.structure = structure
        self._commit(draft, structure=structure)

    def _make_taskset(self, tasks: Mapping[str, Task]) -> TaskSet:
        # Canonical (name-sorted) order: the task set a churn sequence
        # produces depends only on its membership, never on arrival
        # order, matching the canonical compile order of the structure.
        return TaskSet(sorted(tasks.values(), key=lambda t: t.name),
                       [self._resources[r] for r in self._resource_names],
                       allow_shared_resources=True)

    # -- rebuild (the churn path) ------------------------------------------------

    def _commit(self, draft: "_Draft", rebuild: bool = True,
                structure: Optional[TaskSetStructure] = None) -> None:
        """Adopt ``draft`` as the live membership and, when ``rebuild``,
        swap in an optimizer warm-started from the live prices.

        The structure (``structure``, else the cache's under the
        membership fingerprint, else the draft's splice) is the new
        optimizer's only input; no :class:`TaskSet` is built.
        """
        self._tasks = draft.tasks
        self._owners = draft.owners
        self._digests = draft.digests
        self._digest_sum = draft.digest_sum
        self._resources = draft.resources
        self._availability = draft.availability
        self._taskset = None
        if not rebuild:
            return
        live_prices: Mapping[str, float] = {}
        if self._optimizer is not None:
            live_prices = self._optimizer.resource_prices
        had_optimizer = self._optimizer is not None
        if not self._tasks:
            self._optimizer = None
            self._structure = None
            self._fingerprint = None
        else:
            fingerprint = draft.fingerprint()
            if structure is None:
                structure = self._cache.get(
                    max_latency_factor=self._lla.max_latency_factor,
                    fingerprint=fingerprint, build=draft.materialize,
                )
            optimizer = LLAOptimizer(structure, self._lla,
                                     telemetry=self.telemetry)
            # The resource set is fixed, so the previous epoch prices
            # every resource of the new one.
            if self.config.warm_start_churn and live_prices:
                optimizer.adopt_prices(live_prices)
            self._optimizer = optimizer
            self._structure = structure
            # Equal fingerprints mean equal arrays: keep the structure's,
            # so the next draft sees the availability unchanged.
            self._availability = structure.availability
            self._fingerprint = fingerprint
        if had_optimizer or self._optimizer is not None:
            self._churn_events += 1
        self._epoch += 1
        self._epoch_iterations = 0
        self._reconverged = False
        if self.telemetry.enabled:
            self._metric("churn").inc()
            self._metric("tasks").set(len(self._tasks))
            self._metric("hit_rate").set(self._cache.hit_rate)
            self._metric("converged").set(0.0)
            if self.telemetry.tracer.enabled:
                self.telemetry.tracer.emit(
                    "churn", epoch=self._epoch, tasks=len(self._tasks),
                    warm=bool(self.config.warm_start_churn and live_prices),
                    cache_hits=self._cache.hits,
                    cache_misses=self._cache.misses,
                )

    # -- driving -----------------------------------------------------------------

    def step(self, iterations: int = 1) -> int:
        """Advance the live solve; returns iterations actually run (0 when
        no tasks are registered)."""
        if iterations < 1:
            raise ServiceError(f"iterations must be >= 1, got {iterations!r}")
        optimizer = self._optimizer
        if optimizer is None:
            return 0
        for _ in range(iterations):
            optimizer.step()
            self._total_iterations += 1
            self._epoch_iterations += 1
            if not self._reconverged and optimizer.detector.converged():
                self._reconverged = True
                self._reconvergence_rounds.append(self._epoch_iterations)
                if self.telemetry.enabled:
                    self._metric("reconv").set(self._epoch_iterations)
                    self._metric("converged").set(1.0)
                    if self.telemetry.tracer.enabled:
                        self.telemetry.tracer.emit(
                            "service_reconverged", epoch=self._epoch,
                            rounds=self._epoch_iterations,
                        )
        return iterations

    def run_to_convergence(self, budget: int = 5000) -> Optional[int]:
        """Step until the current epoch re-converges; rounds taken, or
        ``None`` when the budget runs out (or no tasks are registered)."""
        if self._optimizer is None:
            return None
        while not self._reconverged and budget > 0:
            chunk = min(self.config.batch_size, budget)
            self.step(chunk)
            budget -= chunk
        return self._reconvergence_rounds[-1] if self._reconverged else None

    async def run(self, iterations: Optional[int] = None) -> int:
        """Drive the optimizer cooperatively on the running event loop.

        Runs ``iterations`` optimizer steps (``None`` = until
        :meth:`stop`), yielding to the event loop after every
        ``batch_size`` so churn and queries interleave with the solve.
        Returns the number of iterations executed.
        """
        if self._running:
            raise ServiceError("service is already running")
        self._running = True
        executed = 0
        queries_before = self._queries
        slice_started = time.perf_counter()
        try:
            while self._running and \
                    (iterations is None or executed < iterations):
                batch = self.config.batch_size
                if iterations is not None:
                    batch = min(batch, iterations - executed)
                ran = self.step(batch) if self._tasks else 0
                executed += ran if ran else batch
                if self.telemetry.enabled:
                    elapsed = time.perf_counter() - slice_started
                    if elapsed > 0.0:
                        self._metric("qps").set(
                            (self._queries - queries_before) / elapsed
                        )
                    queries_before = self._queries
                    slice_started = time.perf_counter()
                await asyncio.sleep(0)
        finally:
            self._running = False
        return executed

    def stop(self) -> None:
        """Ask a concurrent :meth:`run` loop to exit after its batch."""
        self._running = False

    # -- queries -----------------------------------------------------------------

    def query(self, task_name: str) -> AllocationView:
        """The task's allocation under the current iterate: the
        :meth:`Allocation.view` of :meth:`capture`, which slices the
        engine's latency array."""
        allocation = self.capture()
        view = None if allocation is None else \
            allocation.view(task_name, converged=self._reconverged)
        if view is None:
            raise ServiceError(f"no task named {task_name!r} is registered")
        self._queries += 1
        if self.telemetry.enabled:
            self._metric("queries").inc()
        return view

    def capture(self) -> Optional[Allocation]:
        """The current iterate as an :class:`Allocation` (``None`` with
        no tasks registered).  It holds the live arrays, copying nothing,
        and keeps answering for this iterate after later steps and
        churn."""
        optimizer = self._optimizer
        if optimizer is None:
            return None
        return Allocation(optimizer.structure, optimizer.lat,
                          optimizer.iteration, self._epoch)

    def allocations(self) -> Dict[str, float]:
        """Every subtask's latency under the current iterate."""
        if self._optimizer is None:
            return {}
        return dict(self._optimizer.latencies)

    def feasible(self, tol: float = 1e-2) -> bool:
        """Whether the current iterate satisfies Eqs. 3–4 within ``tol``
        (``False`` with no tasks registered).  The verdict comes from the
        kernel's arrays, also right after a rebuild or restore (see
        :meth:`LLAOptimizer.feasible`)."""
        optimizer = self._optimizer
        return optimizer is not None and optimizer.feasible(tol)

    @property
    def tasks(self) -> Tuple[str, ...]:
        return tuple(self._tasks)

    @property
    def task_map(self) -> Mapping[str, Task]:
        """The registered tasks by name, read-only.  A commit replaces
        the map instead of editing it, so a mapping held across churn
        keeps the membership it was read at."""
        return MappingProxyType(self._tasks)

    def task(self, name: str) -> Task:
        """The registered task object named ``name``."""
        task = self._tasks.get(name)
        if task is None:
            raise ServiceError(f"no task named {name!r} is registered")
        return task

    def resource(self, name: str) -> Resource:
        """The resource named ``name``, at its current availability."""
        resource = self._resources.get(name)
        if resource is None:
            raise ServiceError(f"no resource named {name!r}")
        return resource

    @property
    def taskset(self) -> Optional[TaskSet]:
        """The membership as a :class:`TaskSet` (``None`` with no tasks),
        built on the first read after a commit and kept until the next:
        the optimizer runs on the compiled structure alone."""
        if self._taskset is None and self._tasks:
            self._taskset = self._make_taskset(self._tasks)
        return self._taskset

    @property
    def fingerprint(self) -> Optional[str]:
        return self._fingerprint

    @property
    def converged(self) -> bool:
        return self._reconverged

    @property
    def iterations(self) -> int:
        """Optimizer iterations run over every epoch (as in
        :meth:`stats`)."""
        return self._total_iterations

    @property
    def cache(self) -> StructureCache:
        return self._cache

    @property
    def snapshots(self) -> CheckpointStore:
        return self._snapshots

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self) -> None:
        """Checkpoint the live dual state, stamped with the fingerprint.

        The state is the resource-price map, the whole warm state (the
        stamp already names the problem, whose structure the live
        optimizer holds), plus a SHA-256 digest of the map, so
        :meth:`restore` can tell a damaged or hand-edited price from a
        real one.
        """
        optimizer = self._optimizer
        if optimizer is None:
            raise ServiceError("nothing to snapshot: no tasks registered")
        instrumented = self.telemetry.enabled
        if instrumented:
            started = time.perf_counter()
        # The store deep-copies the state it keeps.
        prices = optimizer.resource_prices
        self._snapshots.save(
            _SNAPSHOT_AGENT, self._total_iterations,
            {"resource_prices": prices, "digest": _price_digest(prices)},
            fingerprint=self._fingerprint,
        )
        if instrumented:
            self._metric("snapshot_ms").observe(
                (time.perf_counter() - started) * 1e3)
            path = self._snapshots.path_for(_SNAPSHOT_AGENT)
            if path is not None:
                self._metric("snapshot_bytes").set(os.path.getsize(path))

    def restore(self) -> bool:
        """Warm-restore the last snapshot into the live optimizer.

        Returns ``True`` on a warm restore.  A snapshot stamped for a
        different task set (the workload churned since :meth:`snapshot`)
        demotes to a cold reset — restoring its prices would resume a
        different problem's dual state — and the fallback is counted.  So
        does a snapshot whose price map fails its digest, lacks one (a
        snapshot from before the digest), is not a map of every
        resource's price, or holds a price that is not a number: a
        malformed state never raises.
        """
        optimizer = self._optimizer
        if optimizer is None:
            raise ServiceError("nothing to restore into: no tasks registered")
        checkpoint = self._snapshots.load(
            _SNAPSHOT_AGENT, fingerprint=self._fingerprint,
        )
        prices = None if checkpoint is None else _verified_prices(
            checkpoint.state, optimizer.resource_prices)
        self._epoch_iterations = 0
        self._reconverged = False
        optimizer.detector.reset()
        if prices is None:
            optimizer.reset()
            self._snapshot_fallbacks += 1
            if self.telemetry.enabled:
                self._metric("fallbacks").inc()
                self._metric("converged").set(0.0)
                if self.telemetry.tracer.enabled:
                    self.telemetry.tracer.emit(
                        "snapshot_fallback", epoch=self._epoch,
                    )
            return False
        optimizer.adopt_prices(prices)
        if self.telemetry.enabled:
            self._metric("converged").set(0.0)
        return True

    # -- stats -------------------------------------------------------------------

    def stats(self) -> ServiceStats:
        return ServiceStats(
            tasks=len(self._tasks),
            resources=len(self._resources),
            iterations=self._total_iterations,
            epoch=self._epoch,
            churn_events=self._churn_events,
            queries=self._queries,
            admission_rejections=self._admission_rejections,
            cache_hits=self._cache.hits,
            cache_misses=self._cache.misses,
            cache_hit_rate=self._cache.hit_rate,
            converged=self._reconverged,
            last_reconvergence_rounds=(
                self._reconvergence_rounds[-1]
                if self._reconvergence_rounds else None
            ),
            reconvergence_rounds=tuple(self._reconvergence_rounds),
            snapshot_fallbacks=self._snapshot_fallbacks,
        )
