"""Tasks, subtasks and task sets (the workload model of Sections 2–3).

A :class:`Task` bundles a set of :class:`Subtask` objects, their precedence
:class:`~repro.model.graph.SubtaskGraph`, a critical time (deadline), a
utility function, and an aggregation *variant* (``sum`` or
``path-weighted``, Section 3.2).  A :class:`TaskSet` is the full workload —
tasks plus the resources they compete for — with the structural invariants
of the paper validated at construction:

* each subtask consumes exactly one resource;
* every referenced resource exists;
* (by default) no two subtasks of the same task consume the same resource
  (the paper's simplifying assumption, relaxable via
  ``allow_shared_resources=True``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import ModelError
from repro.model.events import TriggeringEvent
from repro.model.graph import SubtaskGraph
from repro.model.resources import Resource
from repro.model.share import HyperbolicShare, ShareFunction
from repro.model.summation import sequential_sum
from repro.model.utility import UtilityFunction

__all__ = ["Subtask", "Task", "TaskSet", "UtilityVariant", "share_function_of"]

#: Valid utility aggregation variants (Section 3.2).
UtilityVariant = ("sum", "path-weighted")


@dataclass(frozen=True)
class Subtask:
    """One stage of a task, consuming exactly one resource.

    Parameters
    ----------
    name:
        Identifier unique within the whole task set, e.g. ``"T11"``.
    resource:
        Name of the resource this subtask consumes.
    exec_time:
        Worst-case execution time (same unit as latencies; ms in the paper).
    percentile:
        The latency percentile this subtask's latency bound refers to
        (Section 2.1).  ``100.0`` means worst case — the paper's default.
    share_function:
        Optional custom share model; when ``None`` the task set builds the
        paper's hyperbolic form from ``exec_time`` and the resource lag.
    """

    name: str
    resource: str
    exec_time: float
    percentile: float = 100.0
    share_function: Optional[ShareFunction] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("subtask name must be non-empty")
        if not self.resource:
            raise ModelError(f"subtask {self.name!r} has no resource")
        if self.exec_time <= 0.0:
            raise ModelError(
                f"subtask {self.name!r} exec_time must be positive, "
                f"got {self.exec_time!r}"
            )
        if not 0.0 < self.percentile <= 100.0:
            raise ModelError(
                f"subtask {self.name!r} percentile must be in (0, 100], "
                f"got {self.percentile!r}"
            )


def share_function_of(sub: Subtask, lag: float) -> ShareFunction:
    """The share model of ``sub`` on a resource with scheduling lag
    ``lag``: its custom one, else the paper's hyperbolic Eq. 10 form."""
    if sub.share_function is not None:
        return sub.share_function
    return HyperbolicShare(exec_time=sub.exec_time, lag=lag)


class Task:
    """An end-to-end task: subtasks, precedence graph, deadline, utility."""

    def __init__(
        self,
        name: str,
        subtasks: Iterable[Subtask],
        graph: SubtaskGraph,
        critical_time: float,
        utility: UtilityFunction,
        variant: str = "path-weighted",
        trigger: Optional[TriggeringEvent] = None,
    ) -> None:
        if not name:
            raise ModelError("task name must be non-empty")
        if not (critical_time > 0.0 and math.isfinite(critical_time)):
            raise ModelError(
                f"task {name!r} critical time must be positive and finite, "
                f"got {critical_time!r}"
            )
        if variant not in UtilityVariant:
            raise ModelError(
                f"task {name!r}: unknown utility variant {variant!r}; "
                f"expected one of {UtilityVariant}"
            )
        self.name = name
        self.subtasks: Tuple[Subtask, ...] = tuple(subtasks)
        if not self.subtasks:
            raise ModelError(f"task {name!r} has no subtasks")
        names = [s.name for s in self.subtasks]
        if len(set(names)) != len(names):
            raise ModelError(f"task {name!r} has duplicate subtask names")
        if set(names) != set(graph.nodes):
            missing = set(graph.nodes) - set(names)
            extra = set(names) - set(graph.nodes)
            raise ModelError(
                f"task {name!r}: graph/subtask mismatch "
                f"(graph-only: {sorted(missing)!r}, subtask-only: {sorted(extra)!r})"
            )
        self.graph = graph
        self.critical_time = float(critical_time)
        self.utility = utility
        self.variant = variant
        self.trigger = trigger
        self._by_name: Dict[str, Subtask] = {s.name: s for s in self.subtasks}
        # Aggregation weights (Section 3.2): 1 for `sum`, path count for
        # `path-weighted`.
        if variant == "sum":
            self._weights = {n: 1.0 for n in names}
        else:
            self._weights = {
                n: float(w) for n, w in graph.path_weights().items()
            }

    # -- lookups ---------------------------------------------------------------

    def subtask(self, name: str) -> Subtask:
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise ModelError(
                f"task {self.name!r} has no subtask {name!r}"
            ) from exc

    @property
    def subtask_names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.subtasks)

    def weight(self, subtask_name: str) -> float:
        """Aggregation weight ``w_s`` of the subtask (Section 3.2)."""
        try:
            return self._weights[subtask_name]
        except KeyError as exc:
            raise ModelError(
                f"task {self.name!r} has no subtask {subtask_name!r}"
            ) from exc

    @property
    def weights(self) -> Dict[str, float]:
        return dict(self._weights)

    # -- latency / utility ------------------------------------------------------

    def aggregated_latency(self, latencies: Mapping[str, float]) -> float:
        """The scalar fed to the utility function under this task's variant,
        added left to right in subtask order on every Python (``sum()``
        compensates from 3.12 on; the kernel's per-task ``bincount`` does
        not)."""
        total = 0.0
        for n in self.subtask_names:
            total += self._weights[n] * latencies[n]
        return total

    def utility_value(self, latencies: Mapping[str, float]) -> float:
        """Task utility ``U_i`` at the given subtask latencies."""
        return self.utility.value(self.aggregated_latency(latencies))

    def utility_gradient(self, latencies: Mapping[str, float]) -> Dict[str, float]:
        """``∂U_i/∂lat_s`` for every subtask (chain rule through the
        aggregation)."""
        fprime = self.utility.derivative(self.aggregated_latency(latencies))
        return {n: self._weights[n] * fprime for n in self.subtask_names}

    def critical_path(
        self, latencies: Mapping[str, float]
    ) -> Tuple[Tuple[str, ...], float]:
        """Maximum-latency root-to-leaf path under ``latencies``."""
        return self.graph.critical_path(latencies)

    def meets_critical_time(self, latencies: Mapping[str, float],
                            slack: float = 0.0) -> bool:
        """Whether every path finishes within the critical time (Eq. 4)."""
        _, worst = self.graph.critical_path(latencies)
        return worst <= self.critical_time + slack

    def __repr__(self) -> str:
        return (
            f"Task({self.name!r}, subtasks={len(self.subtasks)}, "
            f"C={self.critical_time}, variant={self.variant!r})"
        )


class TaskSet:
    """A complete workload: tasks plus the resources they compete for."""

    def __init__(
        self,
        tasks: Iterable[Task],
        resources: Iterable[Resource],
        allow_shared_resources: bool = False,
    ) -> None:
        self.tasks: Tuple[Task, ...] = tuple(tasks)
        self.resources: Dict[str, Resource] = {}
        for resource in resources:
            if resource.name in self.resources:
                raise ModelError(f"duplicate resource {resource.name!r}")
            self.resources[resource.name] = resource
        if not self.tasks:
            raise ModelError("task set must contain at least one task")

        task_names = [t.name for t in self.tasks]
        if len(set(task_names)) != len(task_names):
            raise ModelError("duplicate task names in task set")
        self._task_by_name = {t.name: t for t in self.tasks}

        self._subtask_owner: Dict[str, Task] = {}
        self._subtasks_on: Dict[str, List[Tuple[Task, Subtask]]] = {
            r: [] for r in self.resources
        }
        for task in self.tasks:
            used_resources = set()
            for sub in task.subtasks:
                if sub.name in self._subtask_owner:
                    raise ModelError(
                        f"subtask name {sub.name!r} appears in multiple tasks"
                    )
                if sub.resource not in self.resources:
                    raise ModelError(
                        f"subtask {sub.name!r} references unknown "
                        f"resource {sub.resource!r}"
                    )
                if sub.resource in used_resources and not allow_shared_resources:
                    raise ModelError(
                        f"task {task.name!r} has two subtasks on resource "
                        f"{sub.resource!r}; pass allow_shared_resources=True "
                        "to permit this"
                    )
                used_resources.add(sub.resource)
                self._subtask_owner[sub.name] = task
                self._subtasks_on[sub.resource].append((task, sub))

        self._share_functions: Dict[str, ShareFunction] = {
            sub.name: share_function_of(sub, self.resources[sub.resource].lag)
            for task in self.tasks for sub in task.subtasks
        }

    # -- lookups ---------------------------------------------------------------

    def task(self, name: str) -> Task:
        try:
            return self._task_by_name[name]
        except KeyError as exc:
            raise ModelError(f"no task named {name!r}") from exc

    def owner_of(self, subtask_name: str) -> Task:
        """The task a subtask belongs to."""
        try:
            return self._subtask_owner[subtask_name]
        except KeyError as exc:
            raise ModelError(
                f"no subtask named {subtask_name!r}"
            ) from exc

    def subtasks_on(self, resource_name: str) -> Tuple[Tuple[Task, Subtask], ...]:
        """All ``(task, subtask)`` pairs competing for a resource."""
        try:
            return tuple(self._subtasks_on[resource_name])
        except KeyError as exc:
            raise ModelError(
                f"no resource named {resource_name!r}"
            ) from exc

    def share_function(self, subtask_name: str) -> ShareFunction:
        """The share model for a subtask (custom or paper-default)."""
        try:
            return self._share_functions[subtask_name]
        except KeyError as exc:
            raise ModelError(
                f"no subtask named {subtask_name!r}"
            ) from exc

    def set_share_function(self, subtask_name: str, fn: ShareFunction) -> None:
        """Replace a subtask's share model (used by error correction)."""
        if subtask_name not in self._share_functions:
            raise ModelError(f"no subtask named {subtask_name!r}")
        self._share_functions[subtask_name] = fn

    def set_availability(self, resource_name: str, availability: float) -> None:
        """Change a resource's availability at run time.

        Models resource variation — degradation (co-located load, partial
        failure) or recovery.  :class:`~repro.model.resources.Resource` is
        immutable, so the entry is swapped for an updated copy; running
        optimizers observe the change immediately through the price update
        and congestion classification, but cached latency bounds must be
        refreshed (:meth:`repro.core.optimizer.LLAOptimizer.refresh_model`).
        """
        if resource_name not in self.resources:
            raise ModelError(f"no resource named {resource_name!r}")
        old = self.resources[resource_name]
        self.resources[resource_name] = Resource(
            name=old.name,
            kind=old.kind,
            availability=availability,
            lag=old.lag,
            metadata=dict(old.metadata),
        )

    @property
    def all_subtasks(self) -> Tuple[Subtask, ...]:
        return tuple(
            sub for task in self.tasks for sub in task.subtasks
        )

    @property
    def subtask_names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.all_subtasks)

    # -- aggregate metrics -------------------------------------------------------

    def total_utility(self, latencies: Mapping[str, float]) -> float:
        """Objective value ``Σ_i U_i`` (Eq. 2), summed in task order by
        :func:`~repro.model.summation.sequential_sum`."""
        return sequential_sum([t.utility_value(latencies) for t in self.tasks])

    def resource_load(self, resource_name: str,
                      latencies: Mapping[str, float]) -> float:
        """``Σ share_r(s, lat_s)`` over subtasks on the resource (Eq. 3 LHS)."""
        total = 0.0
        for _task, sub in self.subtasks_on(resource_name):
            total += self._share_functions[sub.name].share(latencies[sub.name])
        return total

    def resource_loads(self, latencies: Mapping[str, float]) -> Dict[str, float]:
        return {
            r: self.resource_load(r, latencies) for r in self.resources
        }

    def constraint_violations(
        self, latencies: Mapping[str, float], tol: float = 1e-9
    ) -> List[str]:
        """Human-readable descriptions of violated constraints (Eqs. 3–4)."""
        problems: List[str] = []
        for rname, resource in self.resources.items():
            load = self.resource_load(rname, latencies)
            if load > resource.availability + tol:
                problems.append(
                    f"resource {rname!r} overloaded: "
                    f"{load:.4f} > B_r={resource.availability:.4f}"
                )
        for task in self.tasks:
            for path in task.graph.paths:
                lat = task.graph.path_latency(path, latencies)
                if lat > task.critical_time + tol:
                    problems.append(
                        f"task {task.name!r} path {'→'.join(path)} misses "
                        f"critical time: {lat:.4f} > C={task.critical_time:.4f}"
                    )
        return problems

    def is_feasible(self, latencies: Mapping[str, float],
                    tol: float = 1e-9) -> bool:
        """Whether the assignment satisfies all constraints."""
        return not self.constraint_violations(latencies, tol=tol)

    def __len__(self) -> int:
        return len(self.tasks)

    def __repr__(self) -> str:
        return (
            f"TaskSet(tasks={len(self.tasks)}, "
            f"subtasks={len(self._subtask_owner)}, "
            f"resources={len(self.resources)})"
        )
