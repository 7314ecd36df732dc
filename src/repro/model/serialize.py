"""Workload (de)serialization: task sets to/from plain dicts and JSON.

A deployable system needs its workload specifications in files — operators
author task definitions, admission controllers persist the admitted set,
experiments pin their inputs.  This module round-trips every structural
element of the model:

* resources (name, kind, availability, lag);
* subtask graphs (nodes + edges);
* subtasks (resource, WCET, percentile);
* utilities (all five built-in families with their parameters);
* triggering events (periodic, Poisson, bursty);
* the aggregation variant and critical time.

Custom share functions are intentionally *not* serialized (they are code);
task sets using them round-trip to the default Eq. 10 model, and
:func:`taskset_to_dict` flags the substitution in the output.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.errors import ModelError
from repro.model.events import (
    BurstyEvent,
    PeriodicEvent,
    PoissonEvent,
    TriggeringEvent,
)
from repro.model.graph import SubtaskGraph
from repro.model.resources import Resource, ResourceKind
from repro.model.share import HyperbolicShare
from repro.model.task import Subtask, Task, TaskSet
from repro.model.utility import (
    ExponentialUtility,
    InelasticUtility,
    LinearUtility,
    LogUtility,
    QuadraticUtility,
    UtilityFunction,
)

__all__ = [
    "task_to_dict",
    "taskset_to_dict",
    "taskset_from_dict",
    "taskset_to_json",
    "taskset_from_json",
]

_FORMAT_VERSION = 1


# -- utilities -----------------------------------------------------------------

def _utility_to_dict(utility: UtilityFunction) -> Dict[str, Any]:
    if isinstance(utility, LinearUtility):
        return {"type": "linear", "critical_time": utility.critical_time,
                "k": utility.k, "slope": utility.slope}
    if isinstance(utility, LogUtility):
        return {"type": "log", "critical_time": utility.critical_time,
                "scale": utility.scale, "softness": utility.softness}
    if isinstance(utility, QuadraticUtility):
        return {"type": "quadratic", "critical_time": utility.critical_time,
                "u_max": utility.u_max, "a": utility.a}
    if isinstance(utility, ExponentialUtility):
        return {"type": "exponential", "critical_time": utility.critical_time,
                "u_max": utility.u_max, "tau": utility.tau}
    if isinstance(utility, InelasticUtility):
        return {"type": "inelastic", "critical_time": utility.critical_time,
                "u_max": utility.u_max}
    raise ModelError(
        f"cannot serialize utility of type {type(utility).__name__}"
    )


def _utility_from_dict(data: Dict[str, Any]) -> UtilityFunction:
    kind = data.get("type")
    if kind == "linear":
        return LinearUtility(data["critical_time"], k=data["k"],
                             slope=data["slope"])
    if kind == "log":
        return LogUtility(data["critical_time"], scale=data["scale"],
                          softness=data["softness"])
    if kind == "quadratic":
        return QuadraticUtility(data["critical_time"], u_max=data["u_max"],
                                a=data["a"])
    if kind == "exponential":
        return ExponentialUtility(data["critical_time"], u_max=data["u_max"],
                                  tau=data["tau"])
    if kind == "inelastic":
        return InelasticUtility(data["critical_time"], u_max=data["u_max"])
    raise ModelError(f"unknown utility type {kind!r}")


# -- triggers -------------------------------------------------------------------

def _trigger_to_dict(trigger: Optional[TriggeringEvent]) -> Optional[Dict]:
    if trigger is None:
        return None
    if isinstance(trigger, PeriodicEvent):
        return {"type": "periodic", "period": trigger.period,
                "phase": trigger.phase}
    if isinstance(trigger, PoissonEvent):
        return {"type": "poisson", "rate": trigger.rate}
    if isinstance(trigger, BurstyEvent):
        return {"type": "bursty", "burst_rate": trigger.burst_rate,
                "mean_on": trigger.mean_on, "mean_off": trigger.mean_off}
    raise ModelError(
        f"cannot serialize trigger of type {type(trigger).__name__}"
    )


def _trigger_from_dict(data: Optional[Dict]) -> Optional[TriggeringEvent]:
    if data is None:
        return None
    kind = data.get("type")
    if kind == "periodic":
        return PeriodicEvent(data["period"], phase=data["phase"])
    if kind == "poisson":
        return PoissonEvent(data["rate"])
    if kind == "bursty":
        return BurstyEvent(data["burst_rate"], data["mean_on"],
                           data["mean_off"])
    raise ModelError(f"unknown trigger type {kind!r}")


# -- task sets --------------------------------------------------------------------

def task_to_dict(task: Task) -> Dict[str, Any]:
    """Serialize one task (without share functions) to a JSON-compatible
    dict; :func:`taskset_to_dict` lists one per task."""
    return {
        "name": task.name,
        "critical_time": task.critical_time,
        "variant": task.variant,
        "utility": _utility_to_dict(task.utility),
        "trigger": _trigger_to_dict(task.trigger),
        "subtasks": [
            {
                "name": sub.name,
                "resource": sub.resource,
                "exec_time": sub.exec_time,
                "percentile": sub.percentile,
            }
            for sub in task.subtasks
        ],
        "edges": [list(e) for e in task.graph.edges],
    }


def taskset_to_dict(taskset: TaskSet) -> Dict[str, Any]:
    """Serialize a task set to a JSON-compatible dict."""
    resources: List[Dict[str, Any]] = [
        {
            "name": r.name,
            "kind": r.kind.value,
            "availability": r.availability,
            "lag": r.lag,
        }
        for r in taskset.resources.values()
    ]
    custom_share_functions = [
        sub.name
        for task in taskset.tasks for sub in task.subtasks
        if not isinstance(taskset.share_function(sub.name), HyperbolicShare)
    ]
    tasks = [task_to_dict(task) for task in taskset.tasks]
    return {
        "format_version": _FORMAT_VERSION,
        "resources": resources,
        "tasks": tasks,
        "custom_share_functions_dropped": sorted(custom_share_functions),
    }


def taskset_from_dict(data: Dict[str, Any]) -> TaskSet:
    """Reconstruct a task set from :func:`taskset_to_dict` output."""
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise ModelError(
            f"unsupported workload format version {version!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    resources = [
        Resource(
            name=r["name"],
            kind=ResourceKind(r["kind"]),
            availability=r["availability"],
            lag=r["lag"],
        )
        for r in data["resources"]
    ]
    tasks = []
    for tdata in data["tasks"]:
        subtasks = [
            Subtask(
                name=s["name"],
                resource=s["resource"],
                exec_time=s["exec_time"],
                percentile=s["percentile"],
            )
            for s in tdata["subtasks"]
        ]
        graph = SubtaskGraph(
            [s["name"] for s in tdata["subtasks"]],
            [tuple(e) for e in tdata["edges"]],
        )
        tasks.append(Task(
            name=tdata["name"],
            subtasks=subtasks,
            graph=graph,
            critical_time=tdata["critical_time"],
            utility=_utility_from_dict(tdata["utility"]),
            variant=tdata["variant"],
            trigger=_trigger_from_dict(tdata["trigger"]),
        ))
    return TaskSet(tasks, resources)


def taskset_to_json(taskset: TaskSet, indent: int = 2) -> str:
    """Serialize a task set to a JSON string."""
    return json.dumps(taskset_to_dict(taskset), indent=indent)


def taskset_from_json(text: str) -> TaskSet:
    """Reconstruct a task set from :func:`taskset_to_json` output."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"invalid workload JSON: {exc}") from exc
    return taskset_from_dict(data)
