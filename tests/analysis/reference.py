"""The object-graph infeasibility certificate the array certificate is
tested against.

:func:`certify_infeasible_reference` walks the task set's objects one
path, subtask and resource at a time — the loops
:func:`~repro.analysis.admission.certify_infeasible` once ran.  The array
version sums in the same orders, so on a task set declared in canonical
(name-sorted) order the two give the same decision and the same reason.
"""

import math
from typing import Dict, Optional

from repro.model.task import TaskSet


def certify_infeasible_reference(taskset: TaskSet,
                                 tol: float = 1e-9) -> Optional[str]:
    """The path-floor and load-floor certificate over the object graph."""
    if not taskset.tasks:
        return None
    floors: Dict[str, float] = {}
    for task in taskset.tasks:
        for sub in task.subtasks:
            availability = taskset.resources[sub.resource].availability
            floors[sub.name] = \
                taskset.share_function(sub.name).min_latency(availability)

    # (1) per-path latency floor vs the critical time
    for task in taskset.tasks:
        for path in task.graph.paths:
            floor = sum(floors[name] for name in path)
            if floor > task.critical_time + tol:
                return (
                    f"task {task.name!r}: path {'->'.join(path)} needs "
                    f"latency >= {floor:.6g} even at full availability, "
                    f"above its critical time {task.critical_time:.6g}"
                )

    # (2) per-resource load floor at the per-subtask latency caps
    caps: Dict[str, float] = {}
    for task in taskset.tasks:
        for path in task.graph.paths:
            floor = sum(floors[name] for name in path)
            for name in path:
                cap = task.critical_time - (floor - floors[name])
                caps[name] = min(caps.get(name, math.inf), cap)
    for rname, resource in taskset.resources.items():
        load = 0.0
        for _task, sub in taskset.subtasks_on(rname):
            cap = caps[sub.name]
            if not math.isfinite(cap):
                continue
            if cap <= 0.0:
                return (
                    f"subtask {sub.name!r}: the rest of its path already "
                    "exhausts the critical time at full availability"
                )
            load += taskset.share_function(sub.name).share(cap)
        if load > resource.availability + tol:
            return (
                f"resource {rname!r}: hosted subtasks need load >= "
                f"{load:.6g} at their critical-time latency caps, above "
                f"availability {resource.availability:.6g}"
            )
    return None
