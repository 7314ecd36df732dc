"""The paper's experimental workloads (Sections 5.1, 5.3, 5.4, 6.2).

Calibration note (see DESIGN.md): Table 1's reported optimum satisfies
``Σ (c_s + 1)/lat_s ≈ 1.000`` on all eight resources, which pins the
simulation parameters to lag ``l_r = 1 ms`` and availability ``B_r = 1``.
The exact subtask-graph topologies of Figure 4 are not fully specified in
the text; the graphs below are reconstructed from the narrative:

* **Task 1** — push (publish/subscribe / multicast): a producer fans out
  through intermediate stages to the interested leaves.
* **Task 2** — complex pull (sensor aggregation / RSS): a request/aggregate
  chain followed by distribution to several consumers.
* **Task 3** — simple pull (client/server): a six-stage pipeline.  The six
  Table 1 latencies of task 3 sum to exactly its reported 52.8 ms critical
  path, confirming the chain topology.

All three tasks are triggered by periodic events every 100 ms; critical
times are 45, 76 and 53 ms.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ModelError
from repro.model.events import PeriodicEvent
from repro.model.graph import SubtaskGraph
from repro.model.resources import Resource, ResourceKind
from repro.model.task import Subtask, Task, TaskSet
from repro.model.utility import LinearUtility

__all__ = [
    "TABLE1_SUBTASKS",
    "TABLE1_LATENCIES",
    "TABLE1_CRITICAL_TIMES",
    "TABLE1_CRITICAL_PATHS",
    "base_workload",
    "scaled_workload",
    "unschedulable_workload",
    "prototype_workload",
    "PROTOTYPE_FAST_MIN_SHARE",
    "PROTOTYPE_SLOW_MIN_SHARE",
    "WORKLOAD_FACTORIES",
    "workload_names",
    "make_workload",
]

#: Resource lag implied by Table 1 (ms).
PAPER_LAG = 1.0
#: Resource availability implied by Table 1.
PAPER_AVAILABILITY = 1.0
#: Trigger period of all simulation tasks (ms).
PAPER_PERIOD = 100.0

#: Table 1, rows "Resource" and "Exec time": subtask -> (resource index, WCET ms).
TABLE1_SUBTASKS: Dict[str, Tuple[int, float]] = {
    "T11": (0, 2.0), "T12": (1, 3.0), "T13": (2, 4.0), "T14": (3, 5.0),
    "T15": (4, 4.0), "T16": (5, 3.0), "T17": (6, 2.0),
    "T21": (0, 2.0), "T22": (1, 4.0), "T23": (2, 3.0), "T24": (4, 6.0),
    "T25": (5, 7.0), "T26": (6, 5.0), "T27": (3, 2.0), "T28": (7, 3.0),
    "T31": (0, 3.0), "T32": (1, 2.0), "T33": (2, 2.0), "T34": (4, 3.0),
    "T35": (6, 4.0), "T36": (7, 4.0),
}

#: Table 1, row "Latency": the paper's converged per-subtask latencies (ms).
TABLE1_LATENCIES: Dict[str, float] = {
    "T11": 9.7, "T12": 13.8, "T13": 19.5, "T14": 14.4, "T15": 21.4,
    "T16": 10.5, "T17": 19.2,
    "T21": 10.3, "T22": 15.0, "T23": 15.1, "T24": 19.3, "T25": 12.8,
    "T26": 16.6, "T27": 5.1, "T28": 9.3,
    "T31": 9.9, "T32": 7.9, "T33": 6.2, "T34": 9.8, "T35": 10.3, "T36": 8.7,
}

#: Table 1, row "Crit.Time" (ms).
TABLE1_CRITICAL_TIMES: Dict[str, float] = {"T1": 45.0, "T2": 76.0, "T3": 53.0}

#: Table 1, row "Crit.Path": the paper's converged critical paths (ms).
TABLE1_CRITICAL_PATHS: Dict[str, float] = {"T1": 44.9, "T2": 75.6, "T3": 52.8}

#: Reconstructed Figure 4 precedence edges.
_TASK1_EDGES = [
    ("T11", "T12"), ("T11", "T13"), ("T11", "T14"),
    ("T12", "T15"), ("T12", "T16"),
    ("T13", "T17"), ("T14", "T17"),
]
_TASK2_EDGES = [
    ("T21", "T22"), ("T22", "T23"), ("T23", "T24"),
    ("T24", "T25"), ("T24", "T26"),
    ("T24", "T27"), ("T27", "T28"),
]
_TASK3_EDGES = [
    ("T31", "T32"), ("T32", "T33"), ("T33", "T34"),
    ("T34", "T35"), ("T35", "T36"),
]

_TASK_SPECS = {
    "T1": ([n for n in TABLE1_SUBTASKS if n.startswith("T1")], _TASK1_EDGES),
    "T2": ([n for n in TABLE1_SUBTASKS if n.startswith("T2")], _TASK2_EDGES),
    "T3": ([n for n in TABLE1_SUBTASKS if n.startswith("T3")], _TASK3_EDGES),
}


def _resources(count: int = 8, availability: float = PAPER_AVAILABILITY,
               lag: float = PAPER_LAG) -> List[Resource]:
    """The simulation's eight resources.

    The paper mixes CPU and network-bandwidth resources (each subtask
    consumes exactly one); even indices are modeled as CPUs and odd ones as
    links — the optimizer treats both identically.
    """
    return [
        Resource(
            name=f"r{i}",
            kind=ResourceKind.CPU if i % 2 == 0 else ResourceKind.LINK,
            availability=availability,
            lag=lag,
        )
        for i in range(count)
    ]


def _build_task(
    name: str,
    subtask_names: Sequence[str],
    edges: Sequence[Tuple[str, str]],
    critical_time: float,
    variant: str,
    k: float,
    rename: Optional[Dict[str, str]] = None,
) -> Task:
    rename = rename or {}
    subtasks = []
    for sname in subtask_names:
        resource_idx, exec_time = TABLE1_SUBTASKS[sname]
        subtasks.append(
            Subtask(
                name=rename.get(sname, sname),
                resource=f"r{resource_idx}",
                exec_time=exec_time,
            )
        )
    graph = SubtaskGraph(
        [rename.get(n, n) for n in subtask_names],
        [(rename.get(a, a), rename.get(b, b)) for a, b in edges],
    )
    return Task(
        name=name,
        subtasks=subtasks,
        graph=graph,
        critical_time=critical_time,
        utility=LinearUtility(critical_time, k=k),
        variant=variant,
        trigger=PeriodicEvent(PAPER_PERIOD),
    )


def base_workload(variant: str = "path-weighted", k: float = 2.0) -> TaskSet:
    """The Section 5.1 three-task workload with Table 1 parameters.

    Every resource is close to congestion at the optimum: the sum of the
    converged shares on each resource is ≈ ``B_r`` — the paper's stated
    lower bound for LLA's performance on schedulable workloads.
    """
    tasks = [
        _build_task(tname, names, edges, TABLE1_CRITICAL_TIMES[tname],
                    variant, k)
        for tname, (names, edges) in _TASK_SPECS.items()
    ]
    return TaskSet(tasks, _resources())


def scaled_workload(copies: int, critical_time_factor: float = 20.0,
                    variant: str = "path-weighted", k: float = 2.0) -> TaskSet:
    """The Section 5.3 scalability workloads.

    Clones each base task ``copies`` times with identical characteristics
    (subtasks, parameters, graph, resource mapping) — copies of the same
    task contend for the same resources.  Schedulability is maintained by
    overprovisioning: every critical time is multiplied by
    ``critical_time_factor`` (the paper "sets a high enough critical time
    for each task in all three workloads"), which also inflates the
    utility, producing the linear utility-vs-task-count growth of Figure 6.

    The default factor of 20 puts even the 12-task workload in the
    overprovisioned regime where path constraints are slack and latencies
    pin at the minimum-rate-share bound; there per-task utility is
    independent of the task count, making total utility exactly linear —
    the paper's Figure 6 claim.  (At small factors the tasks contend, the
    aggregate-latency term grows quadratically with the count, and the
    claim degrades.)

    ``copies = 1/2/4`` gives the paper's 3/6/12-task workloads.

    Tasks are declared in name-sorted order (T1, T1c1, …, T2, …) — the
    canonical order :func:`repro.core.structure.compile_structure` uses —
    so the kernel and the per-element loops iterate the clones identically
    and their trajectories stay bitwise-equal.
    """
    if copies < 1:
        raise ModelError(f"copies must be >= 1, got {copies!r}")
    if critical_time_factor <= 0.0:
        raise ModelError(
            f"critical_time_factor must be positive, got {critical_time_factor!r}"
        )
    tasks = []
    for copy in range(copies):
        for tname, (names, edges) in _TASK_SPECS.items():
            suffix = "" if copy == 0 else f"c{copy}"
            rename = {n: f"{n}{suffix}" for n in names} if suffix else None
            tasks.append(
                _build_task(
                    f"{tname}{suffix}",
                    names,
                    edges,
                    TABLE1_CRITICAL_TIMES[tname] * critical_time_factor,
                    variant,
                    k,
                    rename=rename,
                )
            )
    tasks.sort(key=lambda t: t.name)
    return TaskSet(tasks, _resources())


def unschedulable_workload(copies: int = 2, variant: str = "path-weighted",
                           k: float = 2.0) -> TaskSet:
    """The Section 5.4 schedulability-test workload.

    The scaled six-task workload *without* scaling the critical times: the
    resources cannot support six tasks at the original deadlines, so LLA
    must fail to converge (Figure 7) with critical-path latencies well
    above the constraints.
    """
    return scaled_workload(copies, critical_time_factor=1.0,
                           variant=variant, k=k)


# -- Section 6 prototype workload -------------------------------------------------

#: Prototype parameters (Section 6.2).
PROTOTYPE_LAG = 5.0           # ms of PS scheduling lag
PROTOTYPE_GC_SHARE = 0.1      # share reserved for the Metronome collector
PROTOTYPE_FAST_WCET = 5.0     # ms
PROTOTYPE_SLOW_WCET = 13.0    # ms
PROTOTYPE_FAST_RATE = 40.0 / 1000.0   # arrivals per ms (40/second)
PROTOTYPE_SLOW_RATE = 10.0 / 1000.0   # arrivals per ms (10/second)
PROTOTYPE_FAST_CRITICAL = 105.0       # ms
PROTOTYPE_SLOW_CRITICAL = 800.0       # ms
#: Minimum rate shares (rate × WCET): 0.2 fast, 0.13 slow.
PROTOTYPE_FAST_MIN_SHARE = PROTOTYPE_FAST_RATE * PROTOTYPE_FAST_WCET
PROTOTYPE_SLOW_MIN_SHARE = PROTOTYPE_SLOW_RATE * PROTOTYPE_SLOW_WCET


def prototype_workload(variant: str = "sum") -> TaskSet:
    """The Section 6.2 prototype workload.

    Four tasks of three linearly-dependent subtasks each, spread over three
    CPUs so every CPU hosts one subtask of every task.  Tasks 1–2 ("fast")
    have 5 ms WCETs, 40/s periodic arrivals and a 105 ms critical time;
    tasks 3–4 ("slow") have 13 ms WCETs, 10/s arrivals and 800 ms.  All use
    the utility ``f_i(lat) = -lat``.  Each CPU reserves a 0.1 share for the
    garbage collector, leaving ``B_r = 0.9``.
    """
    cpus = [
        Resource(name=f"cpu{i}", kind=ResourceKind.CPU,
                 availability=1.0 - PROTOTYPE_GC_SHARE, lag=PROTOTYPE_LAG)
        for i in range(3)
    ]
    tasks = []
    specs = [
        ("fast1", PROTOTYPE_FAST_WCET, PROTOTYPE_FAST_RATE,
         PROTOTYPE_FAST_CRITICAL),
        ("fast2", PROTOTYPE_FAST_WCET, PROTOTYPE_FAST_RATE,
         PROTOTYPE_FAST_CRITICAL),
        ("slow1", PROTOTYPE_SLOW_WCET, PROTOTYPE_SLOW_RATE,
         PROTOTYPE_SLOW_CRITICAL),
        ("slow2", PROTOTYPE_SLOW_WCET, PROTOTYPE_SLOW_RATE,
         PROTOTYPE_SLOW_CRITICAL),
    ]
    for tname, wcet, rate, critical in specs:
        names = [f"{tname}_s{i}" for i in range(3)]
        subtasks = [
            Subtask(name=names[i], resource=f"cpu{i}", exec_time=wcet)
            for i in range(3)
        ]
        tasks.append(
            Task(
                name=tname,
                subtasks=subtasks,
                graph=SubtaskGraph.chain(names),
                critical_time=critical,
                utility=LinearUtility(critical, k=0.0),
                variant=variant,
                trigger=PeriodicEvent(1.0 / rate),
            )
        )
    return TaskSet(tasks, cpus)


# -- canonical workload registry --------------------------------------------

def _scaled_default() -> TaskSet:
    """The ``scaled`` CLI workload: the base workload cloned ×2."""
    return scaled_workload(2)


#: Canonical name → zero-argument factory for every built-in workload.
#: Shared by ``repro export-workload`` and the experiment harness so the
#: two never drift apart.
WORKLOAD_FACTORIES: Dict[str, Callable[[], TaskSet]] = {
    "base": base_workload,
    "scaled": _scaled_default,
    "unschedulable": unschedulable_workload,
    "prototype": prototype_workload,
}


def workload_names() -> Tuple[str, ...]:
    """All registered workload names, sorted."""
    return tuple(sorted(WORKLOAD_FACTORIES))


def make_workload(name: str) -> TaskSet:
    """Build a registered workload by name."""
    try:
        factory = WORKLOAD_FACTORIES[name]
    except KeyError:
        known = ", ".join(workload_names())
        raise ModelError(
            f"unknown workload {name!r} (known: {known})"
        ) from None
    return factory()
