"""Random workload generation for property tests and scaling studies.

Generates structurally valid, optionally schedulability-provisioned task
sets: random DAG subtask graphs (chain / fan-out tree / diamond / layered
random), random resource mappings respecting the paper's
one-resource-per-subtask-per-task rule, and critical times provisioned so
that an even slicing of the deadline would load every resource to at most a
target fraction — which guarantees a feasible point exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError
from repro.model.events import PeriodicEvent
from repro.model.graph import SubtaskGraph
from repro.model.resources import Resource, ResourceKind
from repro.model.task import Subtask, Task, TaskSet
from repro.model.utility import LinearUtility

__all__ = ["GeneratorConfig", "random_workload", "random_graph"]

_SHAPES = ("chain", "tree", "diamond", "layered")


@dataclass
class GeneratorConfig:
    """Knobs of the random workload generator."""

    n_tasks: int = 4
    n_resources: int = 6
    min_subtasks: int = 3
    max_subtasks: int = 6
    exec_time_range: Tuple[float, float] = (1.0, 8.0)
    lag: float = 1.0
    availability: float = 1.0
    period: float = 100.0
    #: Target per-resource load under even deadline slicing; < 1 guarantees
    #: a feasible assignment exists.
    provisioning: float = 0.8
    shapes: Sequence[str] = _SHAPES
    variant: str = "path-weighted"
    utility_k: float = 2.0
    #: When set, the resource pool is split into this many disjoint groups
    #: and each task draws all its resources from one group (round-robin
    #: by task index).  The task↔resource incidence graph then has exactly
    #: ``partitions`` connected components — a separable problem, since
    #: no two components share a resource.
    partitions: Optional[int] = None

    def __post_init__(self) -> None:
        """Validate at construction (REP008); :meth:`validate` stays public
        for callers that mutate a config after building it."""
        self.validate()

    def validate(self) -> None:
        if self.n_tasks < 1:
            raise ModelError("n_tasks must be >= 1")
        if self.n_resources < 1:
            raise ModelError("n_resources must be >= 1")
        if not 1 <= self.min_subtasks <= self.max_subtasks:
            raise ModelError("need 1 <= min_subtasks <= max_subtasks")
        if self.max_subtasks > self.n_resources:
            raise ModelError(
                "max_subtasks cannot exceed n_resources (each subtask of a "
                "task must use a distinct resource)"
            )
        lo, hi = self.exec_time_range
        if not 0.0 < lo <= hi:
            raise ModelError(f"bad exec_time_range {self.exec_time_range!r}")
        if not 0.0 < self.provisioning:
            raise ModelError("provisioning must be positive")
        unknown = set(self.shapes) - set(_SHAPES)
        if unknown:
            raise ModelError(f"unknown graph shapes {sorted(unknown)!r}")
        if self.partitions is not None:
            if self.partitions < 1:
                raise ModelError("partitions must be >= 1")
            if self.n_resources // self.partitions < self.max_subtasks:
                raise ModelError(
                    "each partition needs at least max_subtasks resources "
                    f"({self.n_resources} resources / {self.partitions} "
                    f"partitions < {self.max_subtasks})"
                )


def random_graph(names: Sequence[str], shape: str,
                 rng: np.random.Generator) -> SubtaskGraph:
    """A random DAG of the requested shape over ``names`` (root = first)."""
    n = len(names)
    if n == 1:
        return SubtaskGraph.single(names[0])
    edges: List[Tuple[str, str]] = []
    if shape == "chain":
        edges = list(zip(names, names[1:]))
    elif shape == "tree":
        # Every non-root node attaches to a uniformly random earlier node.
        for i in range(1, n):
            parent = int(rng.integers(0, i))
            edges.append((names[parent], names[i]))
    elif shape == "diamond":
        # Root fans out to a middle layer which joins at the last node.
        middle = names[1:-1] or [names[1]]
        for m in middle:
            edges.append((names[0], m))
            if m != names[-1]:
                edges.append((m, names[-1]))
    elif shape == "layered":
        # 2–3 layers; each node gets >= 1 parent from the previous layer.
        n_layers = min(n - 1, int(rng.integers(2, 4)))
        cut_points = sorted(
            rng.choice(range(1, n), size=n_layers - 1, replace=False)
        ) if n_layers > 1 else []
        layers: List[List[str]] = []
        prev = 1
        layers.append([names[0]])
        for cut in list(cut_points) + [n]:
            layer = list(names[prev:cut + 1] if cut != n else names[prev:])
            prev = cut + 1 if cut != n else n
            if layer:
                layers.append(layer)
        for upper, lower in zip(layers, layers[1:]):
            for node in lower:
                parent = upper[int(rng.integers(0, len(upper)))]
                edges.append((parent, node))
    else:
        raise ModelError(f"unknown graph shape {shape!r}")
    return SubtaskGraph(names, edges)


def random_workload(config: Optional[GeneratorConfig] = None,
                    seed: int = 0) -> TaskSet:
    """Generate a random, provisioned task set.

    Critical times are set per task so that, if each resource's subtasks
    all took their even-slicing latency, the resource load would be at most
    ``config.provisioning`` — so a feasible latency assignment provably
    exists whenever ``provisioning <= availability``.
    """
    config = config or GeneratorConfig()
    config.validate()
    rng = np.random.default_rng(seed)

    # Names are zero-padded to the pool width so lexicographic order equals
    # numeric order: compile_structure's canonical (name-sorted) ordering
    # then matches the declaration order, keeping the kernel's and the
    # per-element loops' iteration orders — and therefore their float
    # trajectories — identical.  Small configs (< 11 tasks/resources)
    # keep their old names.
    t_width = len(str(config.n_tasks - 1))
    r_width = len(str(config.n_resources - 1))
    s_width = len(str(config.max_subtasks - 1))
    resources = [
        Resource(
            name=f"r{i:0{r_width}d}",
            kind=ResourceKind.CPU if i % 2 == 0 else ResourceKind.LINK,
            availability=config.availability,
            lag=config.lag,
        )
        for i in range(config.n_resources)
    ]

    # First pass: random structures.
    drafts = []
    for t in range(config.n_tasks):
        n_subtasks = int(
            rng.integers(config.min_subtasks, config.max_subtasks + 1)
        )
        names = [f"G{t:0{t_width}d}_{j:0{s_width}d}" for j in range(n_subtasks)]
        shape = str(rng.choice(list(config.shapes)))
        graph = random_graph(names, shape, rng)
        if config.partitions is None:
            pool = np.arange(config.n_resources)
        else:
            # Confine the task to its round-robin partition's resources.
            group = config.n_resources // config.partitions
            start = (t % config.partitions) * group
            pool = np.arange(start, start + group)
        resource_ids = rng.choice(pool, size=n_subtasks, replace=False)
        lo, hi = config.exec_time_range
        exec_times = rng.uniform(lo, hi, size=n_subtasks)
        subtasks = [
            Subtask(
                name=names[j],
                resource=f"r{int(resource_ids[j]):0{r_width}d}",
                exec_time=float(exec_times[j]),
            )
            for j in range(n_subtasks)
        ]
        drafts.append((f"G{t:0{t_width}d}", subtasks, graph))

    # Second pass: critical times from the provisioning target.  Under even
    # slicing, subtask s of task i gets C_i / depth_s; its share is
    # cost_s × depth_s / C_i.  Choose C_i so every resource's total is at
    # most `provisioning`.
    # Resource pressure if every task had C_i = 1: share = cost×depth/C.
    pressure: Dict[str, float] = {r.name: 0.0 for r in resources}
    for _tname, subtasks, graph in drafts:
        hops: Dict[str, int] = {}
        for path in graph.paths:
            for s in path:
                hops[s] = max(hops.get(s, 0), len(path))
        for sub in subtasks:
            cost = sub.exec_time + config.lag
            pressure[sub.resource] += cost * hops[sub.name]

    max_pressure = max(pressure.values()) if pressure else 1.0
    # One shared critical-time scale keeps tasks comparable: C = scale.
    scale = max_pressure / config.provisioning

    tasks = []
    for tname, subtasks, graph in drafts:
        critical = float(scale)
        tasks.append(
            Task(
                name=tname,
                subtasks=subtasks,
                graph=graph,
                critical_time=critical,
                utility=LinearUtility(critical, k=config.utility_k),
                variant=config.variant,
                trigger=PeriodicEvent(config.period),
            )
        )
    return TaskSet(tasks, resources)
