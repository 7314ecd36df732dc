"""Shared fixtures: canonical task sets used across the test suite."""

import os
from pathlib import Path

import pytest

from repro.model.events import PeriodicEvent
from repro.model.graph import SubtaskGraph
from repro.model.resources import Resource
from repro.model.task import Subtask, Task, TaskSet
from repro.model.utility import LinearUtility
from repro.workloads.paper import base_workload, prototype_workload

SRC = Path(__file__).resolve().parent.parent / "src"


def python_env(**extra: str) -> dict:
    """The environment of a fresh interpreter that imports ``repro`` from
    this checkout's ``src/``, whatever its working directory."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


@pytest.fixture
def base_ts() -> TaskSet:
    """The paper's three-task Table 1 workload."""
    return base_workload()


@pytest.fixture
def proto_ts() -> TaskSet:
    """The paper's Section 6 prototype workload."""
    return prototype_workload()


def make_chain_taskset(
    n_subtasks: int = 3,
    exec_time: float = 2.0,
    critical_time: float = 30.0,
    availability: float = 1.0,
    lag: float = 1.0,
    period: float = 50.0,
    variant: str = "path-weighted",
    k: float = 2.0,
) -> TaskSet:
    """A single chain task on dedicated resources — the smallest useful
    workload for unit tests."""
    names = [f"s{i}" for i in range(n_subtasks)]
    subtasks = [
        Subtask(name=names[i], resource=f"r{i}", exec_time=exec_time)
        for i in range(n_subtasks)
    ]
    resources = [
        Resource(name=f"r{i}", availability=availability, lag=lag)
        for i in range(n_subtasks)
    ]
    task = Task(
        name="chain",
        subtasks=subtasks,
        graph=SubtaskGraph.chain(names),
        critical_time=critical_time,
        utility=LinearUtility(critical_time, k=k),
        variant=variant,
        trigger=PeriodicEvent(period),
    )
    return TaskSet([task], resources)


@pytest.fixture
def chain_ts() -> TaskSet:
    return make_chain_taskset()


def make_diamond_taskset(critical_time: float = 40.0) -> TaskSet:
    """One diamond-shaped task (root → two branches → join)."""
    names = ["root", "left", "right", "join"]
    edges = [("root", "left"), ("root", "right"),
             ("left", "join"), ("right", "join")]
    subtasks = [
        Subtask(name=n, resource=f"r_{n}", exec_time=2.0 + i)
        for i, n in enumerate(names)
    ]
    resources = [Resource(name=f"r_{n}", availability=1.0, lag=1.0)
                 for n in names]
    task = Task(
        name="diamond",
        subtasks=subtasks,
        graph=SubtaskGraph(names, edges),
        critical_time=critical_time,
        utility=LinearUtility(critical_time),
        trigger=PeriodicEvent(100.0),
    )
    return TaskSet([task], resources)


@pytest.fixture
def diamond_ts() -> TaskSet:
    return make_diamond_taskset()


#: Resources of :func:`mixed_task`, with distinct lags.
MIXED_RESOURCES = (
    Resource(name="r0", availability=1.0, lag=1.0),
    Resource(name="r1", availability=1.0, lag=0.5),
    Resource(name="r2", availability=0.8, lag=2.0),
    Resource(name="r3", availability=1.0, lag=0.0),
)


def mixed_task(i: int, critical_time: float = 60.0) -> Task:
    """Task ``m{i}``: three subtasks on ``MIXED_RESOURCES``, varied in
    every dimension the compiled structure records — a chain or a fork,
    sum or path weights, hyperbolic, power-law and corrected shares,
    linear, inelastic, log and quadratic utilities, and periodic, Poisson
    or no triggers."""
    from repro.model.events import PoissonEvent
    from repro.model.share import (
        CorrectedShare,
        HyperbolicShare,
        PowerLawShare,
    )
    from repro.model.utility import (
        InelasticUtility,
        LogUtility,
        QuadraticUtility,
    )

    names = [f"m{i}.s{j}" for j in range(3)]
    resources = [f"r{(i + j) % 4}" for j in range(3)]
    exec_times = [1.0 + 0.25 * ((i + j) % 5) for j in range(3)]
    lags = {r.name: r.lag for r in MIXED_RESOURCES}
    shares = [None, None, None]
    if i % 3 == 1:
        shares[1] = PowerLawShare(cost=exec_times[1] + lags[resources[1]],
                                  alpha=1.5)
    elif i % 3 == 2:
        shares[0] = CorrectedShare(
            HyperbolicShare(exec_times[0], lags[resources[0]]), error=-0.25)
    subtasks = [
        Subtask(name=names[j], resource=resources[j],
                exec_time=exec_times[j], share_function=shares[j])
        for j in range(3)
    ]
    if i % 2:
        graph = SubtaskGraph(names, [(names[0], names[1]),
                                     (names[0], names[2])])
    else:
        graph = SubtaskGraph.chain(names)
    utility = (
        LinearUtility(critical_time, k=2.0),
        InelasticUtility(critical_time, u_max=5.0),
        LogUtility(critical_time, scale=3.0),
        QuadraticUtility(critical_time, u_max=10.0, a=0.002),
    )[i % 4]
    trigger = (PeriodicEvent(50.0), None, PoissonEvent(0.02))[i % 3]
    return Task(
        name=f"m{i}", subtasks=subtasks, graph=graph,
        critical_time=critical_time, utility=utility,
        variant="sum" if i % 5 == 4 else "path-weighted", trigger=trigger,
    )
