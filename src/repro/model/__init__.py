"""Programming model for distributed real-time applications (Section 2).

Public surface:

* :class:`~repro.model.task.Subtask`, :class:`~repro.model.task.Task`,
  :class:`~repro.model.task.TaskSet` — workload structure;
* :class:`~repro.model.graph.SubtaskGraph` — DAG precedence with paths and
  critical-path queries;
* utility functions (:mod:`repro.model.utility`);
* share functions (:mod:`repro.model.share`);
* resources (:mod:`repro.model.resources`);
* triggering events (:mod:`repro.model.events`);
* percentile composition (:mod:`repro.model.percentile`);
* the one summation order for utilities (:mod:`repro.model.summation`).
"""

from repro.model.events import (
    BurstyEvent,
    PeriodicEvent,
    PoissonEvent,
    TriggeringEvent,
)
from repro.model.fingerprint import structure_fingerprint, taskset_fingerprint
from repro.model.graph import SubtaskGraph
from repro.model.percentile import (
    compose_percentiles,
    path_percentile,
    per_subtask_percentiles,
    subtask_percentile,
)
from repro.model.resources import Resource, ResourceKind
from repro.model.share import (
    CorrectedShare,
    HyperbolicShare,
    PowerLawShare,
    ShareFunction,
)
from repro.model.serialize import (
    taskset_from_dict,
    taskset_from_json,
    taskset_to_dict,
    taskset_to_json,
)
from repro.model.summation import sequential_sum
from repro.model.task import Subtask, Task, TaskSet
from repro.model.topology import ComputeStage, NetworkTopology
from repro.model.utility import (
    ExponentialUtility,
    InelasticUtility,
    LinearUtility,
    LogUtility,
    QuadraticUtility,
    UtilityFunction,
    check_concavity,
)

__all__ = [
    "Subtask",
    "Task",
    "TaskSet",
    "NetworkTopology",
    "ComputeStage",
    "taskset_to_dict",
    "taskset_from_dict",
    "taskset_to_json",
    "taskset_from_json",
    "taskset_fingerprint",
    "structure_fingerprint",
    "SubtaskGraph",
    "Resource",
    "ResourceKind",
    "ShareFunction",
    "HyperbolicShare",
    "PowerLawShare",
    "CorrectedShare",
    "UtilityFunction",
    "LinearUtility",
    "LogUtility",
    "QuadraticUtility",
    "ExponentialUtility",
    "InelasticUtility",
    "check_concavity",
    "sequential_sum",
    "TriggeringEvent",
    "PeriodicEvent",
    "PoissonEvent",
    "BurstyEvent",
    "compose_percentiles",
    "path_percentile",
    "subtask_percentile",
    "per_subtask_percentiles",
]
