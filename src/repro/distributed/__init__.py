"""Distributed (message-passing) execution of LLA (Section 4.1).

Task controllers and resource agents exchange prices and latencies over a
simulated control network with configurable delay, jitter, loss and
partitions, plus a chaos subsystem (:mod:`repro.distributed.faults`)
scripting crashes/restarts, loss bursts, duplication/reordering and
capacity shocks, with checkpoint-based warm recovery and staleness-bound
graceful degradation.
"""

from repro.distributed.activation import (
    ActivationSchedule,
    EveryRound,
    PeriodicActivation,
    RandomActivation,
)
from repro.distributed.checkpoint import Checkpoint, CheckpointStore
from repro.distributed.faults import (
    CapacityShock,
    CheckpointCorruption,
    CheckpointOutage,
    ChurnStorm,
    CrashWindow,
    DuplicationWindow,
    FaultInjector,
    FaultPlan,
    LoopStall,
    LossBurst,
    PartitionWindow,
    ReorderWindow,
)
from repro.distributed.agents import (
    LocalGamma,
    ResourceAgent,
    TaskControllerAgent,
)
from repro.distributed.messages import Envelope, LatencyMessage, PriceMessage
from repro.distributed.network import MessageBus
from repro.distributed.runtime import DistributedConfig, DistributedLLARuntime

__all__ = [
    "DistributedLLARuntime",
    "DistributedConfig",
    "MessageBus",
    "ResourceAgent",
    "TaskControllerAgent",
    "LocalGamma",
    "Envelope",
    "PriceMessage",
    "LatencyMessage",
    "ActivationSchedule",
    "EveryRound",
    "PeriodicActivation",
    "RandomActivation",
    "FaultPlan",
    "CheckpointCorruption",
    "CheckpointOutage",
    "ChurnStorm",
    "LoopStall",
    "FaultInjector",
    "CrashWindow",
    "PartitionWindow",
    "LossBurst",
    "DuplicationWindow",
    "ReorderWindow",
    "CapacityShock",
    "Checkpoint",
    "CheckpointStore",
]
