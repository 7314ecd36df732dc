"""Always-on allocation service: a live LLA solve behind a churn/query API.

See :mod:`repro.service.service` for the service itself,
:mod:`repro.service.cache` for the fingerprint-keyed structure cache it
rebuilds through on churn, and :mod:`repro.service.supervisor` for the
hardened (watchdog / backpressure / brownout) wrapper with its
supporting :mod:`~repro.service.retry`, :mod:`~repro.service.churnqueue`,
:mod:`~repro.service.brownout`, and :mod:`~repro.service.faults`
modules.
"""

from repro.service.brownout import BrownoutConfig, BrownoutController
from repro.service.cache import StructureCache
from repro.service.churnqueue import ChurnEvent, ChurnQueue
from repro.service.faults import ServiceFaultInjector
from repro.service.retry import CircuitBreaker, Retrier, RetryPolicy
from repro.service.service import (
    Allocation,
    AllocationService,
    AllocationView,
    ServiceConfig,
    ServiceStats,
)
from repro.service.supervisor import (
    HardeningConfig,
    SupervisedService,
    SupervisedStats,
    Watchdog,
)

__all__ = [
    "Allocation",
    "AllocationService",
    "AllocationView",
    "BrownoutConfig",
    "BrownoutController",
    "ChurnEvent",
    "ChurnQueue",
    "CircuitBreaker",
    "HardeningConfig",
    "Retrier",
    "RetryPolicy",
    "ServiceConfig",
    "ServiceFaultInjector",
    "ServiceStats",
    "StructureCache",
    "SupervisedService",
    "SupervisedStats",
    "Watchdog",
]
