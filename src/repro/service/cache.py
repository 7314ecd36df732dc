"""LRU cache of compiled task-set structures, keyed by fingerprint.

Under churn the always-on service rebuilds its optimizer on every task
arrival/departure.  Compiling a :class:`TaskSetStructure` is the dominant
rebuild cost, and churn is often *oscillatory*
(a task leaves and re-registers, an A/B flip alternates two
configurations), so the same problem shapes recur.  The cache keys
compiled structures by the canonical task-set fingerprint
(:func:`~repro.model.fingerprint.taskset_fingerprint`) plus the latency
clamp factor: fingerprint equality guarantees identical orderings,
incidence *and* model coefficients, so a cached structure is
interchangeable with a fresh compile after rebinding it to the new
(equivalent) task-set object and refreshing its model arrays.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from repro.core.structure import TaskSetStructure, compile_structure
from repro.errors import ServiceError
from repro.model.fingerprint import taskset_fingerprint
from repro.model.task import TaskSet

__all__ = ["StructureCache"]


class StructureCache:
    """Bounded LRU of :class:`TaskSetStructure` by (fingerprint, clamp)."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ServiceError(
                f"cache capacity must be >= 1, got {capacity!r}"
            )
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Tuple[str, float], TaskSetStructure]" = \
            OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, taskset: TaskSet, max_latency_factor: float = 1.0,
            fingerprint: Optional[str] = None) -> TaskSetStructure:
        """A compiled structure for ``taskset``, cached when possible.

        ``fingerprint`` may be passed in when the caller already computed
        it (the service computes one per churn event anyway).  On a hit
        the cached structure is rebound to ``taskset`` and its model
        arrays refreshed — fingerprint equality makes the static shape
        interchangeable, and the refresh is cheap relative to a compile.
        """
        if fingerprint is None:
            fingerprint = taskset_fingerprint(taskset)
        key = (fingerprint, float(max_latency_factor))
        structure = self._entries.get(key)
        if structure is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            structure.taskset = taskset
            structure.refresh_model()
            return structure
        self.misses += 1
        structure = compile_structure(
            taskset, max_latency_factor=max_latency_factor
        )
        self._entries[key] = structure
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return structure

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
