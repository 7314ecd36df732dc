"""LRU cache of compiled task-set structures, keyed by fingerprint.

Under churn the always-on service rebuilds its optimizer on every task
arrival/departure, and churn is often *oscillatory* (a task leaves and
re-registers, an A/B flip alternates two configurations), so the same
problems recur.  The cache keys compiled structures by a fingerprint plus
the latency clamp factor.  Fingerprint equality guarantees identical
orderings, incidence *and* model coefficients, so a cached structure is
interchangeable with a fresh compile, and a lookup hands the entry back
as it is.  A structure holds no reference to a task set, so no entry
keeps any epoch's task set alive, the one it was compiled from included.

The service keys by its membership fingerprint
(:func:`~repro.model.fingerprint.membership_fingerprint`) and, on a miss,
builds the structure by splicing its predecessor; other callers key by
:func:`~repro.model.fingerprint.taskset_fingerprint` and compile.  Cached
structures are shared, so nobody may change their arrays in place
(:func:`~repro.core.structure.splice_structure` is copy-on-write, and the
service's optimizers, built on a structure alone, cannot
``refresh_model``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Optional, Tuple

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

    def get(self, taskset: Optional[TaskSet] = None,
            max_latency_factor: float = 1.0,
            fingerprint: Optional[str] = None,
            build: Optional[Callable[[], TaskSetStructure]] = None,
            ) -> TaskSetStructure:
        """A compiled structure for the problem, cached when possible.

        The key is ``fingerprint``, by default
        :func:`~repro.model.fingerprint.taskset_fingerprint` of
        ``taskset``.  On a miss the structure comes from ``build()`` when
        given, else from :func:`compile_structure` of ``taskset``.
        """
        if fingerprint is None:
            if taskset is None:
                raise ServiceError("cache lookup needs a task set or a "
                                   "fingerprint")
            fingerprint = taskset_fingerprint(taskset)
        key = (fingerprint, float(max_latency_factor))
        structure = self._entries.get(key)
        if structure is not None:
            self.hits += 1
            self._entries.move_to_end(key)
        else:
            self.misses += 1
            if build is not None:
                structure = build()
            elif taskset is not None:
                structure = compile_structure(
                    taskset, max_latency_factor=max_latency_factor
                )
            else:
                raise ServiceError("cache miss needs a task set or a builder")
            self._entries[key] = structure
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return structure

    def peek(self, fingerprint: str,
             max_latency_factor: float = 1.0) -> Optional[TaskSetStructure]:
        """The structure cached under the key, if any, without counting a
        lookup or refreshing its recency."""
        return self._entries.get((fingerprint, float(max_latency_factor)))

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
