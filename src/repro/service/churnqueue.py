"""Bounded churn queue with per-task coalescing and shed-and-reject.

The naive service applies every churn event immediately: N events, N
recompiles.  Under a churn storm (an autoscaler flapping, a deploy
re-registering a fleet) that is N× the dominant rebuild cost for zero
information — only the *net* membership matters.  :class:`ChurnQueue`
absorbs events between control-loop ticks and coalesces them per subject:

* ``register`` then ``deregister`` of the same task cancels to nothing;
* ``deregister`` then ``register`` collapses to a single *replace*;
* repeated ``update``/``set_availability`` keep only the latest values,
  and an ``update`` folds into a pending ``register``/``replace``.

The queue is **bounded**: once ``capacity`` distinct subjects are
pending, events for *new* subjects are shed (counted, reported to the
caller) rather than growing without limit — backpressure, not OOM.
Events for subjects already pending always coalesce for free.

:meth:`drain` empties the queue in deterministic (key-sorted) order so
the supervised loop can apply the whole batch through **one** recompile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.errors import ServiceError
from repro.model.task import Task
from repro.model.utility import UtilityFunction

__all__ = ["ChurnEvent", "ChurnQueue"]

#: Event kinds accepted by :meth:`ChurnQueue.offer`.
_INPUT_KINDS = ("register", "deregister", "update", "availability")
#: Additional kind that only appears in drained batches: a deregister
#: followed by a register of the same name, collapsed into one swap.
_REPLACE = "replace"


@dataclass(frozen=True)
class ChurnEvent:
    """One workload mutation, as queued and as drained.

    ``key`` is the task name (or the resource name for ``availability``).
    ``critical_time``/``utility`` ride along on ``update`` events and on
    ``register``/``replace`` slots an update folded into.

    Values are checked here, when the producer creates the event: an
    availability must be finite and in [0, 1], a critical time finite and
    positive.  An invalid value raises :class:`ServiceError` to the
    producer instead of being queued to fail a later tick's rebuild.
    """

    kind: str
    key: str
    task: Optional[Task] = None
    critical_time: Optional[float] = None
    utility: Optional[UtilityFunction] = None
    availability: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in _INPUT_KINDS and self.kind != _REPLACE:
            raise ServiceError(
                f"unknown churn event kind {self.kind!r}; "
                f"expected one of {_INPUT_KINDS + (_REPLACE,)}"
            )
        if not self.key:
            raise ServiceError("churn event needs a non-empty key")
        if self.kind in ("register", _REPLACE):
            if self.task is None:
                raise ServiceError(f"{self.kind} event needs a task")
            if self.task.name != self.key:
                raise ServiceError(
                    f"{self.kind} event key {self.key!r} does not match "
                    f"task name {self.task.name!r}"
                )
        elif self.kind == "update":
            if self.critical_time is None and self.utility is None:
                raise ServiceError(
                    "update event needs a critical_time and/or a utility"
                )
        elif self.kind == "availability":
            if self.availability is None:
                raise ServiceError("availability event needs a value")
        if self.critical_time is not None and not (
                math.isfinite(self.critical_time)
                and self.critical_time > 0.0):
            raise ServiceError(
                f"critical_time must be finite and > 0, "
                f"got {self.critical_time!r}"
            )
        if self.availability is not None and not (
                math.isfinite(self.availability)
                and 0.0 <= self.availability <= 1.0):
            raise ServiceError(
                f"availability must be finite and in [0, 1], "
                f"got {self.availability!r}"
            )


def _merge_updates(slot: ChurnEvent, event: ChurnEvent) -> ChurnEvent:
    """Fold ``event``'s update fields onto ``slot`` (latest wins)."""
    return replace(
        slot,
        critical_time=(event.critical_time if event.critical_time is not None
                       else slot.critical_time),
        utility=event.utility if event.utility is not None else slot.utility,
    )


class ChurnQueue:
    """Bounded, coalescing buffer between churn producers and the loop."""

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ServiceError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        # Insertion order is irrelevant: drain() sorts by key, so the
        # applied batch depends only on the coalesced net effect.
        self._slots: Dict[Tuple[str, str], ChurnEvent] = {}
        self.offered = 0
        self.coalesced = 0
        self.shed = 0
        self.max_depth = 0
        self.drained_batches = 0

    # -- state -------------------------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self._slots)

    def __len__(self) -> int:
        return len(self._slots)

    @staticmethod
    def _slot_key(event: ChurnEvent) -> Tuple[str, str]:
        domain = "resource" if event.kind == "availability" else "task"
        return (domain, event.key)

    # -- producing ---------------------------------------------------------------

    def offer(self, event: ChurnEvent) -> bool:
        """Queue ``event``; ``False`` when it was shed at capacity.

        Events whose subject is already pending always coalesce into the
        existing slot; only a *new* subject consumes capacity.
        """
        self.offered += 1
        key = self._slot_key(event)
        slot = self._slots.get(key)
        if slot is None:
            if len(self._slots) >= self.capacity:
                self.shed += 1
                return False
            self._slots[key] = event
            self.max_depth = max(self.max_depth, len(self._slots))
            return True
        self.coalesced += 1
        merged = self._coalesce(slot, event)
        if merged is None:
            del self._slots[key]
        else:
            self._slots[key] = merged
        return True

    @staticmethod
    def _coalesce(slot: ChurnEvent,
                  event: ChurnEvent) -> Optional[ChurnEvent]:
        """The net effect of ``slot`` then ``event``; ``None`` cancels."""
        if event.kind == "availability":
            return event
        if event.kind == "deregister":
            # A pending arrival that leaves again is a no-op; a pending
            # replace/update of a live task reduces to its departure.
            return None if slot.kind == "register" else event
        if event.kind == "register":
            if slot.kind == "deregister":
                return ChurnEvent(kind=_REPLACE, key=event.key,
                                  task=event.task)
            # register/replace/update already pending: the subject is
            # live (or about to be), so a fresh body means a swap.
            kind = "register" if slot.kind == "register" else _REPLACE
            return ChurnEvent(kind=kind, key=event.key, task=event.task)
        # event.kind == "update"
        if slot.kind == "deregister":
            return slot  # updating a departing task is dead work
        return _merge_updates(slot, event)

    # -- consuming ---------------------------------------------------------------

    def drain(self) -> List[ChurnEvent]:
        """Remove and return every pending event, key-sorted, ready to be
        applied as one batch (one recompile)."""
        if not self._slots:
            return []
        batch = [self._slots[key] for key in sorted(self._slots)]
        self._slots.clear()
        self.drained_batches += 1
        return batch
