"""Canonical task-set fingerprints.

Several subsystems need to decide cheaply whether two :class:`TaskSet`
instances describe *the same optimization problem*:

* the distributed checkpoint store must refuse to warm-restore dual state
  saved for a different problem (prices for a vanished task are garbage);
* the always-on allocation service caches compiled
  :class:`~repro.core.structure.TaskSetStructure` objects across churn and
  may only reuse one when the workload shape and coefficients match
  exactly.

The fingerprint is a SHA-256 digest over the canonical JSON serialization
of the task set (:func:`~repro.model.serialize.taskset_to_dict` with
sorted keys) *plus* the ``repr`` of every subtask's share function.  The
reprs matter: custom share functions are deliberately not serialized, and
online error correction retunes :class:`CorrectedShare` parameters in
place — both must change the fingerprint, because both change the problem
the dual iterates were converging on.

Two task sets with equal fingerprints therefore have identical resources
(names, kinds, availabilities, lags), identical task structure (subtask
graphs, WCETs, percentiles, critical times, utilities, triggers, variants)
and identical share-function parameters, in the same declaration order —
exactly the conditions under which dual state and compiled structure are
interchangeable.

The always-on service stamps its *membership* instead, with
:func:`membership_fingerprint`: one :func:`task_digest` per admitted task
body, computed once when the task arrives, combined by addition modulo
2**256 so that arrival order does not matter and a churn event updates
the combination by one addition or subtraction; plus the bytes of every
resource's state and the latency clamp factor.  Equal memberships give
equal fingerprints, and equal fingerprints mean equal inputs to
:func:`~repro.core.structure.compile_structure`, hence equal compiled
arrays.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

from repro.model.task import Task, TaskSet

__all__ = ["taskset_fingerprint", "structure_fingerprint", "task_digest",
           "membership_fingerprint", "DIGEST_MODULUS"]

#: Task digests are SHA-256 values; a membership adds them modulo this.
DIGEST_MODULUS = 1 << 256


def taskset_fingerprint(taskset: TaskSet) -> str:
    """Hex SHA-256 fingerprint of ``taskset``'s optimization problem."""
    payload = {
        "taskset": _canonical_dict(taskset),
        "share_functions": [
            repr(taskset.share_function(name))
            for name in taskset.subtask_names
        ],
    }
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def task_digest(task: Task) -> int:
    """SHA-256 of one task body as an integer: every serialized field
    (:func:`~repro.model.serialize.task_to_dict`) plus the ``repr`` of
    each subtask's custom share function.  The default share function is
    fixed by the subtask and its resource's lag, which the membership
    fingerprint covers with the resources."""
    from repro.model.serialize import task_to_dict

    payload = {
        "task": task_to_dict(task),
        "share_functions": [
            None if sub.share_function is None else repr(sub.share_function)
            for sub in task.subtasks
        ],
    }
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return int.from_bytes(hashlib.sha256(encoded.encode("utf-8")).digest(),
                          "big")


def membership_fingerprint(digest_sum: int, resource_state: bytes,
                           max_latency_factor: float) -> str:
    """Hex SHA-256 fingerprint of a service membership.

    ``digest_sum`` is the sum of the members' :func:`task_digest` values
    modulo :data:`DIGEST_MODULUS`; ``resource_state`` encodes every
    resource's name, kind, lag and availability.
    """
    h = hashlib.sha256()
    h.update(f"{float(max_latency_factor)!r}|{digest_sum:064x}|"
             .encode("utf-8"))
    h.update(resource_state)
    return h.hexdigest()


def structure_fingerprint(payload: Mapping[str, Any]) -> str:
    """Hex SHA-256 fingerprint of a compiled-structure payload.

    ``payload`` is the JSON-safe dict produced by
    :func:`repro.core.structure.structure_to_dict` (taking the dict rather
    than the structure keeps this module free of a model→core import
    cycle).  Any embedded ``"fingerprint"`` key is excluded so the digest
    can both stamp a payload and verify one.  Because compilation is
    canonical (name-sorted tasks and resources), equal task sets yield
    equal structure fingerprints regardless of declaration order — unlike
    :func:`taskset_fingerprint`, which is declaration-order-sensitive by
    design (dual state is exchanged in declaration order).
    """
    body = {k: v for k, v in payload.items() if k != "fingerprint"}
    encoded = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def _canonical_dict(taskset: TaskSet) -> object:
    # Imported lazily: serialize imports the whole model surface and this
    # module is imported from low-level consumers (checkpoint store).
    from repro.model.serialize import taskset_to_dict

    return taskset_to_dict(taskset)
