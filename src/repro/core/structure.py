"""Precompiled array structure of a :class:`~repro.model.task.TaskSet`.

The compiled :class:`TaskSetStructure` is the system's **canonical**
representation of a task set: the LLA kernel iterates over it,
the always-on service splices and caches it, and the distributed
runtime derives its per-round observations from it.  Compiling the
workload's *shape* — which subtask
runs on which resource, which paths contain which subtasks, per-subtask
model coefficients and latency bounds — once per run (and once more after
every model mutation) is what turns the per-iteration cost from thousands
of dict lookups and method dispatches into a handful of array operations.

Layout conventions, chosen so that every batched reduction visits its
operands in **exactly the same order as the per-element loops** of the
paper's equations (bitwise-equal partial sums, so the kernel reproduces
those loops' iterates, not merely close ones):

* tasks are numbered in **name-sorted order** and resources in
  **name-sorted order** — the canonical compile order, so equal task sets
  compile to byte-identical arrays regardless of declaration order (the
  in-repo workload factories all declare tasks name-sorted, which keeps
  the canonical order equal to the per-element loops' declaration order
  and preserves bitwise parity);
* subtasks are numbered globally in (canonical) task order, then per-task
  declaration order;
* paths are numbered task-by-task in :attr:`SubtaskGraph.paths` order, so
  each task's paths occupy one contiguous index range;
* every float segment sum goes through ``np.bincount(ids, weights=...)``,
  whose accumulation is a strictly sequential C loop in input order.
  ``np.add.reduceat`` is deliberately avoided for floats: its inner
  reduce uses unrolled/pairwise partial sums, which reassociate and drift
  from the per-element loops by an ulp — enough to flip a congestion
  branch.

A structure is an immutable value: its arrays are read-only and it keeps
no reference to its task set, so optimizers, iteration records, the
structure cache and the service's allocations share one without copies.
A model change (error correction, a capacity change) compiles a new
structure.  It is serializable (:func:`structure_to_dict` /
:func:`structure_from_dict`, mirroring :mod:`repro.model.serialize`) and
fingerprinted (:attr:`TaskSetStructure.fingerprint`, a SHA-256 over the
canonical payload), so permuted-but-equal task sets give the same
fingerprint and a corrupt payload fails it.  No production path uses
either: service snapshots are stamped with the membership fingerprint and
distributed checkpoints with the task-set fingerprint
(:mod:`repro.model.fingerprint`).

What compiles: power-law share functions (:class:`HyperbolicShare`,
:class:`PowerLawShare`, optionally wrapped in one :class:`CorrectedShare`)
with linear, inelastic, logarithmic or quadratic utilities.  Linear and
inelastic tasks take the paper's closed-form Eq. 7 solve; log and
quadratic tasks take the exact batched solve of
:func:`~repro.core.allocation.solve_concave`, which needs each task's
utility parameters (``ut_scale``/``ut_soft`` for log, ``ut_umax``/
``ut_curv`` for quadratic).  :func:`task_model` is the one per-task gate
of that family: compilation, the service's fragments and admission check,
and :class:`~repro.core.allocation.LatencyAllocator` all go through it.
Anything else (the convex :class:`~repro.model.utility.ExponentialUtility`,
custom share classes) is outside the paper's model of non-increasing
concave utilities and raises :class:`~repro.errors.OptimizationError`
naming it.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import ModelError, OptimizationError
from repro.core.state import PathKey
from repro.model.fingerprint import structure_fingerprint
from repro.model.resources import Resource
from repro.model.share import (
    CorrectedShare,
    HyperbolicShare,
    PowerLawShare,
    ShareFunction,
)
from repro.model.task import Subtask, Task, TaskSet, share_function_of
from repro.model.utility import (
    InelasticUtility,
    LinearUtility,
    LogUtility,
    QuadraticUtility,
)

__all__ = [
    "TaskSetStructure",
    "TaskModel",
    "TaskFragment",
    "ConcaveBlock",
    "compile_structure",
    "compile_fragment",
    "splice_structure",
    "empty_structure",
    "task_model",
    "latency_bounds",
    "structure_to_dict",
    "structure_from_dict",
]

#: Utility-kind codes in the per-task arrays.  Codes from
#: :data:`UTILITY_LOG` on are the concave nonlinear kinds solved by
#: :func:`~repro.core.allocation.solve_concave`.
UTILITY_LINEAR = 0
UTILITY_INELASTIC = 1
UTILITY_LOG = 2
UTILITY_QUADRATIC = 3

#: Serialization format version (bumped on incompatible layout changes).
#: Format 2 replaced the dense path×resource matrix with a pair list;
#: format 3 added the log/quadratic utility arrays.
_STRUCTURE_FORMAT_VERSION = 3

#: Per-task utility parameter arrays (besides ``ut_kind``), filled from
#: :func:`task_model`'s utility row; a parameter a kind does not use is 0.
UTILITY_ARRAYS = (
    "ut_kc", "ut_slope", "ut_umax", "ut_crit", "ut_scale", "ut_soft",
    "ut_curv",
)

#: Integer index arrays and their serialization order.
_INDEX_ARRAYS = (
    "sub_resource", "sub_task_ids", "path_sub_flat", "path_ids_flat",
    "sub_path_flat", "sub_ids_flat", "task_path_starts", "task_sub_starts",
    "pr_path", "pr_res",
)
#: Float64 model/shape arrays and their serialization order.
_FLOAT_ARRAYS = (
    "sub_exec", "weights", "pull_base", "alpha", "cost", "err", "inv_exp",
    "lo", "hi", "availability", "path_crit",
) + UTILITY_ARRAYS


@dataclass(frozen=True, eq=False)
class TaskSetStructure:
    """A :class:`TaskSet` compiled into flat numpy arrays.

    A value: the dataclass is frozen and the constructor makes every
    array it is given read-only, taking ownership of it.  The derived
    facts (:attr:`fingerprint`, :attr:`concave`, :attr:`kind_rows`,
    :attr:`any_error`, :attr:`all_hyperbolic`) are computed on first read
    and kept, since nothing they are derived from can change.
    """

    max_latency_factor: float

    # -- orderings ------------------------------------------------------------
    subtask_names: Tuple[str, ...]
    resource_names: Tuple[str, ...]
    task_names: Tuple[str, ...]
    path_keys: Tuple[PathKey, ...]

    # -- incidence ------------------------------------------------------------
    #: resource index of each subtask, shape (S,)
    sub_resource: np.ndarray
    #: task index of each subtask, shape (S,)
    sub_task_ids: np.ndarray
    #: subtask indices flattened path-by-path (path order), shape (Σ|p|,)
    path_sub_flat: np.ndarray
    #: owning path index of each ``path_sub_flat`` entry, shape (Σ|p|,)
    path_ids_flat: np.ndarray
    #: path indices flattened subtask-by-subtask (ascending), shape (Σ,)
    sub_path_flat: np.ndarray
    #: owning subtask index of each ``sub_path_flat`` entry, shape (Σ,)
    sub_ids_flat: np.ndarray
    #: start offset of each task's path segment, shape (T,)
    task_path_starts: np.ndarray
    #: start offset of each task's subtask segment, shape (T+1,) — the
    #: trailing sentinel makes ``starts[t]:starts[t+1]`` a valid slice.
    task_sub_starts: np.ndarray
    #: path of each distinct (path, resource) incidence pair, sorted by
    #: path then resource, shape (K,)
    pr_path: np.ndarray
    #: resource of each incidence pair, shape (K,)
    pr_res: np.ndarray
    #: WCET of each subtask, shape (S,)
    sub_exec: np.ndarray

    # -- per-subtask model ----------------------------------------------------
    #: aggregation weight w_s, shape (S,)
    weights: np.ndarray
    #: w_s · slope_i — the utility component of the Eq. 7 pull; 0 for
    #: inelastic tasks and for log/quadratic ones, whose pull depends on
    #: the aggregated latency, shape (S,)
    pull_base: np.ndarray
    #: power-law exponent α_s, shape (S,)
    alpha: np.ndarray
    #: power-law coefficient (c_s + l_r), shape (S,)
    cost: np.ndarray
    #: additive correction error e_s (0 when uncorrected), shape (S,)
    err: np.ndarray
    #: whether the base share is the hyperbolic special case, shape (S,) bool
    hyper_mask: np.ndarray
    #: 1 / (α_s + 1) — the stationarity-solve exponent, shape (S,)
    inv_exp: np.ndarray
    #: latency clamp bounds, shape (S,)
    lo: np.ndarray
    hi: np.ndarray

    # -- per-resource / per-path / per-task model -----------------------------
    #: availability B_r, shape (R,)
    availability: np.ndarray
    #: critical time of the path's owning task, shape (P,)
    path_crit: np.ndarray
    #: utility kind codes, shape (T,)
    ut_kind: np.ndarray
    #: precomputed k_i · C_i for linear utilities, shape (T,)
    ut_kc: np.ndarray
    #: linear slope, shape (T,)
    ut_slope: np.ndarray
    #: u_max: the inelastic step height, the quadratic's value at 0,
    #: shape (T,)
    ut_umax: np.ndarray
    #: the utility's own critical time: the inelastic step edge, the log
    #: utility's slack anchor, shape (T,)
    ut_crit: np.ndarray
    #: log utility scale, shape (T,)
    ut_scale: np.ndarray
    #: log utility softness, shape (T,)
    ut_soft: np.ndarray
    #: quadratic curvature a in u_max − a·A², shape (T,)
    ut_curv: np.ndarray

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @property
    def n_subtasks(self) -> int:
        return len(self.subtask_names)

    @property
    def n_resources(self) -> int:
        return len(self.resource_names)

    @property
    def n_paths(self) -> int:
        return len(self.path_keys)

    @cached_property
    def fingerprint(self) -> str:
        """SHA-256 fingerprint of the compiled arrays.

        Canonical compilation makes this order-insensitive: equal task
        sets — regardless of task/resource declaration order — compile to
        identical arrays and therefore identical fingerprints.  The hash
        covers the model arrays too, so a model change, which compiles a
        new structure, changes the fingerprint exactly as it changes the
        optimization problem.
        """
        return structure_fingerprint(_payload_dict(self))

    def task_index(self, task_name: str) -> int:
        """Canonical index of ``task_name`` (binary search, names sorted)."""
        names = self.task_names
        lo, hi = 0, len(names)
        while lo < hi:
            mid = (lo + hi) // 2
            if names[mid] < task_name:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(names) and names[lo] == task_name:
            return lo
        raise ModelError(f"unknown task {task_name!r} in compiled structure")

    def task_subtask_slice(self, task_idx: int) -> slice:
        """Global subtask index range of task ``task_idx``."""
        starts = self.task_sub_starts
        return slice(int(starts[task_idx]), int(starts[task_idx + 1]))

    def task_path_slice(self, task_idx: int) -> slice:
        """Global path index range of task ``task_idx``."""
        starts = self.task_path_starts
        end = int(starts[task_idx + 1]) if task_idx + 1 < len(starts) \
            else self.n_paths
        return slice(int(starts[task_idx]), end)

    @cached_property
    def concave(self) -> Optional["ConcaveBlock"]:
        """The log/quadratic tasks gathered for the exact Eq. 7 solve, or
        ``None`` when every task is linear or inelastic."""
        return ConcaveBlock.of_structure(self)

    @cached_property
    def kind_rows(self) -> Tuple[Tuple[int, np.ndarray], ...]:
        """``(kind code, task indices)`` of each utility kind present, in
        ascending kind order."""
        return tuple(
            (int(kind), np.flatnonzero(self.ut_kind == kind))
            for kind in np.unique(self.ut_kind)
        )

    @cached_property
    def any_error(self) -> bool:
        """Whether any subtask's share carries a :class:`CorrectedShare`
        offset (``err ≠ 0``)."""
        return bool((self.err != 0.0).any())

    @cached_property
    def all_hyperbolic(self) -> bool:
        """Whether every subtask's base share is hyperbolic (α = 1)."""
        return bool(self.hyper_mask.all())


def _unsupported(what: str) -> OptimizationError:
    return OptimizationError(
        f"LLA does not support {what}: its model is power-law shares "
        "with linear, inelastic, log or quadratic utilities"
    )


class ModelSource(Protocol):
    """What :func:`task_model` reads besides the task: the resources and
    each subtask's share function.  A :class:`TaskSet` is one; a task
    compiled on its own (:func:`compile_fragment`) reads a
    :class:`_TaskSource` instead."""

    @property
    def resources(self) -> Mapping[str, Resource]: ...

    def share_function(self, subtask_name: str) -> ShareFunction: ...


class _TaskSource:
    """The :class:`ModelSource` of one task outside any task set: its
    subtasks' share functions, resolved as :class:`TaskSet` resolves them,
    over the given resources."""

    def __init__(self, task: Task, resources: Mapping[str, Resource]) -> None:
        self.resources = resources
        self._shares = {
            sub.name: share_function_of(sub, resources[sub.resource].lag)
            for sub in task.subtasks
        }

    def share_function(self, subtask_name: str) -> ShareFunction:
        return self._shares[subtask_name]


def _share_params(taskset: ModelSource,
                  subtask_name: str) -> Tuple[float, float, float, bool]:
    """(alpha, cost, err, is_hyperbolic) of one subtask's share function."""
    fn = taskset.share_function(subtask_name)
    err = 0.0
    base = fn
    if isinstance(base, CorrectedShare):
        err = base.error
        base = base.base
        if isinstance(base, CorrectedShare):
            raise _unsupported(
                f"nested CorrectedShare on subtask {subtask_name!r}"
            )
    if isinstance(base, HyperbolicShare):
        return 1.0, base.cost, err, True
    if isinstance(base, PowerLawShare):
        return base.alpha, base.cost, err, False
    raise _unsupported(
        f"share function {type(base).__name__} on subtask {subtask_name!r}"
    )


def _utility_row(task: Task) -> Tuple[int, Dict[str, float]]:
    """(kind code, non-zero :data:`UTILITY_ARRAYS` entries) of one task."""
    u = task.utility
    if isinstance(u, LinearUtility):
        return UTILITY_LINEAR, {"ut_kc": u.k * u.critical_time,
                                "ut_slope": u.slope}
    if isinstance(u, InelasticUtility):
        # The Eq. 7 solve gives inelastic tasks zero utility pull; only
        # the paper's step shape is representable.
        return UTILITY_INELASTIC, {"ut_umax": u.u_max,
                                   "ut_crit": u.critical_time}
    if isinstance(u, LogUtility):
        return UTILITY_LOG, {"ut_crit": u.critical_time, "ut_scale": u.scale,
                             "ut_soft": u.softness}
    if isinstance(u, QuadraticUtility):
        return UTILITY_QUADRATIC, {"ut_umax": u.u_max, "ut_curv": u.a}
    raise _unsupported(f"utility {type(u).__name__} on task {task.name!r}")


def latency_bounds(taskset: ModelSource, task: Task, sub: Subtask,
                   max_latency_factor: float) -> Tuple[float, float]:
    """The ``[lo, hi]`` latency clamp of one subtask.

    * lower bound: the latency achievable with the resource's full
      availability (share cannot exceed ``B_r``);
    * upper bound: the critical time (one subtask alone may not exceed
      any path budget), further capped by the *minimum rate share*
      ``rate × WCET`` of Section 6.2 — a subtask granted less than its
      rate share falls behind its arrivals and queues without bound.
    """
    fn = taskset.share_function(sub.name)
    avail = taskset.resources[sub.resource].availability
    low = fn.min_latency(avail)
    high = task.critical_time * max_latency_factor
    if task.trigger is not None:
        min_share = task.trigger.mean_rate() * sub.exec_time
        if 0.0 < min_share < avail:
            high = min(high, fn.latency_for_share(min_share))
    return low, max(low, high)


class TaskModel(NamedTuple):
    """One task's compiled model rows (see :func:`task_model`)."""

    #: utility kind code (``UTILITY_*``)
    kind: int
    #: the task's non-zero :data:`UTILITY_ARRAYS` entries
    utility: Dict[str, float]
    #: per subtask, in declaration order:
    #: ``(alpha, cost, err, is_hyperbolic, lo, hi)``
    subtasks: Tuple[Tuple[float, float, float, bool, float, float], ...]


def task_model(taskset: ModelSource, task: Task,
               max_latency_factor: float = 1.0) -> TaskModel:
    """Compile one task of ``taskset`` into its model rows.

    The single gate of the kernel's model family: compilation fills its
    model arrays from it, the service screens arrivals with it before a
    rebuild, and :class:`~repro.core.allocation.LatencyAllocator` builds
    its log and quadratic solves from it.  Raises
    :class:`~repro.errors.OptimizationError` for a utility or share
    function outside the family (see the module docstring).
    """
    kind, utility = _utility_row(task)
    rows = []
    for sub in task.subtasks:
        alpha, cost, err, hyper = _share_params(taskset, sub.name)
        lo, hi = latency_bounds(taskset, task, sub, max_latency_factor)
        rows.append((alpha, cost, err, hyper, lo, hi))
    return TaskModel(kind, utility, tuple(rows))


def _canonical_tasks(taskset: TaskSet) -> List[Task]:
    """The canonical (name-sorted) compile order of ``taskset``'s tasks."""
    return sorted(taskset.tasks, key=lambda t: t.name)


def _model_arrays(taskset: TaskSet, tasks: Sequence[Task], n_subtasks: int,
                  resource_names: Sequence[str],
                  max_latency_factor: float) -> Dict[str, np.ndarray]:
    """The per-subtask, per-resource and per-task model arrays of
    ``tasks`` (``taskset``'s, in canonical order), from
    :func:`task_model`."""
    n = n_subtasks
    alpha = np.empty(n)
    cost = np.empty(n)
    err = np.empty(n)
    hyper = np.empty(n, dtype=bool)
    lo = np.empty(n)
    hi = np.empty(n)
    pull_base = np.empty(n)
    kinds = np.empty(len(tasks), dtype=np.int8)
    arrays: Dict[str, np.ndarray] = {
        name: np.zeros(len(tasks)) for name in UTILITY_ARRAYS}
    i = 0
    for t, task in enumerate(tasks):
        model = task_model(taskset, task, max_latency_factor)
        kinds[t] = model.kind
        for name, value in model.utility.items():
            arrays[name][t] = value
        slope = model.utility.get("ut_slope", 0.0)
        for sub, row in zip(task.subtasks, model.subtasks):
            alpha[i], cost[i], err[i], hyper[i], lo[i], hi[i] = row
            pull_base[i] = task.weight(sub.name) * slope
            i += 1
    arrays.update(
        alpha=alpha, cost=cost, err=err, hyper_mask=hyper,
        inv_exp=1.0 / (alpha + 1.0), lo=lo, hi=hi, pull_base=pull_base,
        ut_kind=kinds,
        availability=np.array(
            [taskset.resources[r].availability for r in resource_names]),
    )
    return arrays


@dataclass
class ConcaveBlock:
    """The rows of the log/quadratic tasks, gathered for
    :func:`~repro.core.allocation.solve_concave`.

    Row arrays have one entry per subtask of those tasks (task by task,
    declaration order within a task); task arrays one per such task.
    Built from a compiled structure (:meth:`of_structure`, cached as
    :attr:`TaskSetStructure.concave`) or from one :class:`TaskModel`
    (:meth:`of_task`) — equal inputs give equal arrays, so both solve bit
    for bit alike.
    """

    #: structure subtask index of each row (``arange`` for one task)
    subs: np.ndarray
    #: block task index of each row
    task_of: np.ndarray
    weights: np.ndarray
    alpha: np.ndarray
    cost: np.ndarray
    err: np.ndarray
    hyper_mask: np.ndarray
    inv_exp: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    #: per task: log (``True``) or quadratic utility
    is_log: np.ndarray
    #: log utility parameters (neutral 0/1 entries on quadratic tasks)
    crit: np.ndarray
    scale: np.ndarray
    soft: np.ndarray
    #: quadratic curvature (0 on log tasks)
    curv: np.ndarray
    #: Σ w·lo and Σ w·hi per task: the bracket of the aggregated latency
    lo_sum: np.ndarray
    hi_sum: np.ndarray
    #: w²/(α+1) per row, the constant factor of ∂lat/∂A
    w2_inv_exp: np.ndarray
    #: whether every row's share is hyperbolic
    all_hyper: bool

    @classmethod
    def build(cls, subs: np.ndarray, task_of: np.ndarray,
              rows: Mapping[str, np.ndarray],
              tasks: Mapping[str, np.ndarray]) -> "ConcaveBlock":
        """A block from row arrays (``weights``, ``alpha``, ``cost``,
        ``err``, ``hyper_mask``, ``lo``, ``hi``) and task arrays
        (``ut_kind`` and the log/quadratic :data:`UTILITY_ARRAYS`)."""
        n_tasks = len(tasks["ut_kind"])
        is_log = np.asarray(tasks["ut_kind"]) == UTILITY_LOG
        w = np.asarray(rows["weights"], dtype=np.float64)
        alpha = np.asarray(rows["alpha"], dtype=np.float64)
        lo = np.asarray(rows["lo"], dtype=np.float64)
        hi = np.asarray(rows["hi"], dtype=np.float64)
        hyper_mask = np.asarray(rows["hyper_mask"], dtype=bool)
        inv_exp = 1.0 / (alpha + 1.0)
        return cls(
            subs=subs, task_of=task_of, weights=w, alpha=alpha,
            cost=np.asarray(rows["cost"], dtype=np.float64),
            err=np.asarray(rows["err"], dtype=np.float64),
            hyper_mask=hyper_mask, inv_exp=inv_exp, lo=lo, hi=hi,
            is_log=is_log,
            crit=np.where(is_log, tasks["ut_crit"], 0.0),
            scale=np.where(is_log, tasks["ut_scale"], 1.0),
            soft=np.where(is_log, tasks["ut_soft"], 1.0),
            curv=np.where(is_log, 0.0, tasks["ut_curv"]),
            lo_sum=np.bincount(task_of, weights=w * lo, minlength=n_tasks),
            hi_sum=np.bincount(task_of, weights=w * hi, minlength=n_tasks),
            w2_inv_exp=w * w * inv_exp,
            all_hyper=bool(hyper_mask.all()),
        )

    @classmethod
    def of_task(cls, task: Task, model: TaskModel) -> "ConcaveBlock":
        """The one-task block of a log/quadratic ``task``."""
        n = len(task.subtasks)
        columns = list(zip(*model.subtasks))
        rows: Dict[str, Any] = {
            "weights": [task.weight(sub.name) for sub in task.subtasks],
        }
        for name, column in zip(
                ("alpha", "cost", "err", "hyper_mask", "lo", "hi"), columns):
            rows[name] = column
        tasks = {name: np.array([model.utility.get(name, 0.0)])
                 for name in UTILITY_ARRAYS}
        tasks["ut_kind"] = np.array([model.kind], dtype=np.int8)
        return cls.build(np.arange(n), np.zeros(n, dtype=np.intp), rows,
                         tasks)

    @classmethod
    def of_structure(cls,
                     s: TaskSetStructure) -> Optional["ConcaveBlock"]:
        """The block of ``s``'s log/quadratic tasks; ``None`` when it has
        none."""
        tasks = np.flatnonzero(s.ut_kind >= UTILITY_LOG)
        if not tasks.size:
            return None
        subs = np.flatnonzero(np.isin(s.sub_task_ids, tasks))
        rows = {name: getattr(s, name)[subs]
                for name in ("weights", "alpha", "cost", "err",
                             "hyper_mask", "lo", "hi")}
        task_arrays = {name: getattr(s, name)[tasks]
                       for name in ("ut_kind",) + UTILITY_ARRAYS}
        return cls.build(subs, np.searchsorted(tasks, s.sub_task_ids[subs]),
                         rows, task_arrays)


def compile_structure(taskset: TaskSet,
                      max_latency_factor: float = 1.0) -> TaskSetStructure:
    """Compile ``taskset`` into its canonical structure.

    Tasks and resources are visited in name-sorted order, so two task sets
    describing the same problem compile to byte-identical arrays (and the
    same :attr:`~TaskSetStructure.fingerprint`) regardless of declaration
    order.  Raises :class:`~repro.errors.OptimizationError` when the
    workload falls outside the kernel's model family (see module
    docstring).
    """
    tasks = _canonical_tasks(taskset)
    resource_names = tuple(sorted(taskset.resources))
    resource_index = {r: i for i, r in enumerate(resource_names)}

    subtask_names = []
    sub_resource = []
    sub_task_ids = []
    sub_exec = []
    weights = []
    path_keys = []
    path_crit = []
    path_sub_flat = []
    path_ids_flat = []
    task_path_starts = []
    task_sub_starts = [0]
    sub_paths = []  # per-subtask list of global path indices, global order

    sub_index = {}
    for task in tasks:
        task_idx = len(task_path_starts)
        for sub in task.subtasks:
            sub_index[sub.name] = len(subtask_names)
            subtask_names.append(sub.name)
            sub_resource.append(resource_index[sub.resource])
            sub_task_ids.append(task_idx)
            sub_exec.append(float(sub.exec_time))
            weights.append(task.weight(sub.name))
            sub_paths.append([])
        task_sub_starts.append(len(subtask_names))

        task_path_starts.append(len(path_keys))
        for p_idx, path in enumerate(task.graph.paths):
            global_path = len(path_keys)
            path_keys.append(PathKey(task.name, p_idx))
            path_crit.append(task.critical_time)
            for name in path:
                path_sub_flat.append(sub_index[name])
                path_ids_flat.append(global_path)
        # Subtask→path membership in LatencyAllocator's order: for each
        # subtask, graph.paths_through gives ascending local path indices.
        base = task_path_starts[-1]
        for sub in task.subtasks:
            on_paths = task.graph.paths_through(sub.name)
            if not on_paths:
                # Cannot happen with a root-to-leaf path enumeration, but
                # an empty reduceat segment would silently mis-sum.
                raise _unsupported(
                    f"subtask {sub.name!r} lying on no root-to-leaf path"
                )
            sub_paths[sub_index[sub.name]] = [base + i for i in on_paths]

    sub_path_flat = []
    sub_ids_flat = []
    for s_idx, paths in enumerate(sub_paths[: len(subtask_names)]):
        sub_path_flat.extend(paths)
        sub_ids_flat.extend([s_idx] * len(paths))
    arrays = _model_arrays(taskset, tasks, len(subtask_names),
                           resource_names, float(max_latency_factor))
    arrays.update(
        sub_resource=np.asarray(sub_resource, dtype=np.intp),
        sub_task_ids=np.asarray(sub_task_ids, dtype=np.intp),
        path_sub_flat=np.asarray(path_sub_flat, dtype=np.intp),
        path_ids_flat=np.asarray(path_ids_flat, dtype=np.intp),
        sub_path_flat=np.asarray(sub_path_flat, dtype=np.intp),
        sub_ids_flat=np.asarray(sub_ids_flat, dtype=np.intp),
        task_path_starts=np.asarray(task_path_starts, dtype=np.intp),
        task_sub_starts=np.asarray(task_sub_starts, dtype=np.intp),
        sub_exec=np.asarray(sub_exec),
        weights=np.asarray(weights),
        path_crit=np.asarray(path_crit),
    )
    # Distinct (path, resource) pairs, sorted by path then resource: the
    # sparse form of "path p traverses resource r".
    n_res = max(len(resource_names), 1)
    pairs = np.unique(
        arrays["path_ids_flat"] * n_res
        + arrays["sub_resource"][arrays["path_sub_flat"]]
    )
    arrays["pr_path"] = (pairs // n_res).astype(np.intp)
    arrays["pr_res"] = (pairs % n_res).astype(np.intp)
    return TaskSetStructure(
        max_latency_factor=float(max_latency_factor),
        subtask_names=tuple(subtask_names),
        resource_names=resource_names,
        task_names=tuple(t.name for t in tasks),
        path_keys=tuple(path_keys),
        **arrays,
    )


# -- fragments and splices ---------------------------------------------------

#: Per-subtask arrays a fragment carries as they appear in a structure.
_ROW_ARRAYS = (
    "sub_resource", "sub_exec", "weights", "pull_base", "alpha", "cost",
    "err", "hyper_mask", "inv_exp", "lo", "hi",
)


@dataclass(frozen=True)
class TaskFragment:
    """One task compiled on its own: the rows it contributes to a
    :class:`TaskSetStructure`, with subtask and path indices local to the
    task and resource indices into the structure's ``resource_names``.

    :func:`splice_structure` inserts fragments into a structure; equal
    inputs give the rows :func:`compile_structure` would write.
    """

    name: str
    max_latency_factor: float
    subtask_names: Tuple[str, ...]
    path_keys: Tuple[PathKey, ...]
    #: per subtask, in declaration order (the :data:`_ROW_ARRAYS`)
    rows: Mapping[str, np.ndarray]
    #: critical time of each path, shape (P_t,)
    path_crit: np.ndarray
    #: path members flattened path by path, local indices
    path_sub_flat: np.ndarray
    path_ids_flat: np.ndarray
    #: each subtask's paths, flattened subtask by subtask, local indices
    sub_path_flat: np.ndarray
    sub_ids_flat: np.ndarray
    #: distinct (local path, resource) pairs, sorted
    pr_path: np.ndarray
    pr_res: np.ndarray
    #: utility kind code and every :data:`UTILITY_ARRAYS` value
    ut_kind: int
    utility: Mapping[str, float]


def compile_fragment(task: Task, resources: Mapping[str, Resource],
                     resource_names: Sequence[str],
                     max_latency_factor: float = 1.0) -> TaskFragment:
    """Compile ``task`` alone against ``resources`` (which must hold
    every resource it uses, at its current availability and lag).

    ``resource_names`` is the sorted resource order of the structure the
    fragment will be spliced into; it must name every resource the task
    uses (``resources`` lookups raise ``KeyError`` otherwise).  Raises
    :class:`~repro.errors.OptimizationError` for a task outside the
    kernel's model family, as :func:`compile_structure` would.
    """
    factor = float(max_latency_factor)
    model = task_model(_TaskSource(task, resources), task, factor)
    local = {sub.name: i for i, sub in enumerate(task.subtasks)}
    path_sub: List[int] = []
    path_ids: List[int] = []
    paths = task.graph.paths
    for p_idx, path in enumerate(paths):
        for name in path:
            path_sub.append(local[name])
            path_ids.append(p_idx)
    sub_path: List[int] = []
    sub_ids: List[int] = []
    for i, sub in enumerate(task.subtasks):
        on_paths = task.graph.paths_through(sub.name)
        if not on_paths:
            raise _unsupported(
                f"subtask {sub.name!r} lying on no root-to-leaf path"
            )
        sub_path.extend(on_paths)
        sub_ids.extend([i] * len(on_paths))

    columns = list(zip(*model.subtasks))
    alpha = np.asarray(columns[0], dtype=np.float64)
    slope = model.utility.get("ut_slope", 0.0)
    weights = [task.weight(sub.name) for sub in task.subtasks]
    sub_resource = np.asarray(
        [bisect.bisect_left(resource_names, sub.resource)
         for sub in task.subtasks], dtype=np.intp)
    rows = {
        "sub_resource": sub_resource,
        "sub_exec": np.asarray([float(sub.exec_time)
                                for sub in task.subtasks]),
        "weights": np.asarray(weights),
        "pull_base": np.asarray([w * slope for w in weights]),
        "alpha": alpha,
        "cost": np.asarray(columns[1], dtype=np.float64),
        "err": np.asarray(columns[2], dtype=np.float64),
        "hyper_mask": np.asarray(columns[3], dtype=bool),
        "inv_exp": 1.0 / (alpha + 1.0),
        "lo": np.asarray(columns[4], dtype=np.float64),
        "hi": np.asarray(columns[5], dtype=np.float64),
    }
    path_sub_flat = np.asarray(path_sub, dtype=np.intp)
    path_ids_flat = np.asarray(path_ids, dtype=np.intp)
    n_res = max(len(resource_names), 1)
    pairs = np.unique(path_ids_flat * n_res + sub_resource[path_sub_flat])
    return TaskFragment(
        name=task.name,
        max_latency_factor=factor,
        subtask_names=tuple(local),
        path_keys=tuple(PathKey(task.name, i) for i in range(len(paths))),
        rows=rows,
        path_crit=np.full(len(paths), task.critical_time),
        path_sub_flat=path_sub_flat,
        path_ids_flat=path_ids_flat,
        sub_path_flat=np.asarray(sub_path, dtype=np.intp),
        sub_ids_flat=np.asarray(sub_ids, dtype=np.intp),
        pr_path=(pairs // n_res).astype(np.intp),
        pr_res=(pairs % n_res).astype(np.intp),
        ut_kind=model.kind,
        utility={name: model.utility.get(name, 0.0)
                 for name in UTILITY_ARRAYS},
    )


def empty_structure(resource_names: Sequence[str], availability: np.ndarray,
                    max_latency_factor: float = 1.0) -> TaskSetStructure:
    """A structure with no tasks over ``resource_names`` (sorted) — the
    base a membership is spliced into when it starts from nothing.  It
    takes ``availability`` as it is and makes it read-only."""
    arrays: Dict[str, np.ndarray] = {
        name: np.zeros(0, dtype=np.intp) for name in _INDEX_ARRAYS}
    arrays.update((name, np.zeros(0)) for name in _FLOAT_ARRAYS)
    arrays.update(
        task_sub_starts=np.zeros(1, dtype=np.intp),
        hyper_mask=np.zeros(0, dtype=bool),
        ut_kind=np.zeros(0, dtype=np.int8),
        availability=availability,
    )
    return TaskSetStructure(
        max_latency_factor=float(max_latency_factor), subtask_names=(),
        resource_names=tuple(resource_names), task_names=(), path_keys=(),
        **arrays,
    )


def _splice_pieces(base: TaskSetStructure, fragments: List[TaskFragment],
                   remove: Iterable[str]
                   ) -> List[Union[Tuple[int, int], TaskFragment]]:
    """The new task order as runs ``(t0, t1)`` of ``base``'s tasks and
    the fragments between them; a fragment replaces a base task of its
    name."""
    names = base.task_names

    def index(name: str) -> Optional[int]:
        i = bisect.bisect_left(names, name)
        return i if i < len(names) and names[i] == name else None

    dropped: Set[int] = set()
    for name in remove:
        i = index(name)
        if i is None:
            raise ModelError(f"cannot remove unknown task {name!r}")
        dropped.add(i)
    for fragment in fragments:
        i = index(fragment.name)
        if i is not None:
            dropped.add(i)
    drops = sorted(dropped)
    inserts = [(bisect.bisect_left(names, f.name), f) for f in fragments]
    pieces: List[Union[Tuple[int, int], TaskFragment]] = []
    cursor = d = k = 0
    while d < len(drops) or k < len(inserts):
        at_drop = drops[d] if d < len(drops) else len(names)
        if k < len(inserts) and inserts[k][0] <= at_drop:
            at, fragment = inserts[k]
            if cursor < at:
                pieces.append((cursor, at))
                cursor = at
            pieces.append(fragment)
            k += 1
        else:
            if cursor < at_drop:
                pieces.append((cursor, at_drop))
            cursor = at_drop + 1
            d += 1
    if cursor < len(names):
        pieces.append((cursor, len(names)))
    return pieces


def splice_structure(base: TaskSetStructure,
                     insert: Sequence[TaskFragment] = (),
                     remove: Iterable[str] = (),
                     availability: Optional[np.ndarray] = None,
                     ) -> TaskSetStructure:
    """``base`` with the tasks in ``remove`` taken out and ``insert``'s
    fragments put in at their name-sorted positions (a fragment replaces a
    task of its name), every index array remapped.

    The result is a new structure byte-identical to
    :func:`compile_structure` of the new membership, provided the
    fragments were compiled against ``base``'s resource order and
    ``availability`` (default: ``base``'s; an array passed in is taken as
    it is and made read-only).  ``base`` is a value and stays as it was.
    The cost is copying the arrays, plus Python work per changed task,
    not per task.
    """
    fragments = sorted(insert, key=lambda f: f.name)
    for a, b in zip(fragments, fragments[1:]):
        if a.name == b.name:
            raise ModelError(f"two fragments for task {a.name!r}")
    for fragment in fragments:
        if fragment.max_latency_factor != base.max_latency_factor:
            raise ModelError(
                f"fragment {fragment.name!r} was compiled at "
                f"max_latency_factor={fragment.max_latency_factor!r}, the "
                f"structure at {base.max_latency_factor!r}"
            )
    path_starts = np.append(base.task_path_starts, base.n_paths)
    cols: Dict[str, List[np.ndarray]] = {
        name: [] for name in _ROW_ARRAYS + (
            "sub_task_ids", "path_sub_flat", "path_ids_flat",
            "sub_path_flat", "sub_ids_flat", "pr_path", "pr_res",
            "path_crit", "ut_kind") + UTILITY_ARRAYS
    }
    sub_counts: List[np.ndarray] = []
    path_counts: List[np.ndarray] = []
    subtask_names: List[Sequence[str]] = []
    task_names: List[Sequence[str]] = []
    path_keys: List[Sequence[PathKey]] = []
    nt = ns = npath = 0
    for piece in _splice_pieces(base, fragments, remove):
        if isinstance(piece, TaskFragment):
            f = piece
            n_sub, n_path = len(f.subtask_names), len(f.path_keys)
            for name in _ROW_ARRAYS:
                cols[name].append(f.rows[name])
            cols["sub_task_ids"].append(np.full(n_sub, nt, dtype=np.intp))
            cols["path_sub_flat"].append(f.path_sub_flat + ns)
            cols["path_ids_flat"].append(f.path_ids_flat + npath)
            cols["sub_path_flat"].append(f.sub_path_flat + npath)
            cols["sub_ids_flat"].append(f.sub_ids_flat + ns)
            cols["pr_path"].append(f.pr_path + npath)
            cols["pr_res"].append(f.pr_res)
            cols["path_crit"].append(f.path_crit)
            cols["ut_kind"].append(np.array([f.ut_kind], dtype=np.int8))
            for name in UTILITY_ARRAYS:
                cols[name].append(np.array([f.utility[name]]))
            sub_counts.append(np.array([n_sub], dtype=np.intp))
            path_counts.append(np.array([n_path], dtype=np.intp))
            subtask_names.append(f.subtask_names)
            task_names.append((f.name,))
            path_keys.append(f.path_keys)
            nt, ns, npath = nt + 1, ns + n_sub, npath + n_path
            continue
        t0, t1 = piece
        s0, s1 = int(base.task_sub_starts[t0]), int(base.task_sub_starts[t1])
        p0, p1 = int(path_starts[t0]), int(path_starts[t1])
        pf0, pf1 = np.searchsorted(base.path_ids_flat, (p0, p1))
        sf0, sf1 = np.searchsorted(base.sub_ids_flat, (s0, s1))
        k0, k1 = np.searchsorted(base.pr_path, (p0, p1))
        for name in _ROW_ARRAYS:
            cols[name].append(getattr(base, name)[s0:s1])
        cols["sub_task_ids"].append(base.sub_task_ids[s0:s1] + (nt - t0))
        cols["path_sub_flat"].append(base.path_sub_flat[pf0:pf1] + (ns - s0))
        cols["path_ids_flat"].append(
            base.path_ids_flat[pf0:pf1] + (npath - p0))
        cols["sub_path_flat"].append(
            base.sub_path_flat[sf0:sf1] + (npath - p0))
        cols["sub_ids_flat"].append(base.sub_ids_flat[sf0:sf1] + (ns - s0))
        cols["pr_path"].append(base.pr_path[k0:k1] + (npath - p0))
        cols["pr_res"].append(base.pr_res[k0:k1])
        cols["path_crit"].append(base.path_crit[p0:p1])
        for name in ("ut_kind",) + UTILITY_ARRAYS:
            cols[name].append(getattr(base, name)[t0:t1])
        sub_counts.append(np.diff(base.task_sub_starts[t0:t1 + 1]))
        path_counts.append(np.diff(path_starts[t0:t1 + 1]))
        subtask_names.append(base.subtask_names[s0:s1])
        task_names.append(base.task_names[t0:t1])
        path_keys.append(base.path_keys[p0:p1])
        nt, ns, npath = nt + (t1 - t0), ns + (s1 - s0), npath + (p1 - p0)

    if availability is None:
        availability = base.availability
    if not nt:
        return empty_structure(base.resource_names, availability,
                               base.max_latency_factor)
    arrays = {name: np.concatenate(parts) for name, parts in cols.items()}
    sub_sizes = np.concatenate(sub_counts)
    path_sizes = np.concatenate(path_counts)
    return TaskSetStructure(
        max_latency_factor=base.max_latency_factor,
        subtask_names=tuple(itertools.chain.from_iterable(subtask_names)),
        resource_names=base.resource_names,
        task_names=tuple(itertools.chain.from_iterable(task_names)),
        path_keys=tuple(itertools.chain.from_iterable(path_keys)),
        task_sub_starts=np.concatenate(
            (np.zeros(1, dtype=np.intp), np.cumsum(sub_sizes))),
        task_path_starts=np.cumsum(path_sizes) - path_sizes,
        availability=availability,
        **arrays,
    )


# -- serialization -----------------------------------------------------------


def _payload_dict(s: TaskSetStructure) -> Dict[str, Any]:
    """The canonical JSON-safe payload (everything but the fingerprint)."""
    payload: Dict[str, Any] = {
        "format": _STRUCTURE_FORMAT_VERSION,
        "max_latency_factor": float(s.max_latency_factor),
        "subtask_names": list(s.subtask_names),
        "resource_names": list(s.resource_names),
        "task_names": list(s.task_names),
        "path_keys": [[k.task, int(k.index)] for k in s.path_keys],
        "ut_kind": [int(v) for v in s.ut_kind.tolist()],
        "hyper_mask": [bool(v) for v in s.hyper_mask.tolist()],
    }
    for name in _INDEX_ARRAYS:
        payload[name] = [int(v) for v in getattr(s, name).tolist()]
    for name in _FLOAT_ARRAYS:
        # float64 → repr → float64 round-trips exactly, so JSON transport
        # preserves the arrays bit-for-bit.
        payload[name] = [float(v) for v in getattr(s, name).tolist()]
    return payload


def structure_to_dict(structure: TaskSetStructure) -> Dict[str, Any]:
    """A JSON-serializable dict capturing ``structure`` bit-exactly.

    The payload embeds the structure's canonical fingerprint;
    :func:`structure_from_dict` recomputes and verifies it, so truncated
    or corrupted payloads are detected rather than silently deserialized.
    """
    payload = _payload_dict(structure)
    payload["fingerprint"] = structure.fingerprint
    return payload


def structure_from_dict(data: Mapping[str, Any]) -> TaskSetStructure:
    """Rebuild a :class:`TaskSetStructure` from :func:`structure_to_dict`.

    Verifies the embedded fingerprint against a recomputation over the
    payload: any mutation — a truncated array, a flipped coefficient, a
    renamed subtask — raises :class:`~repro.errors.ModelError`.
    """
    try:
        version = int(data["format"])
        if version != _STRUCTURE_FORMAT_VERSION:
            raise ModelError(
                f"unsupported structure format {version!r} "
                f"(expected {_STRUCTURE_FORMAT_VERSION})"
            )
        stamp = data["fingerprint"]
        if not isinstance(stamp, str):
            raise ModelError("structure payload has a non-string fingerprint")
        arrays: Dict[str, np.ndarray] = {
            name: np.asarray(data[name], dtype=np.intp)
            for name in _INDEX_ARRAYS}
        arrays.update((name, np.asarray(data[name], dtype=np.float64))
                      for name in _FLOAT_ARRAYS)
        structure = TaskSetStructure(
            max_latency_factor=float(data["max_latency_factor"]),
            subtask_names=tuple(str(n) for n in data["subtask_names"]),
            resource_names=tuple(str(n) for n in data["resource_names"]),
            task_names=tuple(str(n) for n in data["task_names"]),
            path_keys=tuple(
                PathKey(str(t), int(i)) for t, i in data["path_keys"]
            ),
            ut_kind=np.asarray(data["ut_kind"], dtype=np.int8),
            hyper_mask=np.asarray(data["hyper_mask"], dtype=bool),
            **arrays,
        )
    except ModelError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"malformed structure payload: {exc}") from exc
    _check_shapes(structure)
    if structure.fingerprint != stamp:
        raise ModelError(
            "structure payload failed fingerprint verification "
            "(corrupted or hand-edited)"
        )
    return structure


def _check_shapes(s: TaskSetStructure) -> None:
    """Internal consistency of a deserialized structure's array shapes."""
    n_sub, n_res = s.n_subtasks, s.n_resources
    n_task, n_path = len(s.task_names), s.n_paths
    expected = {
        "sub_resource": n_sub, "sub_task_ids": n_sub, "sub_exec": n_sub,
        "weights": n_sub, "pull_base": n_sub, "alpha": n_sub, "cost": n_sub,
        "err": n_sub, "hyper_mask": n_sub, "inv_exp": n_sub, "lo": n_sub,
        "hi": n_sub, "availability": n_res, "path_crit": n_path,
        "task_path_starts": n_task, "task_sub_starts": n_task + 1,
        "ut_kind": n_task,
    }
    expected.update({name: n_task for name in UTILITY_ARRAYS})
    for name, size in expected.items():
        actual = len(getattr(s, name))
        if actual != size:
            raise ModelError(
                f"structure payload array {name!r} has length {actual}, "
                f"expected {size}"
            )
    if len(s.path_sub_flat) != len(s.path_ids_flat):
        raise ModelError("structure payload path flattening is inconsistent")
    if len(s.sub_path_flat) != len(s.sub_ids_flat):
        raise ModelError(
            "structure payload subtask flattening is inconsistent"
        )
    if len(s.pr_path) != len(s.pr_res):
        raise ModelError("structure payload incidence pairs are inconsistent")
    for name, bound in (("pr_path", n_path), ("pr_res", n_res)):
        values = getattr(s, name)
        if len(values) and (values.min() < 0 or values.max() >= bound):
            raise ModelError(
                f"structure payload array {name!r} indexes outside "
                f"[0, {bound})"
            )
