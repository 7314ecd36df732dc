"""Sharded execution of the vectorized LLA kernel.

The dual decomposition couples subtasks only through per-resource prices
(Eq. 8) and per-path prices (Eq. 9), and a path never leaves its task — so
the task↔resource incidence graph's **connected components** are fully
independent subproblems.  :func:`plan_shards` finds the components with a
union-find over the subtask→resource incidence and packs them into at most
``shards`` balanced groups; :class:`ShardedEngine` runs one
:class:`~repro.core.vectorized.VectorizedEngine` per group.

Components are never split across shards.  Splitting one would make its
resources *boundary* resources whose price vectors must be exchanged every
round — and, worse, would split the per-resource ``bincount`` reductions
into differently-ordered partial sums, breaking the bitwise scalar parity
the backends guarantee.  Keeping components whole makes the boundary
price-exchange set **empty**: each shard's round is exactly the global
round restricted to its rows, every partial sum sees the same addends in
the same order, and a sharded trajectory is bitwise-identical to the
unsharded one.  The cost is that the effective shard count is capped by
the number of components (a fully-connected workload runs as one shard).

Two execution modes:

* ``serial`` (default) — all shard engines run in-process.  No parallelism
  and no per-round IPC; each shard's arrays are a block of the global
  ones, so the per-iteration work equals the unsharded engine's.
* ``processes`` — one daemon worker process per shard, receiving its
  sub-structure as a serialized payload (:func:`structure_to_dict`) and
  publishing its per-round arrays through ``multiprocessing.shared_memory``
  blocks; the parent exchanges only commands and acks per round.  Batched
  :meth:`ShardedEngine.iterate` amortizes the synchronization over many
  iterations, which is where the multi-core speedup lives.

When the plan degenerates to a single shard (``shards=1`` or one
component), the engine delegates to a single unsharded
:class:`VectorizedEngine` — identity by construction, not merely parity.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.connection import Connection
from multiprocessing.shared_memory import SharedMemory
from typing import (
    TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple,
)

import numpy as np

from repro.errors import OptimizationError
from repro.core.state import PathKey
from repro.core.stepsize import StepSizePolicy
from repro.core.structure import (
    UTILITY_ARRAYS,
    TaskSetStructure,
    compile_structure,
    structure_from_dict,
    structure_to_dict,
)
from repro.core.vectorized import (
    EngineStep,
    GammaSpec,
    StepArrays,
    VectorizedEngine,
    gamma_spec,
    make_gamma_supplier,
)
from repro.model.task import TaskSet
from repro.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.core.optimizer import LLAConfig

__all__ = [
    "ShardSpec",
    "ShardPlan",
    "plan_shards",
    "extract_shard",
    "ShardedEngine",
]


@dataclass(frozen=True)
class ShardSpec:
    """One shard's slice of the global structure (all indices ascending,
    so per-shard reductions keep the global operand order)."""

    index: int
    task_ids: Tuple[int, ...]
    sub_ids: Tuple[int, ...]
    resource_ids: Tuple[int, ...]
    path_ids: Tuple[int, ...]


@dataclass(frozen=True)
class ShardPlan:
    """The component partition packed into shards."""

    n_components: int
    specs: Tuple[ShardSpec, ...]

    @property
    def n_shards(self) -> int:
        return len(self.specs)


class _UnionFind:
    """Path-halving union-find over ``n`` items."""

    def __init__(self, n: int) -> None:
        self._parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Deterministic: the smaller root wins.
            if rb < ra:
                ra, rb = rb, ra
            self._parent[rb] = ra


def plan_shards(structure: TaskSetStructure, shards: int) -> ShardPlan:
    """Partition ``structure`` into at most ``shards`` component groups.

    Components (connected pieces of the task↔resource incidence graph,
    including task-less resources as singletons) are packed greedily onto
    the least-loaded shard, heaviest first, weighted by subtask count —
    deterministic ties go to the lowest component/shard index.
    """
    if shards < 1:
        raise OptimizationError(f"shards must be >= 1, got {shards!r}")
    n_res = structure.n_resources
    n_task = len(structure.task_names)
    uf = _UnionFind(n_res)
    starts = structure.task_sub_starts
    sub_res = structure.sub_resource
    for t in range(n_task):
        rs = sub_res[int(starts[t]):int(starts[t + 1])]
        first = int(rs[0])
        for r in rs[1:]:
            uf.union(first, int(r))

    # Component id := union-find root; order components by their smallest
    # resource index so the plan is reproducible.
    comp_resources: Dict[int, List[int]] = {}
    for r in range(n_res):
        comp_resources.setdefault(uf.find(r), []).append(r)
    comp_tasks: Dict[int, List[int]] = {root: [] for root in comp_resources}
    for t in range(n_task):
        root = uf.find(int(sub_res[int(starts[t])]))
        comp_tasks[root].append(t)

    components = sorted(comp_resources)
    n_components = len(components)
    effective = min(shards, n_components)

    def weight(root: int) -> int:
        return sum(
            int(starts[t + 1]) - int(starts[t]) for t in comp_tasks[root]
        )

    # Greedy balanced packing, heaviest component first.
    order = sorted(components, key=lambda root: (-weight(root), root))
    shard_tasks: List[List[int]] = [[] for _ in range(effective)]
    shard_resources: List[List[int]] = [[] for _ in range(effective)]
    shard_weight = [0] * effective
    for root in order:
        k = min(range(effective), key=lambda i: (shard_weight[i], i))
        shard_tasks[k].extend(comp_tasks[root])
        shard_resources[k].extend(comp_resources[root])
        shard_weight[k] += weight(root)

    specs = []
    for k in range(effective):
        task_ids = tuple(sorted(shard_tasks[k]))
        sub_ids: Tuple[int, ...] = tuple(
            s for t in task_ids
            for s in range(int(starts[t]), int(starts[t + 1]))
        )
        path_ids: Tuple[int, ...] = tuple(
            p for t in task_ids
            for p in range(structure.task_path_slice(t).start,
                           structure.task_path_slice(t).stop)
        )
        specs.append(ShardSpec(
            index=k,
            task_ids=task_ids,
            sub_ids=sub_ids,
            resource_ids=tuple(sorted(shard_resources[k])),
            path_ids=path_ids,
        ))
    return ShardPlan(n_components=n_components, specs=tuple(specs))


#: Model arrays refreshed by :meth:`TaskSetStructure.refresh_model`, split
#: by the index space they are sliced over when pushed into shards.
_REFRESH_SUB_ARRAYS = (
    "alpha", "cost", "err", "hyper_mask", "inv_exp", "lo", "hi", "pull_base",
)
_REFRESH_RES_ARRAYS = ("availability",)
_REFRESH_TASK_ARRAYS = ("ut_kind",) + UTILITY_ARRAYS


def extract_shard(structure: TaskSetStructure,
                  spec: ShardSpec) -> TaskSetStructure:
    """The sub-structure of ``structure`` covering ``spec``'s rows.

    Index arrays are remapped to the shard's local numbering; because a
    spec's indices are ascending, the relative operand order of every
    reduction — and therefore every partial float sum — is preserved.
    The result is unbound (``taskset is None``).
    """
    subs = np.asarray(spec.sub_ids, dtype=np.intp)
    ress = np.asarray(spec.resource_ids, dtype=np.intp)
    paths = np.asarray(spec.path_ids, dtype=np.intp)
    tasks = np.asarray(spec.task_ids, dtype=np.intp)

    sub = TaskSetStructure(
        taskset=None,
        max_latency_factor=structure.max_latency_factor,
        subtask_names=tuple(structure.subtask_names[i] for i in spec.sub_ids),
        resource_names=tuple(
            structure.resource_names[i] for i in spec.resource_ids
        ),
        task_names=tuple(structure.task_names[i] for i in spec.task_ids),
        path_keys=tuple(structure.path_keys[i] for i in spec.path_ids),
    )

    # Per-subtask incidence, remapped via searchsorted (ascending ids).
    sub.sub_resource = np.searchsorted(ress, structure.sub_resource[subs])
    sub.sub_task_ids = np.searchsorted(tasks, structure.sub_task_ids[subs])
    sub.sub_exec = structure.sub_exec[subs].copy()

    # Path flattenings: select the shard's rows, keep global order.
    path_mask = np.zeros(structure.n_paths, dtype=bool)
    path_mask[paths] = True
    keep = path_mask[structure.path_ids_flat]
    sub.path_sub_flat = np.searchsorted(subs, structure.path_sub_flat[keep])
    sub.path_ids_flat = np.searchsorted(paths, structure.path_ids_flat[keep])
    sub_mask = np.zeros(structure.n_subtasks, dtype=bool)
    sub_mask[subs] = True
    keep_s = sub_mask[structure.sub_ids_flat]
    sub.sub_path_flat = np.searchsorted(paths, structure.sub_path_flat[keep_s])
    sub.sub_ids_flat = np.searchsorted(subs, structure.sub_ids_flat[keep_s])

    # Segment starts from per-task counts.
    starts = structure.task_sub_starts
    sub_counts = [int(starts[t + 1]) - int(starts[t]) for t in spec.task_ids]
    sub.task_sub_starts = np.concatenate(
        ([0], np.cumsum(sub_counts))
    ).astype(np.intp)
    path_counts = [
        structure.task_path_slice(t).stop - structure.task_path_slice(t).start
        for t in spec.task_ids
    ]
    sub.task_path_starts = np.concatenate(
        ([0], np.cumsum(path_counts))
    ).astype(np.intp)[:-1]

    # Incidence pairs of the shard's paths; a component is never split,
    # so every such pair's resource is the shard's too.
    keep_pr = path_mask[structure.pr_path]
    sub.pr_path = np.searchsorted(paths, structure.pr_path[keep_pr])
    sub.pr_res = np.searchsorted(ress, structure.pr_res[keep_pr])

    # Model arrays: plain row selections.
    sub.weights = structure.weights[subs].copy()
    sub.path_crit = structure.path_crit[paths].copy()
    for name, rows in _model_rows(structure, spec).items():
        setattr(sub, name, rows)
    return sub


def _model_rows(structure: TaskSetStructure,
                spec: ShardSpec) -> Dict[str, np.ndarray]:
    """The shard's rows of every refreshable model array."""
    index = {
        "sub": np.asarray(spec.sub_ids, dtype=np.intp),
        "res": np.asarray(spec.resource_ids, dtype=np.intp),
        "task": np.asarray(spec.task_ids, dtype=np.intp),
    }
    return {
        name: getattr(structure, name)[index[per]].copy()
        for per, names in (("sub", _REFRESH_SUB_ARRAYS),
                           ("res", _REFRESH_RES_ARRAYS),
                           ("task", _REFRESH_TASK_ARRAYS))
        for name in names
    }


# -- shared-memory worker pool ------------------------------------------------

#: Per-shard output blocks published through shared memory, as
#: (field, per-what, dtype) — one per :class:`StepArrays` field, the
#: byte masks last so every float block stays 8-byte aligned; offsets
#: are computed from the shard's sizes.
_SHM_FIELDS: Tuple[Tuple[str, str, str], ...] = (
    ("lat", "sub", "float64"),
    ("mu", "res", "float64"),
    ("lam", "path", "float64"),
    ("loads", "res", "float64"),
    ("path_lat", "path", "float64"),
    ("per_task", "task", "float64"),
    ("crit", "task", "float64"),
    ("cong_r", "res", "uint8"),
    ("cong_p", "path", "uint8"),
)


def _shm_layout(n_sub: int, n_res: int, n_path: int,
                n_task: int) -> Tuple[Dict[str, Tuple[int, int, str]], int]:
    """(field → (offset, length, dtype), total bytes) for one shard."""
    sizes = {"sub": n_sub, "res": n_res, "path": n_path, "task": n_task}
    layout: Dict[str, Tuple[int, int, str]] = {}
    offset = 0
    for name, per, dtype in _SHM_FIELDS:
        length = sizes[per]
        layout[name] = (offset, length, dtype)
        offset += length * np.dtype(dtype).itemsize
    return layout, max(offset, 1)


def _shm_views(shm: SharedMemory,
               layout: Mapping[str, Tuple[int, int, str]],
               ) -> Dict[str, np.ndarray]:
    views: Dict[str, np.ndarray] = {}
    for name, (offset, length, dtype) in layout.items():
        views[name] = np.ndarray(
            (length,), dtype=np.dtype(dtype), buffer=shm.buf, offset=offset
        )
    return views


def _publish(views: Mapping[str, np.ndarray], out: StepArrays) -> None:
    for name, _per, _dtype in _SHM_FIELDS:
        views[name][:] = getattr(out, name)


def _publish_state(views: Mapping[str, np.ndarray],
                   engine: VectorizedEngine) -> None:
    lat, mu, lam = engine.state_arrays()
    views["lat"][:] = lat
    views["mu"][:] = mu
    views["lam"][:] = lam


def _shard_worker_main(conn: Connection, payload: Dict[str, Any],
                       config_kwargs: Dict[str, Any], spec: GammaSpec,
                       shm_name: str,
                       layout: Dict[str, Tuple[int, int, str]]) -> None:
    """Worker process: one shard engine driven by pipe commands."""
    # Imported lazily so the worker constructs its config without the
    # parent's (unpicklable) policy/telemetry objects.
    from repro.core.optimizer import LLAConfig

    structure = structure_from_dict(payload)
    config = LLAConfig(**config_kwargs)
    engine = VectorizedEngine.from_structure(
        structure, config, make_gamma_supplier(spec, structure)
    )
    shm = SharedMemory(name=shm_name)
    try:
        views = _shm_views(shm, layout)
        _publish_state(views, engine)
        conn.send(("ready",))
        while True:
            msg = conn.recv()
            cmd = msg[0]
            if cmd == "stop":
                break
            elif cmd == "step":
                _publish(views, engine.step_arrays())
                conn.send(("ok",))
            elif cmd == "iterate":
                out = engine.iterate(int(msg[1]))
                if out is not None:
                    _publish(views, out)
                conn.send(("ok",))
            elif cmd == "reallocate":
                engine.reallocate(msg[1])
                _publish_state(views, engine)
                conn.send(("ok",))
            elif cmd == "reset":
                engine.reset()
                _publish_state(views, engine)
                conn.send(("ok",))
            elif cmd == "reset_path_prices":
                engine.reset_path_prices()
                _publish_state(views, engine)
                conn.send(("ok",))
            elif cmd == "reset_step_sizes":
                engine.reset_step_sizes()
                conn.send(("ok",))
            elif cmd == "set_model":
                structure.set_model_arrays(msg[1])
                conn.send(("ok",))
            else:  # pragma: no cover - defensive
                conn.send(("error", f"unknown command {cmd!r}"))
        # Views alias shm.buf; drop them before closing the mapping.
        del views
    finally:
        shm.close()
        conn.close()


class _ShardPool:
    """One daemon worker per shard, exchanging commands over pipes and
    per-round arrays over shared memory."""

    def __init__(self, plan: ShardPlan, structures: Sequence[TaskSetStructure],
                 config_kwargs: Dict[str, Any], spec: GammaSpec) -> None:
        ctx = get_context()
        self._shms: List[SharedMemory] = []
        self._views: List[Dict[str, np.ndarray]] = []
        self._conns: List[Connection] = []
        self._procs: List[Any] = []
        self._closed = False
        try:
            for shard, sub in zip(plan.specs, structures):
                layout, nbytes = _shm_layout(
                    sub.n_subtasks, sub.n_resources, sub.n_paths,
                    len(sub.task_names),
                )
                shm = SharedMemory(create=True, size=nbytes)
                self._shms.append(shm)
                self._views.append(_shm_views(shm, layout))
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_shard_worker_main,
                    args=(child_conn, structure_to_dict(sub), config_kwargs,
                          spec, shm.name, layout),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._conns.append(parent_conn)
                self._procs.append(proc)
            for conn in self._conns:
                self._expect(conn, "ready")
        except BaseException:
            self.close()
            raise

    @staticmethod
    def _expect(conn: Connection, tag: str) -> Tuple[Any, ...]:
        reply = conn.recv()
        if reply[0] != tag:
            raise OptimizationError(
                f"shard worker protocol error: expected {tag!r}, "
                f"got {reply!r}"
            )
        return tuple(reply)

    def broadcast(self, *msg: Any) -> None:
        """Send ``msg`` to every worker and wait for all acks — the only
        per-round synchronization point (the boundary price exchange is
        empty by construction)."""
        for conn in self._conns:
            conn.send(msg)
        for conn in self._conns:
            self._expect(conn, "ok")

    def send_one(self, index: int, *msg: Any) -> None:
        self._conns[index].send(msg)
        self._expect(self._conns[index], "ok")

    def views(self, index: int) -> Dict[str, np.ndarray]:
        return self._views[index]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (OSError, ValueError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        # Views alias the mappings; release them before close/unlink.
        self._views = []
        for shm in self._shms:
            try:
                shm.close()
                shm.unlink()
            except (OSError, FileNotFoundError):  # pragma: no cover
                pass
        self._shms = []

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:  # statan: disable=REP003 -- __del__ must not raise
            pass


#: LLAConfig fields a shard worker needs (everything else is facade-level).
_WORKER_CONFIG_FIELDS = (
    "initial_resource_price", "initial_path_price", "congestion_tol",
    "max_latency_factor",
)


class ShardedEngine:
    """The :class:`VectorizedEngine` facade over a sharded plan.

    Exposes the same surface the optimizer drives (``step_arrays``,
    ``step``, ``reallocate``, ``path_prices_dict``, ``reset*``,
    ``refresh_model``) plus batched :meth:`iterate`; merged outputs are
    assembled in global canonical order, so on separable workloads every
    array and materialized value is bitwise-equal to the unsharded
    engine's.
    """

    def __init__(self, taskset: TaskSet, config: "LLAConfig",
                 policy: StepSizePolicy,
                 telemetry: Optional[Telemetry] = None,
                 structure: Optional[TaskSetStructure] = None) -> None:
        if structure is not None:
            if structure.taskset is not taskset:
                raise OptimizationError(
                    "precompiled structure is bound to a different task set"
                )
            if structure.max_latency_factor != float(config.max_latency_factor):
                raise OptimizationError(
                    "precompiled structure was built at "
                    f"max_latency_factor={structure.max_latency_factor!r}, "
                    f"config wants {config.max_latency_factor!r}"
                )
            self.structure = structure
        else:
            self.structure = compile_structure(
                taskset, max_latency_factor=config.max_latency_factor
            )
        self.config = config
        self.plan = plan_shards(self.structure, config.shards)
        self._inner: Optional[VectorizedEngine] = None
        self._engines: List[VectorizedEngine] = []
        self._pool: Optional[_ShardPool] = None
        if self.plan.n_shards == 1:
            # Single shard (requested or collapsed): the unsharded kernel
            # itself — identical by construction.
            self._inner = VectorizedEngine(
                taskset, config, policy, telemetry=telemetry,
                structure=self.structure,
            )
            return
        spec = gamma_spec(policy)
        # Each shard's global indices per index space, for the merge.
        self._scatter = [
            {
                "sub": np.asarray(shard.sub_ids, dtype=np.intp),
                "res": np.asarray(shard.resource_ids, dtype=np.intp),
                "path": np.asarray(shard.path_ids, dtype=np.intp),
                "task": np.asarray(shard.task_ids, dtype=np.intp),
            }
            for shard in self.plan.specs
        ]
        self._structures = [
            extract_shard(self.structure, shard) for shard in self.plan.specs
        ]
        if config.shard_mode == "processes":
            config_kwargs = {
                name: getattr(config, name) for name in _WORKER_CONFIG_FIELDS
            }
            self._pool = _ShardPool(
                self.plan, self._structures, config_kwargs, spec
            )
        else:
            self._engines = [
                VectorizedEngine.from_structure(
                    sub, config, make_gamma_supplier(spec, sub),
                    telemetry=telemetry,
                )
                for sub in self._structures
            ]

    # -- merge helpers ---------------------------------------------------------

    def _merge(self, outs: Sequence[Mapping[str, np.ndarray]]) -> StepArrays:
        """Scatter per-shard outputs into fresh arrays in global order."""
        s = self.structure
        sizes = {"sub": s.n_subtasks, "res": s.n_resources,
                 "path": s.n_paths, "task": len(s.task_names)}
        merged = {
            name: np.empty(sizes[per],
                           dtype=bool if dtype == "uint8" else np.float64)
            for name, per, dtype in _SHM_FIELDS
        }
        for index, out in zip(self._scatter, outs):
            for name, per, _dtype in _SHM_FIELDS:
                merged[name][index[per]] = out[name]
        return StepArrays(**merged)

    # -- facade ----------------------------------------------------------------

    def step_arrays(self) -> StepArrays:
        """One iteration on every shard, merged into global canonical
        order — on separable workloads bitwise-equal to the unsharded
        engine's :meth:`VectorizedEngine.step_arrays`."""
        if self._inner is not None:
            return self._inner.step_arrays()
        if self._pool is not None:
            self._pool.broadcast("step")
            return self._merge(
                [self._pool.views(i) for i in range(self.plan.n_shards)]
            )
        return self._merge([vars(e.step_arrays()) for e in self._engines])

    def step(self) -> EngineStep:
        """One iteration with every output in name-keyed form."""
        return EngineStep.of(self.structure, self.step_arrays())

    def iterate(self, n: int) -> None:
        """Run ``n`` iterations on every shard with a single sync point.

        Shards are component-disjoint, so no state is exchanged between
        iterations — this is where process-mode parallelism pays."""
        if n <= 0:
            return
        if self._inner is not None:
            self._inner.iterate(n)
        elif self._pool is not None:
            self._pool.broadcast("iterate", int(n))
        else:
            for engine in self._engines:
                engine.iterate(n)

    def reallocate(self, resource_prices: Mapping[str, float]) -> Dict[str, float]:
        if self._inner is not None:
            return self._inner.reallocate(resource_prices)
        s = self.structure
        merged: Dict[str, float] = {}
        if self._pool is not None:
            for i, shard in enumerate(self.plan.specs):
                local = {
                    s.resource_names[r]: float(
                        resource_prices.get(s.resource_names[r], 0.0)
                    )
                    for r in shard.resource_ids
                }
                self._pool.send_one(i, "reallocate", local)
                views = self._pool.views(i)
                names = [s.subtask_names[j] for j in shard.sub_ids]
                merged.update(zip(names, views["lat"].tolist()))
        else:
            for shard, engine in zip(self.plan.specs, self._engines):
                merged.update(engine.reallocate(resource_prices))
        # Re-key into global subtask order for a deterministic facade dict.
        return {name: merged[name] for name in s.subtask_names}

    def path_prices_dict(self) -> Dict[PathKey, float]:
        if self._inner is not None:
            return self._inner.path_prices_dict()
        s = self.structure
        lam = np.empty(s.n_paths)
        if self._pool is not None:
            for i, index in enumerate(self._scatter):
                lam[index["path"]] = self._pool.views(i)["lam"]
        else:
            for index, engine in zip(self._scatter, self._engines):
                lam[index["path"]] = engine.state_arrays()[2]
        return dict(zip(s.path_keys, lam.tolist()))

    def reset_step_sizes(self) -> None:
        if self._inner is not None:
            self._inner.reset_step_sizes()
        elif self._pool is not None:
            self._pool.broadcast("reset_step_sizes")
        else:
            for engine in self._engines:
                engine.reset_step_sizes()

    def reset_path_prices(self) -> None:
        if self._inner is not None:
            self._inner.reset_path_prices()
        elif self._pool is not None:
            self._pool.broadcast("reset_path_prices")
        else:
            for engine in self._engines:
                engine.reset_path_prices()

    def reset(self) -> None:
        if self._inner is not None:
            self._inner.reset()
        elif self._pool is not None:
            self._pool.broadcast("reset")
        else:
            for engine in self._engines:
                engine.reset()

    def refresh_model(self) -> None:
        """Re-read mutable model state and push it into every shard."""
        if self._inner is not None:
            self._inner.refresh_model()
            return
        self.structure.refresh_model()
        for i, (shard, sub) in enumerate(
                zip(self.plan.specs, self._structures)):
            arrays = _model_rows(self.structure, shard)
            sub.set_model_arrays(arrays)
            if self._pool is not None:
                self._pool.send_one(i, "set_model", arrays)

    def close(self) -> None:
        """Shut down worker processes and release shared memory."""
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:  # statan: disable=REP003 -- __del__ must not raise
            pass
