"""Batched numpy kernel for the LLA iteration.

``VectorizedEngine`` executes one LLA iteration — Eq. 9 path-price step
from the old latencies, Eq. 7 allocation (closed form for linear and inelastic tasks,
the exact batched solve of :func:`~repro.core.allocation.solve_concave`
for log and quadratic ones), Eq. 8 resource-price step, congestion
classification, step-size feedback, utility — as whole-array operations
over the structure precompiled by :mod:`repro.core.structure`.

The kernel is *trajectory-identical* to the paper's per-element loops
(:class:`~repro.core.allocation.LatencyAllocator` and the updaters of
:mod:`repro.core.prices`), not just approximately equal: every reduction
is ordered like its per-element counterpart (see the structure module's
layout notes), arithmetic uses the same expression shapes, and the
free-resource / zero-pull special cases of
:func:`~repro.core.allocation.stationary_latency` are reproduced as masks.
That matters because the adaptive step-size heuristic branches on strict
comparisons (``load > B_r + tol``): a one-ulp difference in a load flips a
doubling decision and the runs diverge visibly.  Parity tests assert
bitwise-equal traces over full figure runs against a per-element
reference kept with the tests.

Step-size handling: :class:`FixedStepSize` folds to two scalars;
:class:`AdaptiveStepSize`, and the default policy (``step_policy=None``),
are re-implemented as array updates with engine-owned γ state (a policy
object is read for its parameters only).  Only those two exact types
fold; any other policy raises :class:`~repro.errors.OptimizationError`
at construction.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Deque, Dict, Mapping, Optional, Tuple, Union,
)

import numpy as np

from repro.errors import OptimizationError, ShareError
from repro.core.allocation import closed_form_latencies, solve_concave
from repro.core.phases import PhaseTimers
from repro.core.state import IterationRecord, PathKey
from repro.core.stepsize import (
    DEFAULT_GROWTH, DEFAULT_MAX_GAMMA, AdaptiveStepSize, FixedStepSize,
)
from repro.core.structure import (
    UTILITY_INELASTIC,
    UTILITY_LINEAR,
    UTILITY_LOG,
    UTILITY_QUADRATIC,
    TaskSetStructure,
    compile_structure,
)
from repro.model.summation import sequential_sum
from repro.model.task import TaskSet
from repro.model.utility import LogUtility
from repro.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.core.optimizer import LLAConfig

__all__ = [
    "VectorizedEngine",
    "EngineStep",
    "StepArrays",
    "ArrayRecord",
    "NAMED_FIELDS",
    "named_field",
    "arrays_feasible",
    "ObservedAssignment",
    "compute_loads",
    "path_latencies",
    "critical_path_latencies",
    "task_utilities",
    "task_utility",
    "observe_assignment",
]

@dataclass
class StepArrays:
    """One iteration's outputs in array form (no dict materialization).

    ``mu``/``lam`` are the engine's dual state after the iteration.  The
    engine replaces those arrays on every update and reset instead of
    writing into them, so a ``StepArrays`` keeps its own iteration's
    values for as long as it is held.  This is what the optimizer's run
    loop consumes — materializing the name-keyed dicts costs more than
    the arithmetic at 10k+ subtasks.

    Only what the iteration itself needs is computed per step.  The
    per-task critical-path latencies are not a field: a reader gets them
    from ``path_lat`` through :func:`critical_path_latencies` (the
    ``critical_paths`` :func:`named_field`), and ``path_lat`` doubles as
    the next step's Eq. 9 path sums.
    """

    lat: np.ndarray          #: per-subtask latencies, shape (S,)
    mu: np.ndarray           #: resource prices, shape (R,)
    lam: np.ndarray          #: path prices, shape (P,)
    loads: np.ndarray        #: per-resource loads, shape (R,)
    path_lat: np.ndarray     #: per-path latency sums, shape (P,)
    cong_r: np.ndarray       #: congested-resource mask, shape (R,) bool
    cong_p: np.ndarray       #: congested-path mask, shape (P,) bool
    per_task: np.ndarray     #: per-task utilities, shape (T,)

    def utility(self) -> float:
        """Σ_i U_i, summed left to right in task order by
        :func:`~repro.model.summation.sequential_sum`, as
        ``TaskSet.total_utility`` sums it."""
        return sequential_sum(self.per_task)


#: The :class:`IterationRecord` fields that exist only in name-keyed form.
NAMED_FIELDS = (
    "latencies", "resource_prices", "path_prices", "resource_loads",
    "congested_resources", "congested_paths", "critical_paths",
)


def named_field(structure: TaskSetStructure, out: StepArrays,
                name: str) -> Any:
    """The name-keyed form of one :data:`NAMED_FIELDS` entry of ``out``.

    The one place iteration arrays become dicts and name tuples: the
    engine's :meth:`~VectorizedEngine.step` and the optimizer's lazy
    :class:`ArrayRecord` both build their fields here.
    """
    s = structure
    if name == "latencies":
        return dict(zip(s.subtask_names, out.lat.tolist()))
    if name == "resource_prices":
        return dict(zip(s.resource_names, out.mu.tolist()))
    if name == "path_prices":
        return dict(zip(s.path_keys, out.lam.tolist()))
    if name == "resource_loads":
        return dict(zip(s.resource_names, out.loads.tolist()))
    if name == "congested_resources":
        return tuple(s.resource_names[i] for i in np.flatnonzero(out.cong_r))
    if name == "congested_paths":
        return tuple(s.path_keys[i] for i in np.flatnonzero(out.cong_p))
    if name == "critical_paths":
        return dict(zip(s.task_names, critical_path_latencies(
            s, out.path_lat).tolist()))
    raise OptimizationError(f"no name-keyed iteration field {name!r}")


@dataclass
class EngineStep:
    """One iteration's outputs with every field in name-keyed form, as
    the engine's ``step()`` returns them."""

    utility: float
    latencies: Dict[str, float]
    resource_prices: Dict[str, float]
    path_prices: Dict[PathKey, float]
    resource_loads: Dict[str, float]
    congested_resources: Tuple[str, ...]
    congested_paths: Tuple[PathKey, ...]
    critical_paths: Dict[str, float]

    @classmethod
    def of(cls, structure: TaskSetStructure, out: StepArrays) -> "EngineStep":
        """Every field of ``out``, built eagerly."""
        return cls(utility=out.utility(), **{
            name: named_field(structure, out, name) for name in NAMED_FIELDS
        })


class ArrayRecord(IterationRecord):
    """An :class:`IterationRecord` backed by one iteration's arrays.

    ``iteration`` and ``utility`` are stored; each :data:`NAMED_FIELDS`
    entry is built by :func:`named_field` the first time it is read and
    then kept, so a run loop that reads no record builds no dicts.  The
    record holds its own :class:`StepArrays`, whose arrays the engine never
    writes into, so it reads the same after later steps, ``reset()`` or
    ``adopt_prices()``.
    """

    def __init__(self, iteration: int, utility: float,
                 structure: TaskSetStructure, arrays: StepArrays) -> None:
        self.iteration = iteration
        self.utility = utility
        self.structure = structure
        self.arrays = arrays

    def __getattr__(self, name: str) -> Any:
        # Reached only for attributes not set yet: the unread fields.
        if name not in NAMED_FIELDS:
            raise AttributeError(name)
        value = named_field(self.structure, self.arrays, name)
        setattr(self, name, value)
        return value


def arrays_feasible(structure: TaskSetStructure, loads: np.ndarray,
                    path_lat: np.ndarray, tol: float) -> bool:
    """``TaskSet.is_feasible(latencies, tol)`` from one assignment's loads
    and path latency sums (Eqs. 3–4 within ``tol``).

    The share and path-sum arithmetic is that of
    ``TaskSet.constraint_violations``; only the order in which a
    resource's load accumulates can differ (canonical versus declaration
    order), which matters only within one ulp of ``B_r + tol``.
    """
    return not (bool((loads > structure.availability + tol).any())
                or bool((path_lat > structure.path_crit + tol).any()))


class _FixedGammas:
    """γ supplier for an exact :class:`FixedStepSize` (two constants)."""

    def __init__(self, resource_gamma: float, path_gamma: float) -> None:
        self._gr = float(resource_gamma)
        self._gp = float(path_gamma)

    def resource_gammas(self) -> float:
        return self._gr

    def path_gammas(self) -> float:
        return self._gp

    def observe(self, cong_r: np.ndarray, cong_p: np.ndarray) -> None:
        pass

    def reset(self) -> None:
        pass


#: The most congestion masks :class:`_AdaptiveGammas` holds unapplied.
_MAX_PENDING = 64


def _saturation_depth(initial: float, growth: float, cap: float) -> int:
    """K: how many consecutive escalations ``min(γ·growth, cap)`` take γ
    from ``initial`` to ``cap``, counted with that arithmetic and at most
    to ``_MAX_PENDING + 1``."""
    depth, gamma = 0, initial
    while gamma < cap and depth <= _MAX_PENDING:
        gamma = min(gamma * growth, cap)
        depth += 1
    return depth


class _AdaptiveGammas:
    """Array form of :meth:`AdaptiveStepSize.observe`.

    Owns the γ vectors itself; the policy object is not consulted per
    iteration (its dict state stays at the initial γ).

    γ_r is escalated on every :meth:`observe`: Eq. 8 reads it every step.
    γ_p is read only by Eq. 9, which the engine skips while the path
    prices are idle, so :meth:`observe` queues the masks and
    :meth:`path_gammas` replays them in order.  The queue keeps the last
    K masks (:func:`_saturation_depth`).  That is exact: after K masks, a
    path state is either saturated or counted up from the initial γ since
    its last inactive step, whatever it was before them.  When K exceeds
    ``_MAX_PENDING``, a full queue applies its oldest mask before taking
    a new one.
    """

    def __init__(self, initial_gamma: float, growth: float, max_gamma: float,
                 structure: TaskSetStructure) -> None:
        self._initial = float(initial_gamma)
        self._growth = float(growth)
        self._max = float(max_gamma)
        self._pr_path = structure.pr_path
        self._pr_res = structure.pr_res
        self._gr = np.full(structure.n_resources, self._initial)
        self._gp = np.full(structure.n_paths, self._initial)
        self._cover = np.full(structure.n_paths, self._initial)
        self._direct = np.full(structure.n_paths, self._initial)
        depth = _saturation_depth(self._initial, self._growth, self._max)
        self._pending: Deque[Tuple[np.ndarray, np.ndarray]] = deque(
            maxlen=min(depth, _MAX_PENDING))
        self._apply_oldest = depth > _MAX_PENDING

    def resource_gammas(self) -> np.ndarray:
        return self._gr

    def path_gammas(self) -> np.ndarray:
        """γ_p after every observed step: the queued masks applied."""
        pending = self._pending
        if pending:
            for cong_r, cong_p in pending:
                self._escalate_paths(cong_r, cong_p)
            pending.clear()
            # An inactive trigger sits at the initial γ, and an active one
            # never below it (growth > 1 and max ≥ initial, both validated
            # by AdaptiveStepSize), so the larger of the two is the
            # largest active escalation, or the initial γ when neither is
            # active.
            self._gp = np.maximum(self._cover, self._direct)
        return self._gp

    def observe(self, cong_r: np.ndarray, cong_p: np.ndarray) -> None:
        self._gr = np.where(
            cong_r, np.minimum(self._gr * self._growth, self._max),
            self._initial,
        )
        pending = self._pending
        if self._apply_oldest and len(pending) == pending.maxlen:
            self._escalate_paths(*pending.popleft())
        pending.append((cong_r, cong_p))

    def _escalate_paths(self, cong_r: np.ndarray, cong_p: np.ndarray) -> None:
        # Two independent escalation states per path (resource coverage
        # vs direct constraint violation).  A path is covered when any of
        # its (path, resource) incidence pairs names a congested resource.
        # np.compress picks the same paths as boolean indexing, at a third
        # of its cost when many resources are congested.
        covered = np.zeros(self._cover.shape, dtype=bool)
        covered[np.compress(cong_r[self._pr_res], self._pr_path)] = True
        self._cover = np.where(
            covered, np.minimum(self._cover * self._growth, self._max),
            self._initial,
        )
        self._direct = np.where(
            cong_p, np.minimum(self._direct * self._growth, self._max),
            self._initial,
        )

    def reset(self) -> None:
        self._gr = np.full_like(self._gr, self._initial)
        self._gp = np.full_like(self._gp, self._initial)
        self._cover = np.full_like(self._cover, self._initial)
        self._direct = np.full_like(self._direct, self._initial)
        self._pending.clear()


#: The union of γ supplier implementations.
GammaSupplier = Union["_FixedGammas", "_AdaptiveGammas"]


def _make_gammas(config: "LLAConfig",
                 structure: TaskSetStructure) -> GammaSupplier:
    policy = config.step_policy
    if policy is None:  # the paper's adaptive policy at initial_gamma
        return _AdaptiveGammas(config.initial_gamma, DEFAULT_GROWTH,
                               DEFAULT_MAX_GAMMA, structure)
    # Exact types only: a subclass may override behaviour the array
    # forms do not reproduce.
    if type(policy) is FixedStepSize:
        return _FixedGammas(
            policy.resource_gamma(structure.resource_names[0]),
            policy.path_gamma(structure.path_keys[0]),
        )
    if type(policy) is AdaptiveStepSize:
        return _AdaptiveGammas(
            policy.initial_gamma, policy.growth, policy.max_gamma, structure
        )
    raise OptimizationError(
        "LLA supports only FixedStepSize/AdaptiveStepSize step policies, "
        f"got {type(policy).__name__}"
    )


class VectorizedEngine:
    """Array-state LLA iteration over a compiled task set: ``problem``
    is a :class:`TaskSetStructure` built at ``config.max_latency_factor``,
    or a :class:`TaskSet`, compiled here.

    The engine owns the dual state (``μ`` per resource, ``λ`` per path) and
    the primal iterate (latency per subtask) as float64 arrays, and
    replaces rather than overwrites them, so the :class:`StepArrays` it
    hands out stay valid.  Beside the latencies it keeps their path sums
    from the last step, which the next step's Eq. 9 update reads; they
    are dropped whenever the latencies are replaced outside a step.
    While the path prices are idle (every λ is +0.0 and every kept path
    sum is at most its critical time), Eq. 9 would leave every λ at +0.0,
    so a step skips it and the λ gather.  The optimizer facade runs on
    :meth:`step_arrays`; :meth:`step` materializes an
    :class:`EngineStep` for callers that want dicts.
    Model mutations (error correction, ``set_availability``) require
    :meth:`refresh_model` with the mutated task set, same contract as
    :meth:`LatencyAllocator.refresh_bounds`.
    """

    def __init__(self, problem: Union[TaskSetStructure, TaskSet],
                 config: "LLAConfig",
                 telemetry: Optional[Telemetry] = None) -> None:
        if isinstance(problem, TaskSetStructure):
            if problem.max_latency_factor != float(config.max_latency_factor):
                raise OptimizationError(
                    "precompiled structure was built at "
                    f"max_latency_factor={problem.max_latency_factor!r}, "
                    f"config wants {config.max_latency_factor!r}"
                )
            self.structure = problem
        else:
            self.structure = compile_structure(
                problem, max_latency_factor=config.max_latency_factor
            )
        self.config = config
        self._gammas = _make_gammas(config, self.structure)
        self._telemetry = telemetry
        self._phases: Optional[PhaseTimers] = None
        #: ``Σ_{p ∋ s} λ_p`` per subtask while every λ is +0.0.
        self._zero_lam_sum = np.zeros(self.structure.n_subtasks)
        self._idle_path_step = False
        #: path sums of ``_lat`` kept from the last step; ``None`` until
        #: a step computes them.
        self._path_lat: Optional[np.ndarray] = None
        # μ, λ and the latencies: the initial duals and Eq. 7 at them.
        self.reset()

    def _phase_timers(self) -> Optional[PhaseTimers]:
        """Phase timers while metrics are collected; ``None`` when off."""
        if self._telemetry is None or not self._telemetry.registry.enabled:
            return None
        if self._phases is None:
            self._phases = PhaseTimers(self._telemetry)
        return self._phases

    # -- allocation (Eq. 7) -----------------------------------------------------

    def _allocate(self) -> np.ndarray:
        """Eq. 7 at the current duals: the closed form for every row, then
        the exact solve over the log/quadratic tasks' rows (skipped when
        the structure has none).  While every λ is +0.0 the pull is
        ``pull_base`` itself: it is never −0.0, so adding the zero λ sums
        would not change a bit."""
        s = self.structure
        if self._lam_idle:
            lam_sum = self._zero_lam_sum
            pull = s.pull_base
        else:
            lam_sum = np.bincount(
                s.sub_ids_flat, weights=self._lam[s.sub_path_flat],
                minlength=s.n_subtasks,
            )
            pull = s.pull_base + lam_sum
        price = self._mu[s.sub_resource]
        lat = closed_form_latencies(s, price, pull)
        block = s.concave
        if block is not None:
            rows = block.subs
            lat[rows] = solve_concave(block, price[rows], lam_sum[rows])
        return lat

    # -- load model (Eq. 3 LHS) -------------------------------------------------

    def _loads(self, lat: np.ndarray) -> np.ndarray:
        """Per-resource share sums at the given latencies."""
        return compute_loads(self.structure, lat)

    # -- one iteration ----------------------------------------------------------

    def step_arrays(self) -> StepArrays:
        """One LLA iteration in array form, phase by phase as the paper's
        two algorithm boxes run it.  :meth:`step` materializes the dict facade on top;
        the optimizer stays here."""
        s = self.structure
        tol = self.config.congestion_tol
        phases = self._phase_timers()
        mark = time.perf_counter() if phases is not None else 0.0

        # (1) Path prices from the *previous* latencies (Eq. 9), then the
        # batched stationarity solve at old μ / new λ (Eq. 7).  The path
        # sums are the last step's, unless the latencies were replaced
        # since.  From λ = +0.0 and path_lat ≤ C, Eq. 9 gives
        # max(0, 0 − γ_p·(1 − ratio)) = +0.0 for every finite γ_p > 0, so
        # idle path prices skip it (a NaN sum is never slack).
        path_lat = self._path_lat
        if path_lat is None:
            path_lat = path_latencies(s, self._lat)
        self._idle_path_step = self._lam_idle and \
            bool((path_lat <= s.path_crit).all())
        if not self._idle_path_step:
            gp = self._gammas.path_gammas()
            self._lam = np.maximum(
                0.0, self._lam - gp * (1.0 - path_lat / s.path_crit)
            )
            self._lam_idle = _all_positive_zero(self._lam)
        if phases is not None:
            mark = phases.lap("path_update", mark)
        lat = self._allocate()
        self._lat = lat
        if phases is not None:
            mark = phases.lap("allocate", mark)

        # (2) Resource prices from the new latencies (Eq. 8).
        loads = self._loads(lat)
        gr = self._gammas.resource_gammas()
        self._mu = np.maximum(0.0, self._mu - gr * (s.availability - loads))
        if phases is not None:
            mark = phases.lap("price_update", mark)

        # (3) Congestion classification + step-size feedback on the masks.
        cong_r = loads > s.availability + tol
        path_lat_new = path_latencies(s, lat)
        self._path_lat = path_lat_new
        cong_p = path_lat_new > s.path_crit + tol
        self._gammas.observe(cong_r, cong_p)
        if phases is not None:
            phases.lap("classify", mark)

        # Utility (Eq. 2): per-task aggregated latency through the task's
        # utility; summed in task order by StepArrays.utility().
        agg = np.bincount(
            s.sub_task_ids, weights=s.weights * lat,
            minlength=len(s.task_names),
        )
        per_task = task_utilities(s, agg)

        return StepArrays(
            lat=lat, mu=self._mu, lam=self._lam, loads=loads,
            path_lat=path_lat_new, cong_r=cong_r, cong_p=cong_p,
            per_task=per_task,
        )

    def step(self) -> EngineStep:
        """One LLA iteration with every output in name-keyed form."""
        return EngineStep.of(self.structure, self.step_arrays())

    @property
    def idle_path_step(self) -> bool:
        """Whether the last step found the path prices idle and skipped
        its Eq. 9 update (``False`` before the first step)."""
        return self._idle_path_step

    # -- facade support ---------------------------------------------------------

    @property
    def mu(self) -> np.ndarray:
        """The resource prices μ, shape (R,); replaced, never written
        into."""
        return self._mu

    @property
    def lat(self) -> np.ndarray:
        """The primal iterate, latency per subtask, shape (S,); replaced,
        never written into."""
        return self._lat

    def path_prices_dict(self) -> Dict[PathKey, float]:
        return dict(zip(self.structure.path_keys, self._lam.tolist()))

    def adopt_prices(self, resource_prices: Mapping[str, float]) -> None:
        """Install ``resource_prices`` as μ and restart from it: λ and γ
        back to their initial values, then Eq. 7 once.  A resource the
        map leaves out keeps its current price; a name the structure does
        not price raises :class:`~repro.errors.OptimizationError` before
        anything changes."""
        names = self.structure.resource_names
        unknown = sorted(set(resource_prices).difference(names))
        if unknown:
            raise OptimizationError(
                f"adopt_prices got prices for unknown resources {unknown!r}"
            )
        self._restart(np.array([
            float(resource_prices.get(rname, price))
            for rname, price in zip(names, self._mu.tolist())
        ]))

    def reset(self) -> None:
        """Back to the initial duals and step sizes, then Eq. 7 once."""
        self._restart(np.full(self.structure.n_resources,
                              float(self.config.initial_resource_price)))

    def _restart(self, mu: np.ndarray) -> None:
        """μ ← ``mu``, λ and every γ escalation back to their initial
        values, and the primal iterate re-solved at these duals.  Fresh
        arrays, never a ``fill``: records of earlier iterations still
        hold the old ones."""
        self._mu = mu
        self._lam = np.full(self.structure.n_paths,
                            float(self.config.initial_path_price))
        self._lam_idle = _all_positive_zero(self._lam)
        self._gammas.reset()
        # The kept path sums belong to the old latencies.
        self._lat = self._allocate()
        self._path_lat = None

    def refresh_model(self, taskset: TaskSet) -> None:
        """Re-read mutable model state (share functions, availabilities)
        from the task set the structure was compiled from.  The kept
        path sums and the idle flag stay: neither the latencies,
        λ, the path incidence nor the critical times change."""
        self.structure.refresh_model(taskset)


def _all_positive_zero(values: np.ndarray) -> bool:
    """Whether every entry is +0.0, compared by bit pattern.  −0.0 is not
    idle: Eq. 9 from λ = −0.0 can write +0.0, so skipping it would keep
    the wrong sign bit (``np.maximum(0.0, -0.0)`` is −0.0)."""
    return not values.view(np.uint64).any()


# -- structure-level observation ------------------------------------------------
#
# Everything below reads a compiled TaskSetStructure plus a latency
# assignment and computes the global quantities the TaskSet API
# derives by traversing the object graph (resource_loads, total_utility,
# critical_path, is_feasible).  Observers that already hold a structure —
# the distributed runtime's omniscient snapshot, the service's query path —
# use these instead of re-walking tasks per round (REP016).


def compute_loads(structure: TaskSetStructure, lat: np.ndarray) -> np.ndarray:
    """Per-resource share sums at the given latencies (Eq. 3 LHS).

    Bitwise-equal to summing ``TaskSet.resource_load`` per resource when
    the task set is declared in canonical (name-sorted) order: the
    ``bincount`` accumulates shares in subtask order, which is exactly the
    per-resource loop's visit order.
    """
    s = structure
    model_lat = lat
    if s.any_error:
        model_lat = lat - s.err
        if np.any(model_lat <= 0.0):
            idx = int(np.argmax(model_lat <= 0.0))
            raise ShareError(
                f"corrected latency {lat[idx]!r} of subtask "
                f"{s.subtask_names[idx]!r} with error {s.err[idx]!r} maps "
                "to a non-positive model latency"
            )
    if s.all_hyperbolic:
        shares = s.cost / model_lat
    else:
        shares = np.where(
            s.hyper_mask,
            s.cost / model_lat,
            s.cost / model_lat ** s.alpha,
        )
    return np.bincount(
        s.sub_resource, weights=shares, minlength=s.n_resources
    )


def path_latencies(structure: TaskSetStructure,
                   lat: np.ndarray) -> np.ndarray:
    """Per-path latency sums (Eq. 4 LHS), each path's subtasks added in
    path order."""
    s = structure
    return np.bincount(
        s.path_ids_flat, weights=lat[s.path_sub_flat], minlength=s.n_paths,
    )


def critical_path_latencies(structure: TaskSetStructure,
                            path_lat: np.ndarray) -> np.ndarray:
    """Per-task critical-path latencies: the max over each task's path
    sums.  Observational only — records and observers read them, the
    iteration does not."""
    return np.maximum.reduceat(path_lat, structure.task_path_starts)


#: ``log(eps)`` of the log utility's linear extension, as
#: :meth:`LogUtility.value` computes it.
_LOG_EPS = LogUtility.EXTENSION_EPS
_LOG_OF_EPS = math.log(_LOG_EPS)


# U_i(A) per utility kind, over task rows ``t`` of a structure: an index
# array (or ``slice(None)``) with the matching ``agg`` array, or one task
# index with its aggregated latency.  Linear, inelastic and quadratic
# values are bitwise those of Task.utility_value; a log value goes through
# numpy's log, which can differ from math.log in the last ulp.


def _linear_value(s: TaskSetStructure, t: Any, agg: Any) -> Any:
    return s.ut_kc[t] - s.ut_slope[t] * agg


def _inelastic_value(s: TaskSetStructure, t: Any, agg: Any) -> Any:
    return np.where(agg <= s.ut_crit[t], s.ut_umax[t], 0.0)


def _log_value(s: TaskSetStructure, t: Any, agg: Any) -> Any:
    scale = s.ut_scale[t]
    arg = 1.0 + (s.ut_crit[t] - agg) / s.ut_soft[t]
    return np.where(
        arg >= _LOG_EPS,
        scale * np.log(np.maximum(arg, _LOG_EPS)),
        scale * (_LOG_OF_EPS + (arg - _LOG_EPS) / _LOG_EPS),
    )


def _quadratic_value(s: TaskSetStructure, t: Any, agg: Any) -> Any:
    return s.ut_umax[t] - s.ut_curv[t] * agg ** 2


_UTILITY_VALUE = {
    UTILITY_LINEAR: _linear_value,
    UTILITY_INELASTIC: _inelastic_value,
    UTILITY_LOG: _log_value,
    UTILITY_QUADRATIC: _quadratic_value,
}


def task_utilities(structure: TaskSetStructure,
                   agg: np.ndarray) -> np.ndarray:
    """Per-task utilities ``U_i(A_i)`` from the compiled utility arrays,
    given every task's aggregated latency (the kernel's step and
    :func:`observe_assignment`)."""
    groups = structure.kind_rows
    if len(groups) == 1:
        return _UTILITY_VALUE[groups[0][0]](structure, slice(None), agg)
    out = np.empty(len(agg))
    for kind, rows in groups:
        out[rows] = _UTILITY_VALUE[kind](structure, rows, agg[rows])
    return out


def task_utility(structure: TaskSetStructure, t: int, agg: float) -> float:
    """Task ``t``'s utility at aggregated latency ``agg``: the formula of
    :func:`task_utilities`, on one task (the service's query path)."""
    return float(_UTILITY_VALUE[int(structure.ut_kind[t])](structure, t, agg))


@dataclass
class ObservedAssignment:
    """Global facts about one latency assignment, in array form."""

    lat: np.ndarray          #: per-subtask latencies, shape (S,)
    loads: np.ndarray        #: per-resource loads, shape (R,)
    path_lat: np.ndarray     #: per-path latency sums, shape (P,)
    cong_r: np.ndarray       #: congested-resource mask, shape (R,) bool
    cong_p: np.ndarray       #: congested-path mask, shape (P,) bool
    per_task: np.ndarray     #: per-task utilities, shape (T,)
    crit: np.ndarray         #: per-task critical-path latencies, shape (T,)
    utility: float           #: Σ_i U_i, summed left to right in task order

    def feasible(self) -> bool:
        """Whether the assignment satisfies Eqs. 3–4 at the mask tol."""
        return not (bool(self.cong_r.any()) or bool(self.cong_p.any()))


def observe_assignment(structure: TaskSetStructure,
                       latencies: Mapping[str, float],
                       tol: float = 1e-9) -> ObservedAssignment:
    """Measure a latency assignment against the compiled model.

    ``tol`` is the slack used for the congestion/feasibility masks (the
    distributed observer uses 1e-9 per round and 1e-2 for the final
    feasibility verdict, like ``TaskSet.is_feasible``).
    """
    s = structure
    lat = np.array([latencies[name] for name in s.subtask_names])
    loads = compute_loads(s, lat)
    cong_r = loads > s.availability + tol
    path_lat = path_latencies(s, lat)
    cong_p = path_lat > s.path_crit + tol
    agg = np.bincount(
        s.sub_task_ids, weights=s.weights * lat,
        minlength=len(s.task_names),
    )
    per_task = task_utilities(s, agg)
    return ObservedAssignment(
        lat=lat, loads=loads, path_lat=path_lat, cong_r=cong_r,
        cong_p=cong_p, per_task=per_task,
        crit=critical_path_latencies(s, path_lat),
        utility=sequential_sum(per_task),
    )
