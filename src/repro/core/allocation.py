"""Latency allocation: the per-task-controller step of LLA (Section 4.2).

Given resource prices ``μ_r`` and path prices ``λ_p``, each task controller
finds the subtask latencies maximizing the task-local Lagrangian

    L_i(lat) = U_i(lat) − Σ_s (Σ_{p ∋ s} λ_p) · lat_s − Σ_s μ_r(s) · share(s, lat_s)

over the box ``[lat_min_s, lat_max_s]``, where ``lat_min_s`` is the smallest
latency achievable with the full resource availability and ``lat_max_s``
defaults to the task's critical time (one subtask alone may not exceed any
path budget it sits on).

Two solve strategies, over the kernel's model family
(:func:`~repro.core.structure.task_model`):

* **Closed form** (the paper's experimental configuration): with a linear
  utility ``∂U_i/∂lat_s`` is the constant ``−w_s·slope``, so stationarity
  (Eq. 7) decouples per subtask into

      μ_r · (−dshare/dlat)(lat_s) = w_s·slope + Σ_{p ∋ s} λ_p

  which power-law share functions invert analytically.

* **Exact concave solve** (:func:`solve_concave`) for log and quadratic
  utilities: the task's utility depends on its latencies only through
  the aggregate ``A = Σ_s w_s·lat_s`` (§3.2), so given ``g = −U′(A)`` each
  subtask has the closed form above with ``w_s·g`` as its utility pull.
  ``A`` is then the unique root of the strictly decreasing
  ``h(A) = Σ_s w_s·clip(lat_s(g(A))) − A`` on ``[Σ w·lo, Σ w·hi]``,
  found by a safeguarded Newton iteration batched over tasks; the
  clipped closed form at that root is the exact box maximizer of the
  task-local Lagrangian.  The vectorized kernel and this module's
  :class:`LatencyAllocator` call the same function, so on hyperbolic
  shares both produce the same bits.  On power-law shares (α ≠ 1) numpy's
  vectorized ``**`` can round one ulp differently over the kernel's long
  rows than over one task's, so the two agree within one ulp.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional

import numpy as np

from repro.core.state import PathKey
from repro.core.structure import (
    UTILITY_LOG,
    ConcaveBlock,
    TaskSetStructure,
    task_model,
)
from repro.errors import OptimizationError
from repro.model.share import (
    CorrectedShare,
    HyperbolicShare,
    PowerLawShare,
    ShareFunction,
)
from repro.model.task import Task, TaskSet
from repro.model.utility import LinearUtility, LogUtility

__all__ = [
    "LatencyAllocator",
    "stationary_latency",
    "closed_form_latencies",
    "solve_concave",
]

#: Numerical floor for the "pull" (marginal latency cost); keeps the closed
#: form finite when a subtask experiences no utility pressure and no path
#: price (it then drifts to its maximum latency, as the clamp dictates).
_PULL_FLOOR = 1e-12

#: Newton steps after which :func:`solve_concave` stops a task that has not
#: frozen.  A safety cap, not the typical count: the safeguard at least
#: halves the step or the bracket every two steps, and tasks freeze after
#: a handful of steps.
_NEWTON_MAX_STEPS = 120

#: A task freezes once its next Newton or bisection step would move ``A``
#: by at most this relative amount (a few ulps).
_NEWTON_RTOL = 4.0 * float(np.finfo(np.float64).eps)

#: Below this slack argument the log utility is linearly extended (see
#: :class:`~repro.model.utility.LogUtility`); its marginal cost is flat there.
_LOG_EPS = LogUtility.EXTENSION_EPS


def stationary_latency(share_fn: ShareFunction, price: float,
                       pull: float) -> float:
    """Solve ``price · (−dshare/dlat)(lat) = pull`` for ``lat``.

    ``pull`` is the marginal cost of latency (utility slope plus path
    prices); ``price`` is the resource price ``μ_r``.  Solves the
    power-law family analytically, the kernel's model family
    (:func:`~repro.core.structure.task_model`); any other share function
    raises :class:`~repro.errors.OptimizationError` naming its class.
    """
    if price <= 0.0:
        # Free resource: latency wants to shrink to its lower clamp.
        return 0.0
    if pull <= _PULL_FLOOR:
        # No pressure to be fast: latency wants to grow to its upper clamp.
        return math.inf

    if isinstance(share_fn, CorrectedShare):
        return share_fn.error + stationary_latency(share_fn.base, price, pull)
    if isinstance(share_fn, HyperbolicShare):
        return math.sqrt(price * share_fn.cost / pull)
    if isinstance(share_fn, PowerLawShare):
        alpha, cost = share_fn.alpha, share_fn.cost
        return (price * alpha * cost / pull) ** (1.0 / (alpha + 1.0))

    raise OptimizationError(
        f"LLA does not support share function {type(share_fn).__name__}: "
        "its model is power-law shares with linear, inelastic, log or "
        "quadratic utilities"
    )


def _power_law_raw(arg: np.ndarray, hyper_mask: np.ndarray,
                   inv_exp: np.ndarray, all_hyper: bool) -> np.ndarray:
    """``arg ** (1/(α+1))`` per row, with the hyperbolic rows (α = 1) as
    exact square roots."""
    if all_hyper:
        return np.sqrt(arg)
    raw = np.empty_like(arg)
    np.sqrt(arg, out=raw, where=hyper_mask)
    pw = ~hyper_mask
    raw[pw] = arg[pw] ** inv_exp[pw]
    return raw


def closed_form_latencies(s: TaskSetStructure, price: np.ndarray,
                          pull: np.ndarray) -> np.ndarray:
    """:func:`stationary_latency` per subtask row of ``s``, clamped to
    ``[lo, hi]``, given each row's resource price and pull.

    A pass that cannot change a row is skipped: the correction offset
    when no share is corrected (the roots are non-negative, so
    ``0.0 + raw`` is ``raw``), and each special-case ``where`` when no
    row is free or slack.
    """
    with np.errstate(all="ignore"):
        lat = _power_law_raw(price * s.alpha * s.cost / pull, s.hyper_mask,
                             s.inv_exp, s.all_hyperbolic)
    if s.any_error:
        lat = s.err + lat
    # Same precedence as stationary_latency: a free resource wins over
    # a zero pull, and both are applied before the correction offset is
    # even considered (stationary_latency returns early).
    slack = pull <= _PULL_FLOOR
    if slack.any():
        lat = np.where(slack, np.inf, lat)
    free = price <= 0.0
    if free.any():
        lat = np.where(free, 0.0, lat)
    # np.clip's bits (lat is never NaN or -0.0 here) at a third of its
    # per-call cost; solve_concave clamps the same way.
    return np.minimum(np.maximum(lat, s.lo), s.hi)


def solve_concave(block: ConcaveBlock, price: np.ndarray,
                  lam_sum: np.ndarray) -> np.ndarray:
    """Exact Eq. 7 latencies of the block's log and quadratic tasks.

    ``price`` is ``μ_r`` of each row's resource and ``lam_sum`` the row's
    ``Σ_{p ∋ s} λ_p``.  For every task, a safeguarded Newton iteration
    finds the root ``A`` of ``h(A) = Σ_s w_s·lat_s(A) − A`` inside the
    bracket ``[Σ w·lo, Σ w·hi]``, where ``lat_s(A)`` is the clamped closed
    form at utility pull ``w_s·g(A)``, ``g = −U′``; ``h`` is strictly
    decreasing (``h′ ≤ −1``), so the root is unique.

    The safeguard is that of Numerical Recipes' ``rtsafe``: a Newton step
    is replaced by bisection when it leaves the bracket or is not at most
    half the step before last.  A step landing exactly on a bracket end
    is kept while that end is still the initial bound (the root can sit
    there, e.g. when every row is clamped), but not once ``h`` has been
    evaluated there: ``h`` is not zero at such an end, and returning to
    it would cycle across a clamp kink.  A task freezes once its Newton
    step (or its bisection step) falls below a few ulps of ``A``, or after
    :data:`_NEWTON_MAX_STEPS`, and is never moved again, so each task's
    result is the same whichever tasks share the call.  Returns the
    latencies of the rows at the tasks' final ``A``.
    """
    b = block
    n_tasks = len(b.lo_sum)
    task_of = b.task_of
    free = price <= 0.0
    pac = price * b.alpha * b.cost
    a_lo = b.lo_sum
    a_hi = b.hi_sum
    lo_seen = np.zeros(n_tasks, dtype=bool)
    hi_seen = np.zeros(n_tasks, dtype=bool)
    A = 0.5 * (a_lo + a_hi)
    # The last step and the one before (rtsafe's dx and dxold).
    last = prev = a_hi - a_lo
    # A degenerate (or infinite) bracket has nothing to solve.
    done = ~(a_hi > a_lo)
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_MAX_STEPS):
            # g = −U′(A) per task and its derivative; the log utility's
            # marginal cost is flat in its linear extension (arg < eps).
            arg = 1.0 + (b.crit - A) / b.soft
            g_log = b.scale / (b.soft * np.maximum(arg, _LOG_EPS))
            g = np.where(b.is_log, g_log, 2.0 * b.curv * A)
            pull = b.weights * g[task_of] + lam_sum
            # The closed form, as closed_form_latencies computes it.
            raw = _power_law_raw(pac / pull, b.hyper_mask, b.inv_exp,
                                 b.all_hyper)
            lat = np.where(pull <= _PULL_FLOOR, np.inf, b.err + raw)
            lat = np.minimum(np.maximum(np.where(free, 0.0, lat), b.lo),
                             b.hi)
            h = np.bincount(task_of, weights=b.weights * lat,
                            minlength=n_tasks) - A
            if done.all():
                break
            # h′ = −1 − g′·Σ w²·raw/((α+1)·pull) over the rows off their
            # clamps (free and zero-pull rows sit on a clamp).
            dg = np.where(
                b.is_log,
                np.where(arg > _LOG_EPS, g_log * g_log / b.scale, 0.0),
                2.0 * b.curv,
            )
            interior = (lat > b.lo) & (lat < b.hi)
            sens = np.bincount(
                task_of, weights=np.where(interior, b.w2_inv_exp * raw / pull,
                                          0.0),
                minlength=n_tasks,
            )
            newton = A + h / (1.0 + dg * sens)
            # A Newton step of a few ulps means A is the root: freeze
            # before the bracket test could bisect away from it.
            done = done | (np.abs(newton - A) <= _NEWTON_RTOL * A)
            below, above = h > 0.0, h < 0.0
            a_lo = np.where(below, A, a_lo)
            a_hi = np.where(above, A, a_hi)
            lo_seen = lo_seen | below
            hi_seen = hi_seen | above
            usable = (
                ((newton > a_lo) | (~lo_seen & (newton >= a_lo)))
                & ((newton < a_hi) | (~hi_seen & (newton <= a_hi)))
                & (2.0 * np.abs(newton - A) <= prev)
            )
            proposal = np.where(usable, newton, 0.5 * (a_lo + a_hi))
            step = np.abs(proposal - A)
            done = done | (step <= _NEWTON_RTOL * A)
            prev = np.where(done, prev, last)
            last = np.where(done, last, step)
            A = np.where(done, A, proposal)
    return lat


class LatencyAllocator:
    """Computes new latencies for one task given current prices.

    Stateless apart from precomputed structure (bounds, weights, path
    memberships), so one instance per task can be reused every iteration —
    this mirrors the task controller's role in the distributed algorithm.
    A task outside the kernel's model family raises
    :class:`~repro.errors.OptimizationError` at construction.
    """

    def __init__(self, taskset: TaskSet, task: Task,
                 max_latency_factor: float = 1.0) -> None:
        self.taskset = taskset
        self.task = task
        self._names = task.subtask_names
        self._resources = tuple(sub.resource for sub in task.subtasks)
        self._paths_through: Dict[str, tuple] = {
            name: tuple(
                PathKey(task.name, i) for i in task.graph.paths_through(name)
            )
            for name in self._names
        }
        self._max_latency_factor = float(max_latency_factor)
        self._bounds: Dict[str, tuple] = {}
        self._concave: Optional[ConcaveBlock] = None
        self.refresh_bounds()

    def refresh_bounds(self) -> None:
        """(Re)compute per-subtask latency bounds from the current model
        (:func:`~repro.core.structure.task_model`), and the one-task
        :class:`~repro.core.structure.ConcaveBlock` of a log or quadratic
        task.

        Called again whenever error correction swaps a share function on
        the task set (Section 6.3), since both bounds shift with the model.
        """
        model = task_model(self.taskset, self.task, self._max_latency_factor)
        self._bounds = {name: (row[4], row[5])
                        for name, row in zip(self._names, model.subtasks)}
        self._concave = ConcaveBlock.of_task(self.task, model) \
            if model.kind >= UTILITY_LOG else None

    def path_price_sum(self, subtask: str,
                       path_prices: Mapping[PathKey, float]) -> float:
        """``Σ_{p ∋ s} λ_p`` for one subtask."""
        return sum(path_prices.get(k, 0.0) for k in self._paths_through[subtask])

    def allocate(
        self,
        resource_prices: Mapping[str, float],
        path_prices: Mapping[PathKey, float],
    ) -> Dict[str, float]:
        """New latencies for all subtasks of this task (Eq. 7): the exact
        concave solve for log and quadratic utilities, the closed form
        for linear and inelastic ones."""
        if self._concave is not None:
            return self._allocate_concave(resource_prices, path_prices)
        return self._allocate_closed_form(resource_prices, path_prices)

    # -- exact concave solve (log and quadratic utilities) ----------------------

    def _allocate_concave(
        self,
        resource_prices: Mapping[str, float],
        path_prices: Mapping[PathKey, float],
    ) -> Dict[str, float]:
        """:func:`solve_concave` on this task alone — the vectorized
        kernel's call on the same rows, so the same bits on hyperbolic
        shares and within one ulp on power-law ones."""
        assert self._concave is not None
        price = np.array([resource_prices.get(r, 0.0)
                          for r in self._resources])
        lam_sum = np.array([self.path_price_sum(n, path_prices)
                            for n in self._names])
        lat = solve_concave(self._concave, price, lam_sum)
        return dict(zip(self._names, lat.tolist()))

    # -- closed form -----------------------------------------------------------

    def _allocate_closed_form(
        self,
        resource_prices: Mapping[str, float],
        path_prices: Mapping[PathKey, float],
    ) -> Dict[str, float]:
        utility = self.task.utility
        slope = utility.slope if isinstance(utility, LinearUtility) else 0.0
        latencies: Dict[str, float] = {}
        for sub in self.task.subtasks:
            price = resource_prices.get(sub.resource, 0.0)
            pull = (
                self.task.weight(sub.name) * slope
                + self.path_price_sum(sub.name, path_prices)
            )
            lat = stationary_latency(
                self.taskset.share_function(sub.name), price, pull
            )
            lo, hi = self._bounds[sub.name]
            latencies[sub.name] = min(max(lat, lo), hi)
        return latencies
