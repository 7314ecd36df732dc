"""Per-element references the LLA kernel is tested against.

:class:`ScalarLLA` iterates LLA one task and one resource at a time
through the paper's per-element equations in :mod:`repro.core`:
:class:`~repro.core.prices.PathPriceUpdater` (Eq. 9),
:class:`~repro.core.allocation.LatencyAllocator` (Eq. 7),
:class:`~repro.core.prices.ResourcePriceUpdater` (Eq. 8) and the dict
form of the step-size policies (the Section 5.2 feedback).  The batched
kernel that :class:`~repro.core.optimizer.LLAOptimizer` drives orders
every reduction like these loops, so its records must match bit for bit.

:func:`lbfgsb_allocate` maximizes one task's Lagrangian numerically, the
cross-check of the closed form and of the exact concave solve.

:func:`lagrangian_value` evaluates the full Lagrangian (Eq. 5) at a
primal/dual point, and :func:`kkt_report` the Karush–Kuhn–Tucker
residuals there: stationarity ``∂L/∂lat_s ≈ 0`` for every interior
latency, primal feasibility (Eqs. 3–4) and complementary slackness
``μ_r·(B_r − load_r) ≈ 0``, ``λ_p·(C_i − lat_p) ≈ 0`` (dual feasibility
holds by projection).  They certify that a converged LLA point is
(near-)optimal.
"""

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np
from scipy import optimize

from repro.core.allocation import LatencyAllocator
from repro.core.convergence import ConvergenceDetector
from repro.core.optimizer import LLAConfig
from repro.core.prices import PathPriceUpdater, ResourcePriceUpdater
from repro.core.state import IterationRecord, OptimizationResult, PathKey
from repro.core.stepsize import AdaptiveStepSize
from repro.core.warmstart import warm_start_resource_prices
from repro.model.task import TaskSet


class ScalarLLA:
    """LLA run by per-task and per-resource loops, with
    :class:`~repro.core.optimizer.LLAOptimizer`'s state and ``run`` API
    (no telemetry)."""

    def __init__(self, taskset: TaskSet,
                 config: Optional[LLAConfig] = None) -> None:
        self.taskset = taskset
        self.config = config = config or LLAConfig()
        # The policy the kernel folds: the configured one, else the
        # paper's adaptive default at initial_gamma.
        self.step_policy = config.step_policy or AdaptiveStepSize(
            taskset, initial_gamma=config.initial_gamma)
        self.detector = ConvergenceDetector(
            utility_tol=config.utility_tol,
            window=config.convergence_window,
            feasibility_tol=config.feasibility_tol,
            require_feasible=config.require_feasible,
            utility_floor=config.utility_floor,
        )
        self.resource_prices = ResourcePriceUpdater(
            taskset, initial_price=config.initial_resource_price)
        self.path_prices = {
            task.name: PathPriceUpdater(
                task, initial_price=config.initial_path_price)
            for task in taskset.tasks
        }
        self.allocators = {
            task.name: LatencyAllocator(
                taskset, task, max_latency_factor=config.max_latency_factor)
            for task in taskset.tasks
        }
        self.reset()

    def _allocate(self) -> Dict[str, float]:
        """One allocation pass at the current prices."""
        latencies: Dict[str, float] = {}
        for task in self.taskset.tasks:
            latencies.update(self.allocators[task.name].allocate(
                self.resource_prices.prices,
                self.path_prices[task.name].prices,
            ))
        return latencies

    def adopt_prices(self, resource_prices: Mapping[str, float]) -> None:
        """:meth:`LLAOptimizer.adopt_prices`: new μ, initial λ and γ, an
        empty convergence window, fresh latencies."""
        self.resource_prices.prices.update(
            {r: float(p) for r, p in resource_prices.items()})
        for updater in self.path_prices.values():
            updater.reset()
        self.step_policy.reset()
        self.detector.reset()
        self.latencies = self._allocate()

    def reset(self) -> None:
        """Initial prices, step sizes and latencies (warm start included)."""
        self.resource_prices.reset()
        for updater in self.path_prices.values():
            updater.reset()
        self.step_policy.reset()
        self.detector.reset()
        self.iteration = 0
        self.latencies = self._allocate()
        if self.config.warm_start:
            self.adopt_prices(warm_start_resource_prices(
                self.taskset, default=self.config.initial_resource_price))

    def refresh_model(self) -> None:
        """Re-read the latency bounds after a model change."""
        for allocator in self.allocators.values():
            allocator.refresh_bounds()

    def step(self) -> IterationRecord:
        tol = self.config.congestion_tol
        # (1) Task controllers: path prices (Eq. 9) from the previous
        # latencies, then new latencies (Eq. 7).
        new_latencies: Dict[str, float] = {}
        all_path_prices: Dict[PathKey, float] = {}
        for task in self.taskset.tasks:
            updater = self.path_prices[task.name]
            updater.update(self.latencies, self.step_policy)
            all_path_prices.update(updater.prices)
            new_latencies.update(self.allocators[task.name].allocate(
                self.resource_prices.prices, updater.prices))
        self.latencies = new_latencies
        # (2) Resources: prices from the new latencies (Eq. 8).
        self.resource_prices.update(self.latencies, self.step_policy)
        # (3) Congestion feeds the adaptive step size (Section 5.2).
        loads = self.taskset.resource_loads(self.latencies)
        congested_resources = self.resource_prices.congested(loads, tol=tol)
        congested_paths: Tuple[PathKey, ...] = ()
        for task in self.taskset.tasks:
            congested_paths += self.path_prices[task.name].congested(
                self.latencies, tol=tol)
        self.step_policy.observe(congested_resources, congested_paths)

        utility = self.taskset.total_utility(self.latencies)
        self.detector.observe_verdict(utility, self.taskset.is_feasible(
            self.latencies, tol=self.detector.feasibility_tol))
        self.iteration += 1
        return IterationRecord(
            iteration=self.iteration,
            utility=utility,
            latencies=dict(self.latencies),
            resource_prices=dict(self.resource_prices.prices),
            path_prices=all_path_prices,
            resource_loads=loads,
            congested_resources=congested_resources,
            congested_paths=congested_paths,
            critical_paths={
                task.name: task.critical_path(self.latencies)[1]
                for task in self.taskset.tasks
            },
        )

    def run(self, max_iterations: Optional[int] = None) -> OptimizationResult:
        """:meth:`LLAOptimizer.run`'s loop and result."""
        budget = self.config.max_iterations if max_iterations is None \
            else max_iterations
        history = []
        converged = False
        for _ in range(budget):
            record = self.step()
            if self.config.record_history:
                history.append(record)
            if self.config.stop_on_convergence and self.detector.converged():
                converged = True
                break
        converged = converged or self.detector.converged()
        return OptimizationResult(
            converged=converged,
            iterations=self.iteration,
            latencies=dict(self.latencies),
            utility=record.utility,
            resource_prices=dict(self.resource_prices.prices),
            path_prices={
                key: price
                for updater in self.path_prices.values()
                for key, price in updater.prices.items()
            },
            history=history,
        )


def lbfgsb_allocate(
    allocator: LatencyAllocator,
    resource_prices: Mapping[str, float],
    path_prices: Mapping[PathKey, float],
    current: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """The allocator's task Lagrangian maximized with projected L-BFGS-B
    over its latency box, started from ``current`` (default: mid-box)."""
    task, taskset = allocator.task, allocator.taskset
    names = list(task.subtask_names)
    share_fns = [taskset.share_function(n) for n in names]
    prices = np.array([
        resource_prices.get(task.subtask(n).resource, 0.0) for n in names
    ])
    lambdas = np.array([
        allocator.path_price_sum(n, path_prices) for n in names
    ])
    lo = np.array([allocator._bounds[n][0] for n in names])
    hi = np.array([allocator._bounds[n][1] for n in names])
    if current:
        x0 = np.clip(np.array([current.get(n, (a + b) / 2.0)
                               for n, a, b in zip(names, lo, hi)]), lo, hi)
    else:
        x0 = (lo + hi) / 2.0

    def negative_lagrangian(x: np.ndarray) -> float:
        value = task.utility_value(dict(zip(names, x)))
        value -= float(lambdas @ x)
        value -= sum(p * fn.share(xi) for p, fn, xi in zip(prices, share_fns, x))
        return -value

    def negative_gradient(x: np.ndarray) -> np.ndarray:
        grad_u = task.utility_gradient(dict(zip(names, x)))
        grad = np.array([grad_u[n] for n in names])
        grad -= lambdas
        grad -= np.array([p * fn.dshare_dlat(xi)
                          for p, fn, xi in zip(prices, share_fns, x)])
        return -grad

    result = optimize.minimize(negative_lagrangian, x0, jac=negative_gradient,
                               bounds=list(zip(lo, hi)), method="L-BFGS-B")
    assert np.all(np.isfinite(result.x)), result.message
    return dict(zip(names, np.clip(result.x, lo, hi).tolist()))


def lagrangian_value(
    taskset: TaskSet,
    latencies: Mapping[str, float],
    resource_prices: Mapping[str, float],
    path_prices: Mapping[PathKey, float],
) -> float:
    """Evaluate Eq. 5 at the given primal/dual point."""
    value = taskset.total_utility(latencies)
    for rname, resource in taskset.resources.items():
        load = taskset.resource_load(rname, latencies)
        value -= resource_prices.get(rname, 0.0) * (load - resource.availability)
    for task in taskset.tasks:
        for i, path in enumerate(task.graph.paths):
            lat = task.graph.path_latency(path, latencies)
            price = path_prices.get(PathKey(task.name, i), 0.0)
            value -= price * (lat - task.critical_time)
    return value


@dataclass
class KKTReport:
    """Residuals of the KKT conditions at a candidate optimum.

    All residuals are non-negative; zero means the condition holds exactly.
    ``stationarity`` omits subtasks clamped at a latency bound (there the
    box constraint's multiplier, which we do not track, absorbs the
    gradient).
    """

    stationarity: Dict[str, float]
    primal_resource: Dict[str, float]
    primal_path: Dict[PathKey, float]
    complementary_resource: Dict[str, float]
    complementary_path: Dict[PathKey, float]

    def max_stationarity(self) -> float:
        return max(self.stationarity.values()) if self.stationarity else 0.0

    def max_primal(self) -> float:
        values = list(self.primal_resource.values()) + list(
            self.primal_path.values()
        )
        return max(values) if values else 0.0

    def max_complementary(self) -> float:
        values = list(self.complementary_resource.values()) + list(
            self.complementary_path.values()
        )
        return max(values) if values else 0.0

    def is_approximately_optimal(self, stationarity_tol: float = 1e-3,
                                 primal_tol: float = 1e-3,
                                 complementary_tol: float = 1e-2) -> bool:
        return (
            self.max_stationarity() <= stationarity_tol
            and self.max_primal() <= primal_tol
            and self.max_complementary() <= complementary_tol
        )


def kkt_report(
    taskset: TaskSet,
    latencies: Mapping[str, float],
    resource_prices: Mapping[str, float],
    path_prices: Mapping[PathKey, float],
    bound_tol: float = 1e-6,
) -> KKTReport:
    """Compute KKT residuals at ``(latencies, prices)``.

    ``bound_tol`` controls which latencies count as clamped at a box bound
    and are therefore excluded from the stationarity check.
    """
    stationarity: Dict[str, float] = {}
    for task in taskset.tasks:
        grad_u = task.utility_gradient(latencies)
        for sub in task.subtasks:
            share_fn = taskset.share_function(sub.name)
            availability = taskset.resources[sub.resource].availability
            lat = latencies[sub.name]
            lo = share_fn.min_latency(availability)
            hi = task.critical_time
            if lat <= lo + bound_tol or lat >= hi - bound_tol:
                continue
            lam_sum = sum(
                path_prices.get(PathKey(task.name, i), 0.0)
                for i in task.graph.paths_through(sub.name)
            )
            grad = (
                grad_u[sub.name]
                - lam_sum
                - resource_prices.get(sub.resource, 0.0)
                * share_fn.dshare_dlat(lat)
            )
            stationarity[sub.name] = abs(grad)

    primal_resource: Dict[str, float] = {}
    complementary_resource: Dict[str, float] = {}
    for rname, resource in taskset.resources.items():
        load = taskset.resource_load(rname, latencies)
        slack = resource.availability - load
        primal_resource[rname] = max(0.0, -slack)
        complementary_resource[rname] = abs(
            resource_prices.get(rname, 0.0) * slack
        )

    primal_path: Dict[PathKey, float] = {}
    complementary_path: Dict[PathKey, float] = {}
    for task in taskset.tasks:
        for i, path in enumerate(task.graph.paths):
            key = PathKey(task.name, i)
            lat = task.graph.path_latency(path, latencies)
            slack = task.critical_time - lat
            primal_path[key] = max(0.0, -slack)
            # Normalize by the critical time so tasks with different
            # deadlines contribute comparable residuals.
            complementary_path[key] = abs(
                path_prices.get(key, 0.0) * slack / task.critical_time
            )

    return KKTReport(
        stationarity=stationarity,
        primal_resource=primal_resource,
        primal_path=primal_path,
        complementary_resource=complementary_resource,
        complementary_path=complementary_path,
    )
