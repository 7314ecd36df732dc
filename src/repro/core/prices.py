"""Price computation: gradient projection updates (Section 4.3).

Prices measure congestion.  Each resource owns its price ``μ_r``; each task
controller owns the prices ``λ_p`` of its paths.  Both move opposite the
gradient of the dual objective (Low & Lapsley's method, which the paper
adopts):

    μ_r(t+1) = [ μ_r(t) − γ_r · (B_r − Σ_s share_r(s, lat_s)) ]⁺      (Eq. 8)
    λ_p(t+1) = [ λ_p(t) − γ_p · (1 − Σ_{s∈p} lat_s / C_i) ]⁺          (Eq. 9)

The ``[·]⁺`` projection onto the non-negative orthant is required by the
gradient projection method (dual variables of inequality constraints are
non-negative); the paper's formulas leave it implicit.

An overloaded resource (share sum above ``B_r``) has a negative gradient
component, so its price rises; a path with slack sees its price decay to
zero.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Tuple

from repro.errors import OptimizationError
from repro.core.state import PathKey
from repro.core.stepsize import StepSizePolicy
from repro.model.task import Task, TaskSet

__all__ = [
    "update_resource_price",
    "update_path_price",
    "ResourcePriceUpdater",
    "PathPriceUpdater",
]


def update_resource_price(price: float, gamma: float, availability: float,
                          load: float) -> float:
    """One projected gradient step of Eq. 8.

    ``load`` is the share sum ``Σ share_r(s, lat_s)`` currently requested
    on the resource.
    """
    return max(0.0, price - gamma * (availability - load))


def update_path_price(price: float, gamma: float, path_latency: float,
                      critical_time: float) -> float:
    """One projected gradient step of Eq. 9.

    The gradient component is the path's *relative slack*
    ``1 − Σ lat / C_i``: positive slack decays the price, a violated path
    (latency above the critical time) raises it.

    The critical time must be positive and finite: zero would divide the
    gradient away, ``inf``/``nan`` would silently freeze it at a constant
    1.0 and the price would decay to zero regardless of the latency.
    """
    if not (critical_time > 0.0 and math.isfinite(critical_time)):
        raise OptimizationError(
            "path price update needs a positive, finite critical time, "
            f"got {critical_time!r}"
        )
    return max(0.0, price - gamma * (1.0 - path_latency / critical_time))


class ResourcePriceUpdater:
    """Per-resource price state plus the update rule.

    Mirrors the paper's "Resource Price Computation" box: the resource
    receives the latencies of all subtasks running on it, recomputes its
    price, and (in the distributed runtime) sends it to the interested
    task controllers.
    """

    def __init__(self, taskset: TaskSet, initial_price: float = 1.0) -> None:
        if initial_price < 0.0:
            raise ValueError(
                f"initial resource price must be non-negative, got {initial_price!r}"
            )
        self.taskset = taskset
        self.initial_price = float(initial_price)
        self.prices: Dict[str, float] = {
            r: self.initial_price for r in taskset.resources
        }

    def reset(self) -> None:
        self.prices = {r: self.initial_price for r in self.taskset.resources}

    def congested(self, loads: Mapping[str, float],
                  tol: float = 1e-9) -> Tuple[str, ...]:
        """Resources whose share sum exceeds availability (Eq. 3 violated)."""
        return tuple(
            r for r, load in loads.items()
            if load > self.taskset.resources[r].availability + tol
        )

    def update(self, latencies: Mapping[str, float],
               policy: StepSizePolicy) -> Dict[str, float]:
        """Apply Eq. 8 to every resource; returns the new price map."""
        for rname, resource in self.taskset.resources.items():
            load = self.taskset.resource_load(rname, latencies)  # statan: disable=REP016 -- per-element reference updater (Eq. 8); the kernel owns the hot path
            self.prices[rname] = update_resource_price(
                self.prices[rname],
                policy.resource_gamma(rname),
                resource.availability,
                load,
            )
        return dict(self.prices)


class PathPriceUpdater:
    """Per-path price state for one task (held by its controller)."""

    def __init__(self, task: Task, initial_price: float = 0.0) -> None:
        if initial_price < 0.0:
            raise ValueError(
                f"initial path price must be non-negative, got {initial_price!r}"
            )
        if not (task.critical_time > 0.0 and math.isfinite(task.critical_time)):
            raise OptimizationError(
                f"task {task.name!r} has critical time "
                f"{task.critical_time!r}; the Eq. 9 gradient needs a "
                "positive, finite critical time"
            )
        self.task = task
        self.initial_price = float(initial_price)
        self.prices: Dict[PathKey, float] = {
            PathKey(task.name, i): self.initial_price
            for i in range(len(task.graph.paths))
        }

    def reset(self) -> None:
        self.prices = {k: self.initial_price for k in self.prices}

    def congested(self, latencies: Mapping[str, float],
                  tol: float = 1e-9) -> Tuple[PathKey, ...]:
        """Paths whose end-to-end latency exceeds the critical time."""
        congested = []
        for i, path in enumerate(self.task.graph.paths):
            lat = self.task.graph.path_latency(path, latencies)  # statan: disable=REP016 -- per-element reference updater (Eq. 9); the kernel owns the hot path
            if lat > self.task.critical_time + tol:
                congested.append(PathKey(self.task.name, i))
        return tuple(congested)

    def update(self, latencies: Mapping[str, float],
               policy: StepSizePolicy) -> Dict[PathKey, float]:
        """Apply Eq. 9 to every path of the task; returns new prices."""
        for i, path in enumerate(self.task.graph.paths):
            key = PathKey(self.task.name, i)
            lat = self.task.graph.path_latency(path, latencies)  # statan: disable=REP016 -- per-element reference updater (Eq. 9); the kernel owns the hot path
            self.prices[key] = update_path_price(
                self.prices[key],
                policy.path_gamma(key),
                lat,
                self.task.critical_time,
            )
        return dict(self.prices)
