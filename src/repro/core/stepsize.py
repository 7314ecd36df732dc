"""Step-size policies for the price updates (Section 5.2).

The price adjustments (Eqs. 8–9) are gradient steps whose sizes ``γ_r``,
``γ_p`` trade convergence speed against oscillation.  The paper evaluates
fixed step sizes (Figure 5: γ = 0.1 converges in >1000 iterations, γ = 1 in
~500, γ = 10 oscillates) and proposes an adaptive heuristic:

1. start from a fixed γ;
2. at each iteration, while a resource is congested, double its step size
   and the step sizes of every path traversing it;
3. as soon as the resource becomes uncongested, revert to the initial value.

Both policies sit behind one interface whose per-name methods the
per-element updaters of :mod:`repro.core.prices` call.  The LLA kernel
reads only a policy's parameters into its own γ arrays, and the
distributed agents step with :class:`~repro.distributed.agents.LocalGamma`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.errors import OptimizationError
from repro.core.state import PathKey
from repro.model.task import TaskSet

__all__ = ["StepSizePolicy", "FixedStepSize", "AdaptiveStepSize",
           "DEFAULT_GROWTH", "DEFAULT_MAX_GAMMA"]

#: :class:`AdaptiveStepSize`'s default growth factor (the paper's doubling).
DEFAULT_GROWTH = 2.0
#: :class:`AdaptiveStepSize`'s default growth cap.
DEFAULT_MAX_GAMMA = 8.0


class StepSizePolicy(ABC):
    """Supplies ``γ_r`` per resource and ``γ_p`` per path each iteration."""

    @abstractmethod
    def resource_gamma(self, resource: str) -> float:
        """Current step size for a resource price update."""

    @abstractmethod
    def path_gamma(self, path: PathKey) -> float:
        """Current step size for a path price update."""

    def observe(self, congested_resources: Iterable[str],
                congested_paths: Iterable[PathKey]) -> None:
        """Feed back this iteration's congestion state.

        Called once per iteration after constraint evaluation; fixed
        policies ignore it.
        """

    def reset(self) -> None:
        """Return to the initial configuration (between optimizer runs)."""


class FixedStepSize(StepSizePolicy):
    """A single constant γ for all resources and paths.

    Section 5.2 assumes ``γ_r = γ_p = γ`` for a fair trade-off between
    resource allocation and latency; distinct values are still supported
    for ablations.
    """

    def __init__(self, gamma: float, path_gamma: float | None = None) -> None:
        if not (gamma > 0.0 and math.isfinite(gamma)):
            raise OptimizationError(
                f"step size must be positive and finite, got {gamma!r}"
            )
        self._gamma = float(gamma)
        self._path_gamma = float(path_gamma) if path_gamma is not None else self._gamma
        if not (self._path_gamma > 0.0 and math.isfinite(self._path_gamma)):
            raise OptimizationError(
                f"path step size must be positive and finite, got {path_gamma!r}"
            )

    def resource_gamma(self, resource: str) -> float:
        return self._gamma

    def path_gamma(self, path: PathKey) -> float:
        return self._path_gamma

    def __repr__(self) -> str:
        return f"FixedStepSize(gamma={self._gamma}, path_gamma={self._path_gamma})"


class AdaptiveStepSize(StepSizePolicy):
    """The paper's multiplicative congestion heuristic.

    While a resource stays congested its γ doubles every iteration (capped
    at ``max_gamma`` to keep the arithmetic finite); the γ of every path
    that traverses the resource doubles with it.  A path violating its own
    critical-time constraint doubles too, even when no resource on it is
    congested — path prices are driven by the same gradient-projection
    update, so a stalled latency constraint needs the same acceleration as
    a stalled capacity constraint.  The moment a trigger clears, the γ it
    was sustaining snaps back to ``initial_gamma``.

    The two path triggers keep *independent* doubling states, and
    :meth:`path_gamma` serves the largest currently-active one.  The
    isolation matters: a path's constraint typically first becomes violated
    the instant its resources decongest (the price collapse lets latencies
    jump), and if the direct violation inherited the γ already escalated by
    several iterations of resource coverage, the very first Eq. 9 step
    would be taken at ``max_gamma`` — large enough to slam latencies
    between their clamps and lock the iteration into a limit cycle.
    Starting each cause's escalation from ``initial_gamma`` keeps the first
    corrective step small and only accelerates *persistent* stalls.

    The paper obtained its best results starting from γ = 1.

    The per-name state (which paths traverse each resource, one γ per
    resource and path) is built on the first :meth:`resource_gamma`,
    :meth:`path_gamma` or :meth:`observe` call.  The LLA kernel
    keeps its own γ arrays and reads only the three parameters, so an
    optimizer run never builds the index; only the per-element
    references that call these methods do.

    Deviation from the paper: growth is capped at ``max_gamma`` (default 8),
    which may not be below ``initial_gamma``.
    With our reconstructed Figure-4 topology, unbounded doubling overshoots
    so far that latencies slam between their clamps and the iteration never
    settles; a modest cap preserves the heuristic's speedup (≈2× faster
    settling than fixed γ = 1) while keeping the prices stable.
    """

    def __init__(self, taskset: TaskSet, initial_gamma: float = 1.0,
                 growth: float = DEFAULT_GROWTH,
                 max_gamma: float = DEFAULT_MAX_GAMMA) -> None:
        for name, value in (("initial_gamma", initial_gamma),
                            ("growth", growth), ("max_gamma", max_gamma)):
            if not math.isfinite(value):
                raise OptimizationError(f"{name} must be finite, got {value!r}")
        if initial_gamma <= 0.0:
            raise OptimizationError(
                f"initial step size must be positive, got {initial_gamma!r}"
            )
        if growth <= 1.0:
            raise OptimizationError(f"growth must exceed 1, got {growth!r}")
        if max_gamma < initial_gamma:
            # A cap below the start would make "escalation" lower γ.
            raise OptimizationError(
                f"max_gamma ({max_gamma!r}) must be >= initial_gamma "
                f"({initial_gamma!r})"
            )
        self.initial_gamma = float(initial_gamma)
        self.growth = float(growth)
        self.max_gamma = float(max_gamma)
        self._taskset = taskset
        self._paths_by_resource: Optional[
            Dict[str, Tuple[PathKey, ...]]] = None
        self._resource_gamma: Dict[str, float] = {}
        self._path_gamma: Dict[PathKey, float] = {}
        self._cover_gamma: Dict[PathKey, float] = {}
        self._direct_gamma: Dict[PathKey, float] = {}

    def _index(self) -> Dict[str, Tuple[PathKey, ...]]:
        """The resource→paths index, with every γ at its initial value
        when first built."""
        if self._paths_by_resource is None:
            self._paths_by_resource = self._index_paths(self._taskset)
            self.reset()
        return self._paths_by_resource

    @staticmethod
    def _index_paths(taskset: TaskSet) -> Dict[str, Tuple[PathKey, ...]]:
        """Which paths traverse each resource (a path traverses ``r`` when
        any of its subtasks runs on ``r``)."""
        index: Dict[str, list] = {r: [] for r in taskset.resources}
        for task in taskset.tasks:
            resource_of = {s.name: s.resource for s in task.subtasks}
            for i, path in enumerate(task.graph.paths):
                key = PathKey(task.name, i)
                for resource in {resource_of[s] for s in path}:
                    index[resource].append(key)
        return {r: tuple(paths) for r, paths in index.items()}

    def reset(self) -> None:
        index = self._paths_by_resource
        if index is None:
            return  # nothing built yet: every γ is still the initial one
        self._resource_gamma = {r: self.initial_gamma for r in index}
        all_paths: Set[PathKey] = set()
        for paths in index.values():
            all_paths.update(paths)
        self._path_gamma = {p: self.initial_gamma for p in all_paths}
        self._cover_gamma = {p: self.initial_gamma for p in all_paths}
        self._direct_gamma = {p: self.initial_gamma for p in all_paths}

    def resource_gamma(self, resource: str) -> float:
        self._index()
        return self._resource_gamma.get(resource, self.initial_gamma)

    def path_gamma(self, path: PathKey) -> float:
        self._index()
        return self._path_gamma.get(path, self.initial_gamma)

    def observe(self, congested_resources: Iterable[str],
                congested_paths: Iterable[PathKey]) -> None:
        index = self._index()
        congested = set(congested_resources)
        direct = set(congested_paths)
        covered: Set[PathKey] = set()
        for resource in index:
            if resource in congested:
                self._resource_gamma[resource] = min(
                    self._resource_gamma[resource] * self.growth,
                    self.max_gamma,
                )
                covered.update(index[resource])
            else:
                self._resource_gamma[resource] = self.initial_gamma
        for path in self._path_gamma:
            if path in covered:
                self._cover_gamma[path] = min(
                    self._cover_gamma[path] * self.growth, self.max_gamma
                )
            else:
                self._cover_gamma[path] = self.initial_gamma
            if path in direct:
                self._direct_gamma[path] = min(
                    self._direct_gamma[path] * self.growth, self.max_gamma
                )
            else:
                self._direct_gamma[path] = self.initial_gamma
            # Serve the largest active escalation; neither trigger active
            # means the step snaps back to the starting γ.
            boosts = []
            if path in covered:
                boosts.append(self._cover_gamma[path])
            if path in direct:
                boosts.append(self._direct_gamma[path])
            self._path_gamma[path] = (
                max(boosts) if boosts else self.initial_gamma
            )

    def __repr__(self) -> str:
        return (
            f"AdaptiveStepSize(initial_gamma={self.initial_gamma}, "
            f"growth={self.growth}, max_gamma={self.max_gamma})"
        )
