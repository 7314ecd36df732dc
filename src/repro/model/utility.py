"""Utility functions mapping end-to-end latency to application benefit.

The paper (Section 2.1, Figure 2) expresses timeliness constraints through
*time-utility functions* in the style of Jensen et al.: non-increasing
functions of job-set latency, bounded by a *critical time* beyond which the
latency may not extend regardless of utility.

Two families are distinguished:

* **Elastic** utilities (left of Figure 2) decrease smoothly with latency and
  permit trade-offs between benefit and resource consumption.  LLA requires
  these to be concave and continuously differentiable below the critical
  time.
* **Inelastic** utilities (right of Figure 2) are step functions — full
  benefit before the deadline, none after — and constrain resources without
  permitting trade-offs.  They are handled by LLA as a constant-utility
  elastic function combined with the critical-time constraint.

The task-level utility is computed from subtask latencies through one of two
*aggregation variants* (Section 3.2): ``sum`` (unweighted sum of subtask
latencies) or ``path-weighted`` (each subtask weighted by the number of
root-to-leaf paths it belongs to).  Aggregation lives in
:class:`repro.model.task.Task`; this module only defines the scalar maps
``f_i`` and their derivatives.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.errors import UtilityError

__all__ = [
    "UtilityFunction",
    "LinearUtility",
    "LogUtility",
    "QuadraticUtility",
    "ExponentialUtility",
    "InelasticUtility",
    "check_concavity",
]


class UtilityFunction(ABC):
    """A scalar, non-increasing map from (aggregated) latency to benefit.

    Implementations must be concave and continuously differentiable on
    ``(0, critical_time)``; LLA's convergence argument relies on both
    properties (Section 4.2).
    """

    @abstractmethod
    def value(self, latency: float) -> float:
        """Benefit obtained when the aggregated latency equals ``latency``."""

    @abstractmethod
    def derivative(self, latency: float) -> float:
        """First derivative of :meth:`value` at ``latency`` (non-positive)."""

    def is_elastic(self) -> bool:
        """Whether the function permits benefit/latency trade-offs.

        Elastic functions have a strictly negative derivative somewhere;
        inelastic ones are flat up to the deadline.
        """
        return True

    def _require_positive(self, latency: float) -> None:
        if latency < 0.0:
            raise UtilityError(
                f"utility queried at negative latency {latency!r}"
            )


class LinearUtility(UtilityFunction):
    """The paper's experimental utility ``f_i(lat) = k*C_i - lat``.

    Section 5.2 uses ``k = 2`` (with ``k >= 1`` keeping utility positive at
    the critical time) and notes other values of ``k`` (and other concave
    shapes) yield similar results.  The Section 6 prototype uses
    ``f_i(lat) = -lat``, i.e. ``k = 0``.  ``slope`` generalizes the unit
    decay rate: ``f(lat) = k*C - slope*lat``.
    """

    def __init__(self, critical_time: float, k: float = 2.0, slope: float = 1.0) -> None:
        if critical_time <= 0.0:
            raise UtilityError(f"critical time must be positive, got {critical_time}")
        if k < 0.0:
            raise UtilityError(f"k must be non-negative, got {k}")
        if slope <= 0.0:
            raise UtilityError(f"slope must be positive, got {slope}")
        self.critical_time = float(critical_time)
        self.k = float(k)
        self.slope = float(slope)

    def value(self, latency: float) -> float:
        self._require_positive(latency)
        return self.k * self.critical_time - self.slope * latency

    def derivative(self, latency: float) -> float:
        self._require_positive(latency)
        return -self.slope

    def __repr__(self) -> str:
        return (
            f"LinearUtility(critical_time={self.critical_time}, "
            f"k={self.k}, slope={self.slope})"
        )


class LogUtility(UtilityFunction):
    """Logarithmic utility of deadline slack:
    ``f(lat) = scale * log(1 + (C - lat) / softness)``.

    Concave and strictly decreasing: the marginal benefit of extra slack
    shrinks the more slack the task already has, and the marginal *cost* of
    latency explodes as the latency approaches ``C + softness`` — a smooth
    interpolation between the paper's elastic and inelastic shapes.  (Note
    that the rate-control classic ``log(C/lat)`` is *convex* in latency and
    therefore unusable here; concavity must hold in the latency domain.)
    """

    def __init__(self, critical_time: float, scale: float = 1.0,
                 softness: float | None = None) -> None:
        if critical_time <= 0.0:
            raise UtilityError(f"critical time must be positive, got {critical_time}")
        if scale <= 0.0:
            raise UtilityError(f"scale must be positive, got {scale}")
        self.critical_time = float(critical_time)
        self.scale = float(scale)
        self.softness = float(softness) if softness is not None \
            else critical_time / 10.0
        if self.softness <= 0.0:
            raise UtilityError(f"softness must be positive, got {softness}")

    #: Below this slack argument the log is linearly extended (first-order
    #: Taylor), keeping the function finite, concave and differentiable for
    #: any latency — numeric solvers may evaluate far beyond the deadline.
    EXTENSION_EPS = 0.05

    def _slack_arg(self, latency: float) -> float:
        return 1.0 + (self.critical_time - latency) / self.softness

    def value(self, latency: float) -> float:
        self._require_positive(latency)
        arg = self._slack_arg(latency)
        eps = self.EXTENSION_EPS
        if arg >= eps:
            return self.scale * math.log(arg)
        return self.scale * (math.log(eps) + (arg - eps) / eps)

    def derivative(self, latency: float) -> float:
        self._require_positive(latency)
        arg = max(self._slack_arg(latency), self.EXTENSION_EPS)
        return -self.scale / (self.softness * arg)

    def __repr__(self) -> str:
        return (
            f"LogUtility(critical_time={self.critical_time}, "
            f"scale={self.scale}, softness={self.softness})"
        )


class QuadraticUtility(UtilityFunction):
    """Concave quadratic ``f(lat) = u_max - a*lat**2`` (non-increasing on
    ``lat >= 0``).  Penalizes long latencies progressively harder, modelling
    SLAs where lateness cost accelerates.
    """

    def __init__(self, critical_time: float, u_max: float | None = None,
                 a: float | None = None) -> None:
        if critical_time <= 0.0:
            raise UtilityError(f"critical time must be positive, got {critical_time}")
        self.critical_time = float(critical_time)
        # Default calibration: zero utility exactly at the critical time.
        self.a = float(a) if a is not None else 1.0 / critical_time
        if self.a <= 0.0:
            raise UtilityError(f"curvature a must be positive, got {self.a}")
        self.u_max = float(u_max) if u_max is not None else self.a * critical_time ** 2

    def value(self, latency: float) -> float:
        self._require_positive(latency)
        return self.u_max - self.a * latency ** 2

    def derivative(self, latency: float) -> float:
        self._require_positive(latency)
        return -2.0 * self.a * latency

    def __repr__(self) -> str:
        return (
            f"QuadraticUtility(critical_time={self.critical_time}, "
            f"u_max={self.u_max}, a={self.a})"
        )


class ExponentialUtility(UtilityFunction):
    """Exponential decay ``f(lat) = u_max * exp(-lat / tau)``.

    Note this function is *convex*, not concave (see
    :func:`check_concavity`), so it lies outside the paper's model: the
    LLA optimizer, the distributed runtime and the service refuse a task
    that carries it.  It stays available to the model and serialization
    layers.
    """

    def __init__(self, critical_time: float, u_max: float = 1.0,
                 tau: float | None = None) -> None:
        if critical_time <= 0.0:
            raise UtilityError(f"critical time must be positive, got {critical_time}")
        self.critical_time = float(critical_time)
        self.u_max = float(u_max)
        self.tau = float(tau) if tau is not None else critical_time / 3.0
        if self.tau <= 0.0:
            raise UtilityError(f"tau must be positive, got {self.tau}")

    def value(self, latency: float) -> float:
        self._require_positive(latency)
        return self.u_max * math.exp(-latency / self.tau)

    def derivative(self, latency: float) -> float:
        self._require_positive(latency)
        return -(self.u_max / self.tau) * math.exp(-latency / self.tau)

    def __repr__(self) -> str:
        return (
            f"ExponentialUtility(critical_time={self.critical_time}, "
            f"u_max={self.u_max}, tau={self.tau})"
        )


class InelasticUtility(UtilityFunction):
    """Hard real-time step utility (right of Figure 2).

    Yields ``u_max`` for latency at or below the critical time and zero
    beyond it.  The derivative is zero everywhere it exists; LLA treats an
    inelastic task purely through its critical-time constraint — the task
    claims exactly the resources needed to meet its deadline and exerts no
    marginal pull on latency below it.
    """

    def __init__(self, critical_time: float, u_max: float = 1.0) -> None:
        if critical_time <= 0.0:
            raise UtilityError(f"critical time must be positive, got {critical_time}")
        if u_max < 0.0:
            raise UtilityError(f"u_max must be non-negative, got {u_max}")
        self.critical_time = float(critical_time)
        self.u_max = float(u_max)

    def value(self, latency: float) -> float:
        self._require_positive(latency)
        return self.u_max if latency <= self.critical_time else 0.0

    def derivative(self, latency: float) -> float:
        self._require_positive(latency)
        return 0.0

    def is_elastic(self) -> bool:
        return False

    def __repr__(self) -> str:
        return (
            f"InelasticUtility(critical_time={self.critical_time}, "
            f"u_max={self.u_max})"
        )


def check_concavity(fn: UtilityFunction, lo: float, hi: float,
                    samples: int = 64, tol: float = 1e-9) -> bool:
    """Numerically check concavity of ``fn`` on ``[lo, hi]``.

    Samples the derivative on a uniform grid and verifies it is
    non-increasing (a differentiable function is concave iff its derivative
    is non-increasing).  Used by strict optimizer configurations to reject
    utilities that would break the dual-decomposition convergence argument.
    """
    if not lo < hi:
        raise UtilityError(f"invalid concavity-check interval [{lo}, {hi}]")
    step = (hi - lo) / (samples - 1)
    previous = fn.derivative(lo)
    for i in range(1, samples):
        current = fn.derivative(lo + i * step)
        if current > previous + tol:
            return False
        previous = current
    return True
