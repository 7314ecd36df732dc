"""Convergence detection for the LLA iteration.

The paper stops its prototype optimizer "until the utility improvement from
the previous iteration is below 1%" (Section 6.4) and, for batch use,
"stopping it after it converges" (Section 4.4).  Detecting convergence of a
dual-ascent method purely from the utility trace is fragile — Figure 7 shows
slowly-dampening oscillations that *look* convergent but correspond to an
infeasible workload — so the detector here combines:

* **utility stability**: relative utility change below ``utility_tol`` for
  ``window`` consecutive iterations; and
* **feasibility**: no resource or path constraint violated beyond
  ``feasibility_tol`` (the paper's own Section 5.4 argument for telling
  slow convergence apart from unschedulability).

Feasibility checking can be disabled to mimic a naive utility-only stop,
which the schedulability experiments use to demonstrate the failure mode.

The optimizer hands the detector each iteration's utility with its
feasibility verdict, computed from the kernel's arrays
(:meth:`observe_verdict`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

__all__ = ["ConvergenceDetector"]


class ConvergenceDetector:
    """Sliding-window convergence test over the LLA iteration."""

    def __init__(
        self,
        utility_tol: float = 1e-4,
        window: int = 10,
        feasibility_tol: float = 1e-3,
        require_feasible: bool = True,
        utility_floor: float = 1e-6,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window!r}")
        if utility_tol <= 0.0:
            raise ValueError(f"utility_tol must be positive, got {utility_tol!r}")
        if utility_floor <= 0.0:
            raise ValueError(
                f"utility_floor must be positive, got {utility_floor!r}"
            )
        self.utility_tol = float(utility_tol)
        self.window = int(window)
        self.feasibility_tol = float(feasibility_tol)
        self.require_feasible = bool(require_feasible)
        self.utility_floor = float(utility_floor)
        self._recent: Deque[float] = deque(maxlen=window + 1)
        self._verdict: Optional[bool] = None

    def reset(self) -> None:
        self._recent.clear()
        self._verdict = None

    def observe_verdict(self, utility: float, feasible: bool) -> None:
        """Record one iteration's outcome with its feasibility verdict at
        ``feasibility_tol`` already computed (from the kernel's arrays)."""
        self._recent.append(float(utility))
        self._verdict = bool(feasible)

    def revise_verdict(self, feasible: bool) -> None:
        """Replace the last observation's verdict after the model it was
        measured against changed (no-op unless one is held)."""
        if self._verdict is not None:
            self._verdict = bool(feasible)

    def utility_stable(self) -> bool:
        """Relative utility change below tolerance across the window.

        The spread is judged against the window's utility *magnitude*, with
        ``utility_floor`` as an absolute lower bound on the scale: a run
        whose utilities are legitimately tiny (|U| ≪ 1, e.g. heavily
        discounted linear utilities) must still settle relative to its own
        magnitude rather than to an absolute bar, while an identically-zero
        trace is still recognized as stable without dividing by zero.
        """
        if len(self._recent) <= self.window:
            return False
        values = list(self._recent)
        scale = max(self.utility_floor, max(abs(v) for v in values))
        spread = max(values) - min(values)
        return spread / scale <= self.utility_tol

    def feasible(self) -> bool:
        """Current iterate satisfies Eqs. 3–4 within tolerance (the last
        observation's verdict; ``False`` before any)."""
        return bool(self._verdict)

    def converged(self) -> bool:
        if not self.utility_stable():
            return False
        if self.require_feasible and not self.feasible():
            return False
        return True
