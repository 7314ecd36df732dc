"""Per-phase wall-time timers for the LLA iteration kernel.

One LLA iteration decomposes into the paper's four boxes — path-price
update (Eq. 9), latency allocation (Eq. 7), resource-price update
(Eq. 8) and congestion classification (the Section 5.2 feedback) — and
performance questions are almost always *which phase* got slower, not
whether the whole iteration did.  The vectorized engine records into
one timer per phase::

    lla.phase.path_update_seconds
    lla.phase.allocate_seconds
    lla.phase.price_update_seconds
    lla.phase.classify_seconds

so run-to-run comparisons (``repro bench-diff``) line up phase by phase.
Timing reads optimizer state only — it can never influence the iterates
(the traced-run bit-identity tests cover this).
"""

from __future__ import annotations

import time
from typing import Dict

from repro.telemetry import Telemetry
from repro.telemetry.metrics import Timer

__all__ = ["PHASES", "PhaseTimers"]

#: Iteration phases in execution order.
PHASES = ("path_update", "allocate", "price_update", "classify")


class PhaseTimers:
    """Timer handles for the four LLA iteration phases.

    Create lazily once per instrumented engine; each phase's
    elapsed wall time goes into a bounded-window
    :class:`~repro.telemetry.metrics.Timer` in the context's registry.
    """

    __slots__ = ("_timers",)

    def __init__(self, telemetry: Telemetry) -> None:
        registry = telemetry.registry
        self._timers: Dict[str, Timer] = {
            name: registry.timer(
                f"lla.phase.{name}_seconds",
                f"wall time in the {name} phase of one LLA iteration",
                max_samples=4096,
            )
            for name in PHASES
        }

    def lap(self, phase: str, started: float) -> float:
        """Observe the interval since ``started``; returns the new mark."""
        now = time.perf_counter()
        self._timers[phase].observe(now - started)
        return now
