"""Unit tests for the convergence detector.

The optimizer hands the detector each iteration's utility with a
feasibility verdict; ``FEASIBLE``/``INFEASIBLE`` stand for that verdict.
"""

import pytest

from repro.core.convergence import ConvergenceDetector

FEASIBLE, INFEASIBLE = True, False


class TestConvergenceDetector:
    def test_not_converged_before_window_fills(self):
        det = ConvergenceDetector(window=5)
        for _ in range(5):
            det.observe_verdict(10.0, FEASIBLE)
        assert not det.converged()   # needs window+1 observations
        det.observe_verdict(10.0, FEASIBLE)
        assert det.converged()

    def test_detects_stability(self):
        det = ConvergenceDetector(window=3, utility_tol=1e-3)
        for _ in range(10):
            det.observe_verdict(100.0, FEASIBLE)
        assert det.utility_stable()

    def test_rejects_drift(self):
        det = ConvergenceDetector(window=3, utility_tol=1e-3)
        for i in range(10):
            det.observe_verdict(100.0 + i, FEASIBLE)
        assert not det.utility_stable()

    def test_relative_tolerance_scales(self):
        # Spread 0.5 on a value of 10000 is relatively tiny.
        det = ConvergenceDetector(window=3, utility_tol=1e-3)
        values = [10000.0, 10000.5, 10000.0, 10000.4, 10000.1]
        for v in values:
            det.observe_verdict(v, FEASIBLE)
        assert det.utility_stable()

    def test_requires_feasibility(self):
        det = ConvergenceDetector(window=2)
        for _ in range(6):
            det.observe_verdict(10.0, INFEASIBLE)
        assert det.utility_stable()
        assert not det.feasible()
        assert not det.converged()

    def test_feasibility_check_optional(self):
        det = ConvergenceDetector(window=2, require_feasible=False)
        for _ in range(6):
            det.observe_verdict(10.0, INFEASIBLE)
        assert det.converged()

    def test_reset(self):
        det = ConvergenceDetector(window=2)
        for _ in range(6):
            det.observe_verdict(10.0, FEASIBLE)
        assert det.converged()
        det.reset()
        assert not det.converged()

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ConvergenceDetector(window=0)
        with pytest.raises(ValueError):
            ConvergenceDetector(utility_tol=0.0)
        with pytest.raises(ValueError):
            ConvergenceDetector(utility_floor=0.0)


class TestSmallUtilityScale:
    """Regression: the stability scale used to be ``max(1.0, max|v|)``,
    so any run whose utilities were much smaller than 1 looked "stable"
    immediately — the absolute spread was tiny even while the trace was
    still swinging by 50% of its own magnitude."""

    def test_small_utilities_still_swinging_not_stable(self):
        det = ConvergenceDetector(window=3, utility_tol=1e-3)
        # |U| ~ 1e-4 with a 30% relative spread: with the old absolute
        # scale of 1.0 the spread (6e-5) was far below tol and this
        # wrongly converged.
        for v in (1.0e-4, 1.3e-4, 0.9e-4, 1.2e-4, 1.1e-4):
            det.observe_verdict(v, FEASIBLE)
        assert not det.utility_stable()

    def test_small_utilities_settled_are_stable(self):
        det = ConvergenceDetector(window=3, utility_tol=1e-3)
        for _ in range(6):
            det.observe_verdict(1.0e-4, FEASIBLE)
        assert det.utility_stable()

    def test_identically_zero_trace_is_stable(self):
        # The floor's other job: no division by zero on an all-zero trace.
        det = ConvergenceDetector(window=3)
        for _ in range(6):
            det.observe_verdict(0.0, FEASIBLE)
        assert det.utility_stable()

    def test_floor_bounds_the_scale_from_below(self):
        # Raising the floor above the trace magnitude re-enables the old
        # absolute judgement for callers that want it.
        det = ConvergenceDetector(window=3, utility_tol=1e-3,
                                  utility_floor=1.0)
        for v in (1.0e-4, 1.3e-4, 0.9e-4, 1.2e-4, 1.1e-4):
            det.observe_verdict(v, FEASIBLE)
        assert det.utility_stable()
