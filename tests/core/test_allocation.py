"""Unit tests for the latency-allocation step (Eq. 7)."""

import math

import pytest

from repro.core.allocation import LatencyAllocator, stationary_latency
from repro.core.state import PathKey
from repro.errors import OptimizationError
from repro.model.share import CorrectedShare, HyperbolicShare, PowerLawShare
from repro.model.utility import LogUtility
from tests.conftest import make_chain_taskset
from tests.core.reference import lbfgsb_allocate


class TestStationaryLatency:
    def test_hyperbolic_closed_form(self):
        # mu * cost / lat^2 = pull  ->  lat = sqrt(mu*cost/pull)
        fn = HyperbolicShare(exec_time=4.0, lag=1.0)
        lat = stationary_latency(fn, price=20.0, pull=1.0)
        assert lat == pytest.approx(math.sqrt(100.0))

    def test_powerlaw_closed_form(self):
        fn = PowerLawShare(cost=5.0, alpha=2.0)
        price, pull = 8.0, 2.0
        lat = stationary_latency(fn, price, pull)
        # Verify stationarity numerically: price * (-dshare) == pull.
        assert price * (-fn.dshare_dlat(lat)) == pytest.approx(pull)

    def test_corrected_share_shifts_by_error(self):
        base = HyperbolicShare(exec_time=4.0, lag=1.0)
        corrected = CorrectedShare(base, error=-3.0)
        raw = stationary_latency(base, 20.0, 1.0)
        shifted = stationary_latency(corrected, 20.0, 1.0)
        assert shifted == pytest.approx(raw - 3.0)

    def test_zero_price_wants_minimum(self):
        fn = HyperbolicShare(exec_time=4.0, lag=1.0)
        assert stationary_latency(fn, price=0.0, pull=1.0) == 0.0

    def test_zero_pull_wants_maximum(self):
        fn = HyperbolicShare(exec_time=4.0, lag=1.0)
        assert math.isinf(stationary_latency(fn, price=1.0, pull=0.0))

    def test_generic_share_function_refused(self):
        """A share class outside the power-law family is refused by name,
        as structure.task_model refuses it."""
        class Generic:
            def __init__(self):
                self._inner = HyperbolicShare(exec_time=4.0, lag=1.0)
            def share(self, lat):
                return self._inner.share(lat)
            def dshare_dlat(self, lat):
                return self._inner.dshare_dlat(lat)
        with pytest.raises(OptimizationError, match="Generic"):
            stationary_latency(Generic(), price=20.0, pull=1.0)


class TestAllocatorClosedForm:
    def test_stationarity_holds_at_interior_solution(self, base_ts):
        task = base_ts.tasks[0]
        allocator = LatencyAllocator(base_ts, task)
        prices = {r: 50.0 for r in base_ts.resources}
        path_prices = {PathKey(task.name, i): 0.5
                       for i in range(len(task.graph.paths))}
        latencies = allocator.allocate(prices, path_prices)
        for sub in task.subtasks:
            lat = latencies[sub.name]
            lo, hi = allocator._bounds[sub.name]
            if lo + 1e-9 < lat < hi - 1e-9:
                fn = base_ts.share_function(sub.name)
                pull = task.weight(sub.name) + \
                    allocator.path_price_sum(sub.name, path_prices)
                residual = prices[sub.resource] * (-fn.dshare_dlat(lat)) - pull
                assert abs(residual) < 1e-8

    def test_respects_lower_bound(self, chain_ts):
        task = chain_ts.tasks[0]
        allocator = LatencyAllocator(chain_ts, task)
        # Tiny price: unconstrained solution would be ~0.
        latencies = allocator.allocate({f"r{i}": 1e-9 for i in range(3)}, {})
        for sub in task.subtasks:
            fn = chain_ts.share_function(sub.name)
            assert latencies[sub.name] >= fn.min_latency(1.0) - 1e-12

    def test_respects_critical_time_bound(self, chain_ts):
        task = chain_ts.tasks[0]
        allocator = LatencyAllocator(chain_ts, task)
        # Huge price: unconstrained solution would exceed the deadline.
        latencies = allocator.allocate({f"r{i}": 1e9 for i in range(3)}, {})
        for sub in task.subtasks:
            assert latencies[sub.name] <= task.critical_time + 1e-9

    def test_rate_share_bound(self):
        # Period 50ms, exec 2ms -> min share 0.04 -> lat <= 3/0.04 = 75;
        # with a critical time of 200 the rate bound binds first.
        ts = make_chain_taskset(critical_time=200.0, period=50.0)
        task = ts.tasks[0]
        allocator = LatencyAllocator(ts, task)
        latencies = allocator.allocate({f"r{i}": 1e9 for i in range(3)}, {})
        for sub in task.subtasks:
            assert latencies[sub.name] <= 75.0 + 1e-9

    def test_higher_path_price_shrinks_latency(self, chain_ts):
        task = chain_ts.tasks[0]
        allocator = LatencyAllocator(chain_ts, task)
        prices = {f"r{i}": 100.0 for i in range(3)}
        lat_free = allocator.allocate(prices, {})
        lat_priced = allocator.allocate(
            prices, {PathKey(task.name, 0): 10.0}
        )
        for name in task.subtask_names:
            assert lat_priced[name] < lat_free[name]

    def test_refresh_bounds_follows_corrected_model(self):
        ts = make_chain_taskset(critical_time=200.0, period=50.0)
        task = ts.tasks[0]
        allocator = LatencyAllocator(ts, task)
        _lo0, hi0 = allocator._bounds["s0"]
        base = ts.share_function("s0")
        ts.set_share_function("s0", CorrectedShare(base, error=-10.0))
        allocator.refresh_bounds()
        _lo1, hi1 = allocator._bounds["s0"]
        assert hi1 == pytest.approx(hi0 - 10.0)


class TestAllocatorNumeric:
    def test_log_utility_uses_numeric_path(self):
        ts = make_chain_taskset()
        # Swap in a concave non-linear utility.
        task = ts.tasks[0]
        task.utility = LogUtility(task.critical_time)
        allocator = LatencyAllocator(ts, task)
        prices = {f"r{i}": 5.0 for i in range(3)}
        latencies = allocator.allocate(prices, {})
        assert set(latencies) == set(task.subtask_names)
        for name, lat in latencies.items():
            lo, hi = allocator._bounds[name]
            assert lo - 1e-9 <= lat <= hi + 1e-9

    def test_numeric_matches_closed_form_for_linear(self):
        # Solve a linear problem numerically (L-BFGS-B on the task
        # Lagrangian) and compare with the closed form.
        ts = make_chain_taskset()
        task = ts.tasks[0]
        allocator = LatencyAllocator(ts, task)
        prices = {f"r{i}": 40.0 for i in range(3)}
        path_prices = {PathKey(task.name, 0): 0.3}
        closed = allocator.allocate(prices, path_prices)
        numeric = lbfgsb_allocate(allocator, prices, path_prices, closed)
        for name in task.subtask_names:
            assert numeric[name] == pytest.approx(closed[name], abs=1e-4)

    def test_outside_model_family_refused(self):
        from repro.errors import OptimizationError
        from repro.model.utility import ExponentialUtility
        ts = make_chain_taskset()
        task = ts.tasks[0]
        task.utility = ExponentialUtility(task.critical_time)
        with pytest.raises(OptimizationError, match="ExponentialUtility"):
            LatencyAllocator(ts, task)

    def test_inelastic_task_drifts_to_upper_clamp_without_prices(self):
        from repro.model.utility import InelasticUtility
        ts = make_chain_taskset()
        task = ts.tasks[0]
        task.utility = InelasticUtility(task.critical_time)
        allocator = LatencyAllocator(ts, task)
        latencies = allocator.allocate({f"r{i}": 1.0 for i in range(3)}, {})
        # No marginal benefit and no path pressure: latency maximal.
        for name in task.subtask_names:
            _lo, hi = allocator._bounds[name]
            assert latencies[name] == pytest.approx(hi)
