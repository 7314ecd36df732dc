"""Unit tests for the reference Lagrangian and KKT diagnostics."""

import pytest

from repro.core.optimizer import LLAConfig, LLAOptimizer
from repro.core.state import PathKey
from tests.core.reference import kkt_report, lagrangian_value


class TestLagrangianValue:
    def test_zero_prices_reduce_to_utility(self, base_ts):
        lat = {n: 10.0 for n in base_ts.subtask_names}
        value = lagrangian_value(base_ts, lat, {}, {})
        assert value == pytest.approx(base_ts.total_utility(lat))

    def test_price_on_violated_resource_lowers_value(self, base_ts):
        lat = {n: 3.0 for n in base_ts.subtask_names}   # overloads resources
        free = lagrangian_value(base_ts, lat, {}, {})
        priced = lagrangian_value(base_ts, lat, {"r0": 10.0}, {})
        assert priced < free

    def test_price_on_slack_resource_raises_value(self, base_ts):
        lat = {n: 20.0 for n in base_ts.subtask_names}  # slack on resources
        free = lagrangian_value(base_ts, lat, {}, {})
        priced = lagrangian_value(base_ts, lat, {"r0": 10.0}, {})
        assert priced > free

    def test_path_price_term(self, base_ts):
        lat = {n: 5.0 for n in base_ts.subtask_names}
        key = PathKey("T3", 0)
        t3 = base_ts.task("T3")
        path_lat = t3.graph.path_latency(t3.graph.paths[0], lat)
        slack = t3.critical_time - path_lat
        free = lagrangian_value(base_ts, lat, {}, {})
        priced = lagrangian_value(base_ts, lat, {}, {key: 2.0})
        assert priced - free == pytest.approx(2.0 * slack)


class TestKKTReport:
    @pytest.fixture(scope="class")
    def converged(self):
        from repro.workloads.paper import base_workload
        ts = base_workload()
        result = LLAOptimizer(ts, LLAConfig(max_iterations=1500)).run()
        return ts, result

    def test_near_zero_residuals_at_optimum(self, converged):
        ts, result = converged
        report = kkt_report(ts, result.latencies, result.resource_prices,
                            result.path_prices)
        assert report.max_stationarity() < 1e-2
        assert report.max_primal() < 1e-2
        assert report.max_complementary() < 0.2
        assert report.is_approximately_optimal(
            stationarity_tol=1e-2, primal_tol=1e-2, complementary_tol=0.2
        )

    def test_detects_non_optimal_point(self, converged):
        ts, _result = converged
        arbitrary = {n: 10.0 for n in ts.subtask_names}
        report = kkt_report(ts, arbitrary, {r: 1.0 for r in ts.resources}, {})
        assert not report.is_approximately_optimal()

    def test_primal_residuals_flag_violations(self, base_ts):
        tight = {n: 1.5 for n in base_ts.subtask_names}
        report = kkt_report(base_ts, tight, {}, {})
        assert report.max_primal() > 0.1
        assert any(v > 0 for v in report.primal_resource.values())
