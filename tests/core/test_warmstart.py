"""Tests for warm-start price initialization."""

import math

import pytest

from repro.core.optimizer import LLAConfig, LLAOptimizer
from repro.core.warmstart import (
    apply_warm_start,
    warm_start_resource_prices,
)
from repro.model.share import CorrectedShare, PowerLawShare
from repro.model.utility import LogUtility
from repro.workloads.paper import base_workload, scaled_workload
from tests.conftest import make_chain_taskset


class TestEstimate:
    def test_formula_on_chain(self):
        ts = make_chain_taskset(n_subtasks=3, exec_time=2.0, lag=1.0)
        prices = warm_start_resource_prices(ts)
        # One subtask per resource, cost 3, weight 1: sqrt(mu) = sqrt(3)/1.
        for rname in ts.resources:
            assert prices[rname] == pytest.approx(3.0)

    def test_accounts_for_weights_and_slope(self, base_ts):
        prices = warm_start_resource_prices(base_ts)
        # r0 hosts T11 (cost 3, weight 4), T21 (cost 3, weight 3),
        # T31 (cost 4, weight 1).
        expected = (
            math.sqrt(3.0 * 4) + math.sqrt(3.0 * 3) + math.sqrt(4.0 * 1)
        ) ** 2
        assert prices["r0"] == pytest.approx(expected)

    def test_falls_back_for_nonlinear_utility(self):
        ts = make_chain_taskset()
        ts.tasks[0].utility = LogUtility(ts.tasks[0].critical_time)
        prices = warm_start_resource_prices(ts, default=7.0)
        assert all(v == 7.0 for v in prices.values())

    def test_mixed_taskset_falls_back_per_resource(self):
        """Only the resource hosting the out-of-closed-form subtask falls
        back; resources whose subtasks all fit the formula keep their
        estimates."""
        ts = make_chain_taskset(n_subtasks=3, exec_time=2.0, lag=1.0)
        ts.set_share_function("s1", PowerLawShare(cost=3.0, alpha=2.0))
        prices = warm_start_resource_prices(ts, default=7.0)
        assert prices["r0"] == pytest.approx(3.0)
        assert prices["r1"] == 7.0   # power-law share: not estimable
        assert prices["r2"] == pytest.approx(3.0)

    def test_corrected_share_unwraps_to_base(self):
        ts = make_chain_taskset(n_subtasks=2, exec_time=2.0, lag=1.0)
        base = ts.share_function("s0")
        ts.set_share_function("s0", CorrectedShare(base, error=-0.5))
        prices = warm_start_resource_prices(ts, default=7.0)
        # The correction offset does not change the equilibrium estimate.
        assert prices["r0"] == pytest.approx(3.0)

    def test_blacked_out_resource_falls_back_to_default(self):
        """Regression: a full capacity shock (availability 0) used to
        crash the estimate with a ZeroDivisionError; it must fall back
        to the default price for the shocked resource and keep the
        closed-form estimate everywhere else."""
        ts = make_chain_taskset(n_subtasks=3, exec_time=2.0, lag=1.0)
        ts.set_availability("r1", 0.0)
        prices = warm_start_resource_prices(ts, default=5.0)
        assert prices["r1"] == 5.0
        assert prices["r0"] == pytest.approx(3.0)
        assert prices["r2"] == pytest.approx(3.0)
        assert all(math.isfinite(v) for v in prices.values())


class TestIntegration:
    def test_apply_updates_optimizer(self, base_ts):
        opt = LLAOptimizer(base_ts, LLAConfig())
        applied = apply_warm_start(opt)
        assert opt.resource_prices == applied
        assert applied["r0"] > 1.0

    def test_config_flag(self, base_ts):
        opt = LLAOptimizer(base_ts, LLAConfig(warm_start=True))
        cold = warm_start_resource_prices(base_ts)
        assert opt.resource_prices == pytest.approx(cold)

    def test_warm_start_speeds_up_overprovisioned_convergence(self):
        # In the Figure 6 regime the estimate is not exact (latencies pin
        # at the rate bound, not at saturation) but the head start still
        # dominates a cold start.
        def iterations_to_converge(warm):
            ts = scaled_workload(2, critical_time_factor=20.0)
            config = LLAConfig(max_iterations=2000, warm_start=warm)
            return LLAOptimizer(ts, config).run().iterations

        assert iterations_to_converge(True) <= iterations_to_converge(False)

    def test_warm_start_reaches_same_optimum(self, base_ts):
        from repro.workloads.paper import base_workload
        cold = LLAOptimizer(base_workload(),
                            LLAConfig(max_iterations=2500)).run()
        warm = LLAOptimizer(base_workload(),
                            LLAConfig(max_iterations=2500,
                                      warm_start=True)).run()
        assert warm.utility == pytest.approx(cold.utility, abs=0.5)

    def test_reset_reapplies_warm_start(self, base_ts):
        opt = LLAOptimizer(base_ts, LLAConfig(warm_start=True,
                                              max_iterations=50))
        initial = opt.resource_prices
        opt.run(20)
        opt.reset()
        assert opt.resource_prices == pytest.approx(initial)

    def test_apply_after_iterating_matches_fresh_optimizer(self):
        """Regression: applying a warm start to an optimizer that already
        iterated used to leave the previous run's path prices (and
        step-size escalation) in place, so its state diverged from a
        fresh warm-started optimizer.  After ``apply_warm_start`` the two
        must hold identical duals and then walk identical trajectories.
        """
        config = LLAConfig(max_iterations=500, stop_on_convergence=False)
        stale = LLAOptimizer(base_workload(), config)
        stale.run(40)
        apply_warm_start(stale)
        fresh = LLAOptimizer(
            base_workload(),
            LLAConfig(max_iterations=500, stop_on_convergence=False,
                      warm_start=True),
        )
        assert stale.resource_prices == pytest.approx(
            fresh.resource_prices)
        assert stale._engine.path_prices_dict() == pytest.approx(
            fresh._engine.path_prices_dict())
        assert stale.latencies == pytest.approx(fresh.latencies)
        for _ in range(30):
            stale.step()
            fresh.step()
        assert stale.latencies == pytest.approx(fresh.latencies)
        assert stale.resource_prices == pytest.approx(
            fresh.resource_prices)
