"""Integration tests for the distributed LLA runtime (Section 4.1)."""

import math

import pytest

from repro.core.optimizer import LLAConfig, LLAOptimizer
from repro.core.stepsize import FixedStepSize
from repro.distributed import (
    DistributedConfig,
    DistributedLLARuntime,
    LocalGamma,
    TaskControllerAgent,
)
from repro.errors import DistributedError, OptimizationError
from repro.model.utility import ExponentialUtility
from repro.workloads.paper import base_workload


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"seed": -1},
        {"initial_resource_price": 0.0},
        {"initial_resource_price": -1.0},
        {"initial_path_price": -0.5},
    ])
    def test_rejects_unvalidated_knobs(self, kwargs):
        # Regression (REP015): these knobs used to sail through
        # construction unvalidated.
        with pytest.raises(DistributedError):
            DistributedConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [
        "initial_resource_price", "initial_path_price", "initial_gamma",
        "max_gamma", "max_latency_factor",
    ])
    def test_rejects_non_finite_tunables(self, name, value):
        # Regression: NaN passed every sign and ordering check.
        with pytest.raises(DistributedError, match=f"{name} must be finite"):
            DistributedConfig(**{name: value})

    def test_refuses_a_model_outside_the_kernel_family(self):
        """A convex utility is refused at construction, naming it, as
        LLAOptimizer refuses it; the runtime has no object-graph path."""
        taskset = base_workload()
        task = taskset.tasks[0]
        task.utility = ExponentialUtility(task.critical_time)
        with pytest.raises(OptimizationError, match="ExponentialUtility"):
            DistributedLLARuntime(taskset)


class TestEquivalence:
    def test_matches_centralized_under_ideal_bus(self):
        """Zero delay, no loss, fixed γ: the message-passing runtime must
        produce bit-for-bit the in-process optimizer's iterates."""
        central = LLAOptimizer(
            base_workload(),
            LLAConfig(step_policy=FixedStepSize(1.0), max_iterations=100,
                      stop_on_convergence=False),
        ).run()
        distributed = DistributedLLARuntime(
            base_workload(),
            DistributedConfig(rounds=100, adaptive=False),
        ).run()
        for name, lat in central.latencies.items():
            assert distributed.latencies[name] == pytest.approx(lat, abs=1e-12)
        for rname, price in central.resource_prices.items():
            assert distributed.resource_prices[rname] == \
                pytest.approx(price, abs=1e-12)

    def test_matches_centralized_with_log_and_quadratic_utilities(self):
        """The task controllers solve log/quadratic tasks with the
        kernel's own exact solve, so the runtime stays bitwise-equal to
        the (vectorized) in-process optimizer."""
        from tests.core.test_concave import nonlinear_taskset
        central = LLAOptimizer(
            nonlinear_taskset(),
            LLAConfig(step_policy=FixedStepSize(1.0), max_iterations=100,
                      stop_on_convergence=False),
        ).run()
        distributed = DistributedLLARuntime(
            nonlinear_taskset(),
            DistributedConfig(rounds=100, adaptive=False),
        ).run()
        assert distributed.latencies == central.latencies
        assert distributed.resource_prices == central.resource_prices

    def test_adaptive_converges_to_optimum(self):
        ts = base_workload()
        result = DistributedLLARuntime(
            ts, DistributedConfig(rounds=1500, adaptive=True)
        ).run()
        assert result.converged
        assert ts.is_feasible(result.latencies, tol=1e-2)
        for task in ts.tasks:
            _, crit = task.critical_path(result.latencies)
            assert crit == pytest.approx(task.critical_time, rel=0.02)


class TestFaultTolerance:
    def test_converges_under_message_loss(self):
        ts = base_workload()
        result = DistributedLLARuntime(
            ts,
            DistributedConfig(rounds=1500, loss_probability=0.1, seed=3),
        ).run()
        assert ts.is_feasible(result.latencies, tol=1e-2)

    def test_converges_under_delay_and_jitter(self):
        ts = base_workload()
        result = DistributedLLARuntime(
            ts,
            DistributedConfig(rounds=1500, delay=2, jitter=2, seed=5),
        ).run()
        assert ts.is_feasible(result.latencies, tol=1e-2)

    def test_recovers_from_partition(self):
        ts = base_workload()
        runtime = DistributedLLARuntime(ts, DistributedConfig(rounds=1500))
        # Partition T1's controller from r0 for the first 200 rounds.
        runtime.bus.partition("controller:T1", "resource:r0")
        for _ in range(200):
            runtime.step()
        runtime.bus.heal("controller:T1", "resource:r0")
        result = runtime.run(1300)
        assert ts.is_feasible(result.latencies, tol=1e-2)

    def test_paused_resource_agent_freezes_price(self):
        ts = base_workload()
        runtime = DistributedLLARuntime(ts, DistributedConfig(rounds=10))
        runtime.step()
        frozen = runtime.resources["r0"].price
        runtime.resources["r0"].paused = True
        for _ in range(5):
            runtime.step()
        assert runtime.resources["r0"].price == frozen


class TestAgents:
    def test_resource_agent_waits_for_all_latencies(self):
        ts = base_workload()
        runtime = DistributedLLARuntime(ts, DistributedConfig())
        agent = runtime.resources["r0"]
        assert agent.load() is None     # nothing heard yet
        runtime.step()
        assert agent.load() is not None

    def test_controller_tracks_only_own_resources(self):
        ts = base_workload()
        runtime = DistributedLLARuntime(ts, DistributedConfig())
        controller = runtime.controllers["T1"]
        used = {s.resource for s in ts.task("T1").subtasks}
        assert set(controller.resource_prices) == used

    def test_history_recorded(self):
        ts = base_workload()
        runtime = DistributedLLARuntime(
            ts, DistributedConfig(rounds=20, record_history=True)
        )
        result = runtime.run()
        assert len(result.history) == 20
        assert result.history[5].iteration == 6


class TestLocalGamma:
    def test_adaptive_doubling_and_reset(self):
        gamma = LocalGamma(initial=1.0, max_gamma=8.0)
        assert gamma.observe(True) == 2.0
        assert gamma.observe(True) == 4.0
        assert gamma.observe(True) == 8.0
        assert gamma.observe(True) == 8.0   # capped
        assert gamma.observe(False) == 1.0  # reverts

    def test_frozen_when_adapt_off(self):
        gamma = LocalGamma(initial=2.0, adapt=False)
        assert gamma.observe(True) == 2.0
        assert gamma.observe(False) == 2.0


class TestControllerRestart:
    def test_controller_crash_and_restart_reconverges(self):
        """A controller losing all state (crash) re-initializes its path
        prices and latencies; the protocol re-converges around it."""
        ts = base_workload()
        runtime = DistributedLLARuntime(
            ts, DistributedConfig(record_history=False)
        )
        for _ in range(1500):
            runtime.step()
        utility_before = ts.total_utility(runtime.global_latencies())

        # Crash: replace T1's controller with a fresh instance (λ = 0,
        # price view reset to the protocol's initial value).
        runtime.controllers["T1"] = TaskControllerAgent(
            ts, ts.task("T1"), runtime.bus
        )
        for _ in range(2000):
            runtime.step()
        latencies = runtime.global_latencies()
        assert ts.is_feasible(latencies, tol=1e-2)
        assert ts.total_utility(latencies) == pytest.approx(
            utility_before, abs=1.0
        )
