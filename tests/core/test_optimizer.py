"""Integration-grade unit tests for the LLA optimizer."""

import math
import struct

import pytest

from repro.baselines.centralized import solve_centralized
from repro.core.optimizer import LLAConfig, LLAOptimizer
from repro.core.stepsize import (
    DEFAULT_MAX_GAMMA,
    AdaptiveStepSize,
    FixedStepSize,
)
from repro.core.structure import compile_structure
from repro.core.vectorized import VectorizedEngine
from repro.core.warmstart import apply_warm_start
from repro.errors import OptimizationError
from repro.model.task import TaskSet
from repro.model.utility import ExponentialUtility
from repro.workloads.paper import base_workload, prototype_workload
from tests.conftest import MIXED_RESOURCES, make_chain_taskset, mixed_task


class TestConvergence:
    def test_base_workload_converges(self, base_ts):
        result = LLAOptimizer(base_ts, LLAConfig(max_iterations=1500)).run()
        assert result.converged
        assert base_ts.is_feasible(result.latencies, tol=1e-2)

    def test_matches_centralized_optimum(self, base_ts):
        result = LLAOptimizer(base_ts, LLAConfig(max_iterations=1500)).run()
        oracle = solve_centralized(base_ts)
        assert result.utility == pytest.approx(oracle.utility, abs=0.5)

    def test_critical_paths_bind(self, base_ts):
        # The saturated workload pins every task at its critical time.
        result = LLAOptimizer(base_ts, LLAConfig(max_iterations=1500)).run()
        for task in base_ts.tasks:
            _, crit = task.critical_path(result.latencies)
            assert crit == pytest.approx(task.critical_time, rel=0.01)

    def test_single_chain_task(self):
        ts = make_chain_taskset()
        result = LLAOptimizer(ts, LLAConfig(max_iterations=800)).run()
        assert result.converged
        assert ts.is_feasible(result.latencies, tol=1e-2)

    def test_prices_stay_nonnegative(self, base_ts):
        opt = LLAOptimizer(base_ts, LLAConfig(max_iterations=100,
                                              stop_on_convergence=False))
        result = opt.run()
        for record in result.history:
            assert all(v >= 0.0 for v in record.resource_prices.values())
            assert all(v >= 0.0 for v in record.path_prices.values())

    def test_latencies_within_bounds_every_iteration(self, base_ts):
        opt = LLAOptimizer(base_ts, LLAConfig(max_iterations=100,
                                              stop_on_convergence=False))
        result = opt.run()
        for record in result.history:
            for task in base_ts.tasks:
                for sub in task.subtasks:
                    lat = record.latencies[sub.name]
                    assert lat > 0.0
                    assert lat <= task.critical_time + 1e-9


class TestMechanics:
    def test_history_recorded(self, base_ts):
        result = LLAOptimizer(
            base_ts, LLAConfig(max_iterations=20, stop_on_convergence=False)
        ).run()
        assert len(result.history) == 20
        assert result.history[0].iteration == 1
        assert len(result.utility_trace()) == 20

    def test_history_disabled(self, base_ts):
        result = LLAOptimizer(
            base_ts,
            LLAConfig(max_iterations=20, record_history=False,
                      stop_on_convergence=False),
        ).run()
        assert result.history == []

    def test_on_iteration_callback(self, base_ts):
        seen = []
        opt = LLAOptimizer(
            base_ts,
            LLAConfig(max_iterations=5, stop_on_convergence=False),
            on_iteration=seen.append,
        )
        opt.run()
        assert [r.iteration for r in seen] == [1, 2, 3, 4, 5]

    def test_step_returns_record(self, base_ts):
        opt = LLAOptimizer(base_ts, LLAConfig())
        record = opt.step()
        assert record.iteration == 1
        assert set(record.latencies) == set(base_ts.subtask_names)
        assert set(record.resource_loads) == set(base_ts.resources)

    def test_reset_restores_initial_state(self, base_ts):
        opt = LLAOptimizer(base_ts, LLAConfig(max_iterations=50,
                                              stop_on_convergence=False))
        initial = dict(opt.latencies)
        opt.run()
        opt.reset()
        assert opt.iteration == 0
        assert opt.latencies == pytest.approx(initial)
        assert all(
            v == opt.config.initial_resource_price
            for v in opt.resource_prices.values()
        )

    def test_deterministic(self, base_ts):
        from repro.workloads.paper import base_workload
        r1 = LLAOptimizer(base_workload(), LLAConfig(max_iterations=100)).run()
        r2 = LLAOptimizer(base_workload(), LLAConfig(max_iterations=100)).run()
        assert r1.latencies == pytest.approx(r2.latencies)

    def test_load_trace(self, base_ts):
        result = LLAOptimizer(
            base_ts, LLAConfig(max_iterations=10, stop_on_convergence=False)
        ).run()
        trace = result.load_trace("r0")
        assert len(trace) == 10


class TestConfig:
    def test_rejects_zero_iterations(self, base_ts):
        with pytest.raises(OptimizationError):
            LLAOptimizer(base_ts, LLAConfig(max_iterations=0))

    @pytest.mark.parametrize("kwargs", [
        {"initial_resource_price": 0.0},
        {"initial_resource_price": -1.0},
        {"initial_path_price": -0.5},
    ])
    def test_rejects_bad_initial_prices(self, kwargs):
        # Regression (REP015): these knobs used to sail through
        # construction unvalidated.
        with pytest.raises(OptimizationError):
            LLAConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [
        "initial_gamma", "initial_resource_price", "initial_path_price",
        "utility_tol", "feasibility_tol", "utility_floor", "congestion_tol",
        "max_latency_factor",
    ])
    def test_rejects_non_finite_tunables(self, name, value):
        """Regression: NaN passed every sign check (and +inf the price
        checks), so a NaN γ or price ran the whole budget and returned
        utility nan."""
        with pytest.raises(OptimizationError, match=f"{name} must be finite"):
            LLAConfig(**{name: value})

    def test_rejects_initial_gamma_above_the_default_cap(self, base_ts):
        """Without a step policy the default adaptive one is built, whose
        cap (8) may not be below its start."""
        with pytest.raises(OptimizationError, match="initial_gamma"):
            LLAConfig(initial_gamma=DEFAULT_MAX_GAMMA * 2)
        LLAConfig(initial_gamma=DEFAULT_MAX_GAMMA)
        # An explicit policy owns its own γ; initial_gamma is unused.
        LLAConfig(initial_gamma=DEFAULT_MAX_GAMMA * 2,
                  step_policy=AdaptiveStepSize(base_ts, initial_gamma=16.0,
                                               max_gamma=64.0))

    def test_fixed_factory(self):
        config = LLAConfig.fixed(0.5, max_iterations=10)
        assert isinstance(config.step_policy, FixedStepSize)
        assert config.max_iterations == 10

    def test_nonconcave_utility_refused_at_construction(self):
        """The convex exponential utility is outside the paper's concave
        model; the optimizer names it instead of running it."""
        ts = make_chain_taskset()
        ts.tasks[0].utility = ExponentialUtility(ts.tasks[0].critical_time)
        with pytest.raises(OptimizationError, match="ExponentialUtility"):
            LLAOptimizer(ts)

    def test_refresh_model_after_share_swap(self, base_ts):
        from repro.model.share import CorrectedShare
        opt = LLAOptimizer(base_ts, LLAConfig())
        base = base_ts.share_function("T11")
        base_ts.set_share_function("T11", CorrectedShare(base, error=2.0))
        opt.refresh_model()
        structure = opt.structure
        lo = structure.lo[structure.subtask_names.index("T11")]
        assert lo == pytest.approx(base.min_latency(1.0) + 2.0)

    def test_scalar_backend_is_refused(self):
        """LLA runs on one kernel, whose backend name is the only one
        accepted."""
        assert LLAConfig().backend == "vectorized"
        with pytest.raises(OptimizationError, match="'scalar'"):
            LLAConfig(backend="scalar")


def _mixed_taskset():
    """The 4-task mixed workload: linear, inelastic, log and quadratic
    utilities over hyperbolic, power-law and corrected shares."""
    return TaskSet([mixed_task(i) for i in range(4)], MIXED_RESOURCES,
                   allow_shared_resources=True)


_WORKLOADS = {"base": base_workload, "prototype": prototype_workload,
              "mixed": _mixed_taskset}
_STEP_POLICIES = {"fixed": FixedStepSize(1.0), "adaptive": None}


class TestStructureOnly:
    """An optimizer built on a compiled structure alone."""

    @pytest.mark.parametrize("policy", sorted(_STEP_POLICIES))
    @pytest.mark.parametrize("workload", sorted(_WORKLOADS))
    def test_iterates_equal_a_taskset_built_optimizer(self, workload,
                                                      policy):
        """300 steps, with adopt_prices at step 100 and reset at step
        200, give the task-set-built optimizer's latencies, μ, λ, loads
        and utility by bit pattern."""
        ts = _WORKLOADS[workload]()
        config = LLAConfig(step_policy=_STEP_POLICIES[policy],
                           stop_on_convergence=False)
        from_taskset = LLAOptimizer(ts, config)
        from_structure = LLAOptimizer(
            compile_structure(ts, config.max_latency_factor), config)
        assert from_taskset.taskset is ts
        assert from_structure.taskset is None
        pair = (from_taskset, from_structure)
        for k in range(300):
            if k == 100:
                warm = {r: 1.5 * price for r, price
                        in from_taskset.resource_prices.items()}
                for opt in pair:
                    opt.adopt_prices(warm)
            elif k == 200:
                for opt in pair:
                    opt.reset()
            if k in (100, 200):
                assert from_taskset.latencies == from_structure.latencies
            a, b = (opt.step() for opt in pair)
            for name in ("lat", "mu", "lam", "loads"):
                assert getattr(a.arrays, name).tobytes() == \
                    getattr(b.arrays, name).tobytes(), (k, name)
            assert struct.pack("<d", a.utility) == \
                struct.pack("<d", b.utility), k

    def test_refuses_what_reads_the_task_set(self):
        """refresh_model() and a warm start read the object model, which
        a structure-only optimizer does not have."""
        structure = compile_structure(base_workload())
        opt = LLAOptimizer(structure, LLAConfig())
        with pytest.raises(OptimizationError, match="refresh_model"):
            opt.refresh_model()
        with pytest.raises(OptimizationError, match="warm start"):
            apply_warm_start(opt)
        with pytest.raises(OptimizationError, match="warm start"):
            LLAOptimizer(structure, LLAConfig(warm_start=True))

    def test_refuses_a_structure_of_another_clamp(self):
        structure = compile_structure(base_workload(), max_latency_factor=2.0)
        with pytest.raises(OptimizationError, match="max_latency_factor"):
            LLAOptimizer(structure, LLAConfig())


class TestOneCopyOfTheIterate:
    """The engine's arrays are the only copy of the iterate."""

    @pytest.mark.parametrize("problem", ["taskset", "structure"])
    @pytest.mark.parametrize("workload", sorted(_WORKLOADS))
    def test_each_re_solve_runs_eq7_once(self, workload, problem,
                                         monkeypatch):
        """Construction, adopt_prices and reset() each solve Eq. 7 once,
        as a step does."""
        solves = []
        allocate = VectorizedEngine._allocate

        def counted(engine):
            solves.append(1)
            return allocate(engine)

        monkeypatch.setattr(VectorizedEngine, "_allocate", counted)
        ts = _WORKLOADS[workload]()
        opt = LLAOptimizer(ts if problem == "taskset"
                           else compile_structure(ts), LLAConfig())
        assert len(solves) == 1
        for _ in range(10):
            opt.step()
        assert len(solves) == 11
        opt.adopt_prices({r: 1.5 * price
                          for r, price in opt.resource_prices.items()})
        assert len(solves) == 12
        opt.reset()
        assert len(solves) == 13

    def test_resource_prices_are_a_new_map_of_mu(self):
        opt = LLAOptimizer(base_workload(), LLAConfig())
        for _ in range(10):
            opt.step()
        prices = opt.resource_prices
        assert prices is not opt.resource_prices
        assert list(prices.values()) == opt._engine.mu.tolist()
        prices["r0"] = 99.0
        assert opt.resource_prices["r0"] != 99.0

    def test_a_partial_map_keeps_the_other_prices(self):
        opt = LLAOptimizer(base_workload(), LLAConfig())
        for _ in range(10):
            opt.step()
        before = opt.resource_prices
        opt.adopt_prices({"r0": 2.5})
        assert opt.resource_prices == {**before, "r0": 2.5}
        with pytest.raises(OptimizationError, match="unknown resources"):
            opt.adopt_prices({"r0": 1.0, "nowhere": 1.0})
        assert opt.resource_prices == {**before, "r0": 2.5}
