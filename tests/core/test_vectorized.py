"""Parity tests: the vectorized backend must reproduce the scalar one.

The vectorized kernel (:mod:`repro.core.vectorized`) exists purely for
throughput — the acceptance bar is element-wise closeness (rtol ≤ 1e-9) of
latencies, prices and utility over full figure runs, and the implementation
actually delivers bitwise-identical trajectories (every reduction is
ordered like its scalar counterpart), which these tests pin down so a ulp
regression is caught before it flips an adaptive-γ branch.
"""

import numpy as np
import pytest

from repro.core.optimizer import LLAConfig, LLAOptimizer
from repro.core.stepsize import AdaptiveStepSize, FixedStepSize
from repro.errors import OptimizationError
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6
from repro.model.share import PowerLawShare, ShareFunction
from repro.model.utility import ExponentialUtility
from repro.workloads.paper import base_workload
from tests.conftest import make_chain_taskset
from tests.core.test_inelastic import mixed_taskset


def _pair(taskset_factory, **config_kwargs):
    """Two optimizers over fresh task-set copies, one per backend."""
    return tuple(
        LLAOptimizer(taskset_factory(),
                     LLAConfig(backend=backend, **config_kwargs))
        for backend in ("scalar", "vectorized")
    )


def assert_records_match(scalar, vector):
    """Element-wise parity of two IterationRecords (rtol per the ISSUE's
    acceptance bar; in practice the values are bitwise equal)."""
    assert vector.iteration == scalar.iteration
    assert vector.utility == pytest.approx(scalar.utility, rel=1e-9, abs=0.0)
    for field in ("latencies", "resource_prices", "path_prices",
                  "resource_loads", "critical_paths"):
        s, v = getattr(scalar, field), getattr(vector, field)
        assert set(v) == set(s), field
        for key in s:
            assert v[key] == pytest.approx(s[key], rel=1e-9, abs=0.0), \
                (field, key)
    assert set(vector.congested_resources) == set(scalar.congested_resources)
    assert set(vector.congested_paths) == set(scalar.congested_paths)


class TestFigureRunParity:
    def test_fig5_full_run(self):
        """All four Figure 5 series (fixed γ ∈ {0.1, 1, 10} + adaptive)
        produce the same utility trace on both backends."""
        scalar = run_fig5(backend="scalar")
        vector = run_fig5(backend="vectorized")
        assert set(vector.series) == set(scalar.series)
        for label, line in scalar.series.items():
            np.testing.assert_allclose(
                vector.series[label].utilities, line.utilities,
                rtol=1e-9, atol=0.0, err_msg=label,
            )

    def test_fig6_full_run(self):
        """The ×1/×2/×4 scaling runs (unbounded adaptive γ) match too."""
        scalar = run_fig6(backend="scalar")
        vector = run_fig6(backend="vectorized")
        assert set(vector.points) == set(scalar.points)
        for n, point in scalar.points.items():
            np.testing.assert_allclose(
                vector.points[n].utilities, point.utilities,
                rtol=1e-9, atol=0.0, err_msg=f"{n} tasks",
            )
            assert vector.points[n].final_utility == pytest.approx(
                point.final_utility, rel=1e-9, abs=0.0
            )


class TestRecordParity:
    @pytest.mark.parametrize("gamma, path_gamma", [
        (0.1, None), (1.0, None), (10.0, None),
        # Distinct γ_r/γ_p, as the γ-ratio ablation and Fig. 7 run them.
        (1.0, 0.02),
    ], ids=["0.1", "1.0", "10.0", "1.0-path0.02"])
    def test_fixed_step_records(self, gamma, path_gamma):
        s_opt, v_opt = _pair(
            base_workload, step_policy=FixedStepSize(gamma, path_gamma),
            max_iterations=200, stop_on_convergence=False,
        )
        for _ in range(200):
            assert_records_match(s_opt.step(), v_opt.step())

    def test_adaptive_step_records(self):
        def config(ts):
            return dict(step_policy=AdaptiveStepSize(ts, initial_gamma=1.0),
                        max_iterations=300, stop_on_convergence=False)

        ts_s, ts_v = base_workload(), base_workload()
        s_opt = LLAOptimizer(ts_s, LLAConfig(backend="scalar", **config(ts_s)))
        v_opt = LLAOptimizer(ts_v, LLAConfig(backend="vectorized",
                                             **config(ts_v)))
        for _ in range(300):
            assert_records_match(s_opt.step(), v_opt.step())

    def test_inelastic_mixed_records(self):
        """The inelastic-utility branch (step value, zero pull → clamp)
        follows the same trajectory — including through the pull-collapse
        regime where latencies ride the clamps."""
        s_opt, v_opt = _pair(mixed_taskset, max_iterations=400,
                             stop_on_convergence=False)
        for _ in range(400):
            assert_records_match(s_opt.step(), v_opt.step())

    def test_power_law_share_records(self):
        def taskset():
            ts = make_chain_taskset()
            for sub in ts.tasks[0].subtasks:
                ts.set_share_function(sub.name,
                                      PowerLawShare(cost=3.0, alpha=2.0))
            return ts

        s_opt, v_opt = _pair(taskset, max_iterations=150,
                             stop_on_convergence=False)
        for _ in range(150):
            assert_records_match(s_opt.step(), v_opt.step())


class TestFacadeParity:
    def test_run_result(self):
        s_opt, v_opt = _pair(base_workload, max_iterations=400)
        s_res, v_res = s_opt.run(), v_opt.run()
        assert v_res.converged == s_res.converged
        assert v_res.iterations == s_res.iterations
        assert v_res.utility == pytest.approx(s_res.utility,
                                              rel=1e-9, abs=0.0)
        for key, value in s_res.latencies.items():
            assert v_res.latencies[key] == pytest.approx(value, rel=1e-9,
                                                         abs=0.0)
        for key, value in s_res.path_prices.items():
            assert v_res.path_prices[key] == pytest.approx(value, rel=1e-9,
                                                           abs=0.0)

    def test_warm_start(self):
        s_opt, v_opt = _pair(base_workload, warm_start=True,
                             max_iterations=200, stop_on_convergence=False)
        assert v_opt.latencies == pytest.approx(s_opt.latencies, rel=1e-9)
        for _ in range(200):
            assert_records_match(s_opt.step(), v_opt.step())

    def test_reset_reproduces_run(self):
        ts = base_workload()
        opt = LLAOptimizer(ts, LLAConfig(backend="vectorized",
                                         max_iterations=150,
                                         stop_on_convergence=False))
        first = [opt.step().utility for _ in range(150)]
        opt.reset()
        assert opt.iteration == 0
        second = [opt.step().utility for _ in range(150)]
        assert second == first


class TestUnsupportedModels:
    def test_nonclosed_form_utility_rejected(self):
        # Log and quadratic utilities compile; the convex exponential
        # utility still needs the scalar backend's numeric solver.
        ts = make_chain_taskset()
        ts.tasks[0].utility = ExponentialUtility(ts.tasks[0].critical_time)
        with pytest.raises(OptimizationError, match="backend='scalar'"):
            LLAOptimizer(ts, LLAConfig(backend="vectorized"))

    def test_custom_share_function_rejected(self):
        class OddShare(ShareFunction):
            def share(self, latency):
                return 1.0 / latency

            def dshare_dlat(self, latency):
                return -1.0 / latency ** 2

            def latency_for_share(self, share):
                return 1.0 / share

            def min_latency(self, availability):
                return 1.0 / availability

        ts = make_chain_taskset()
        ts.set_share_function("s0", OddShare())
        with pytest.raises(OptimizationError, match="backend='scalar'"):
            LLAOptimizer(ts, LLAConfig(backend="vectorized"))

    def test_custom_step_policy_rejected(self):
        """Only exact FixedStepSize/AdaptiveStepSize fold into the kernel;
        any other policy is refused by name and runs on the scalar
        backend."""
        class HalvedPaths(FixedStepSize):
            def path_gamma(self, path):
                return 0.5 * super().path_gamma(path)

        with pytest.raises(OptimizationError, match="HalvedPaths"):
            LLAOptimizer(make_chain_taskset(), LLAConfig(
                backend="vectorized", step_policy=HalvedPaths(1.0)))
        result = LLAOptimizer(make_chain_taskset(), LLAConfig(
            backend="scalar", step_policy=HalvedPaths(1.0),
            max_iterations=50, stop_on_convergence=False)).run()
        assert result.iterations == 50

    def test_bad_backend_name_rejected(self, base_ts):
        with pytest.raises(OptimizationError, match="backend"):
            LLAOptimizer(base_ts, LLAConfig(backend="simd"))
