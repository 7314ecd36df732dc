"""Parity tests: the LLA kernel must reproduce the per-element loops.

The kernel (:mod:`repro.core.vectorized`) batches the paper's per-element
equations; the reference (:class:`tests.core.reference.ScalarLLA`) runs
them one task and one resource at a time.  The acceptance bar is
element-wise closeness (rtol ≤ 1e-9) of latencies, prices and utility
over full figure runs, and the implementation actually delivers
bitwise-identical trajectories (every reduction is ordered like its
per-element counterpart), which these tests pin down so a ulp regression
is caught before it flips an adaptive-γ branch.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.optimizer import LLAConfig, LLAOptimizer
from repro.core.stepsize import AdaptiveStepSize, FixedStepSize
from repro.core.structure import compile_structure
from repro.core.vectorized import _AdaptiveGammas, _saturation_depth
from repro.errors import OptimizationError
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6
from repro.model.share import PowerLawShare, ShareFunction
from repro.model.utility import ExponentialUtility
from repro.workloads.paper import (
    base_workload,
    prototype_workload,
    scaled_workload,
)
from tests.conftest import make_chain_taskset
from tests.core.reference import ScalarLLA
from tests.core.test_inelastic import mixed_taskset


def _pair(taskset_factory, **config_kwargs):
    """The reference and the optimizer over fresh task-set copies."""
    return (ScalarLLA(taskset_factory(), LLAConfig(**config_kwargs)),
            LLAOptimizer(taskset_factory(), LLAConfig(**config_kwargs)))


def reference_fig5(iterations=500, gammas=(0.1, 1.0, 10.0)):
    """run_fig5's four utility traces, from the reference loops."""
    traces = {}
    for gamma in gammas:
        traces[f"gamma={gamma:g}"] = ScalarLLA(base_workload(), LLAConfig(
            step_policy=FixedStepSize(gamma), max_iterations=iterations,
            stop_on_convergence=False,
        )).run().utility_trace()
    taskset = base_workload()
    traces["adaptive"] = ScalarLLA(taskset, LLAConfig(
        step_policy=AdaptiveStepSize(taskset, initial_gamma=1.0),
        max_iterations=iterations, stop_on_convergence=False,
    )).run().utility_trace()
    return traces


def reference_fig6(copies=(1, 2, 4), iterations=500):
    """run_fig6's runs (unbounded adaptive γ), from the reference loops:
    task count → result."""
    results = {}
    for c in copies:
        taskset = scaled_workload(c, critical_time_factor=20.0)
        results[len(taskset.tasks)] = ScalarLLA(taskset, LLAConfig(
            step_policy=AdaptiveStepSize(taskset, initial_gamma=1.0,
                                         max_gamma=1e6),
            max_iterations=iterations, stop_on_convergence=False,
        )).run()
    return results


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


def _bits(values):
    """The float64 bit patterns of ``values``: ±0.0 and every ulp differ."""
    return np.asarray(list(values), dtype=np.float64).view(np.uint64)


def assert_records_bitwise(scalar, vector):
    """Two IterationRecords equal bit for bit, the sign bits of λ
    included (``pytest.approx`` treats ±0.0 as equal)."""
    assert vector.iteration == scalar.iteration
    assert _bits([vector.utility]) == _bits([scalar.utility])
    for field in ("latencies", "resource_prices", "path_prices",
                  "resource_loads", "critical_paths"):
        s, v = getattr(scalar, field), getattr(vector, field)
        assert set(v) == set(s), field
        keys = sorted(s)
        assert np.array_equal(_bits(v[k] for k in keys),
                              _bits(s[k] for k in keys)), field
    assert set(vector.congested_resources) == set(scalar.congested_resources)
    assert set(vector.congested_paths) == set(scalar.congested_paths)


class TestFigureRunParity:
    def test_fig5_full_run(self):
        """All four Figure 5 series (fixed γ ∈ {0.1, 1, 10} + adaptive)
        produce the reference's utility traces."""
        scalar = reference_fig5()
        vector = run_fig5()
        assert set(vector.series) == set(scalar)
        for label, utilities in scalar.items():
            np.testing.assert_allclose(
                vector.series[label].utilities, utilities,
                rtol=1e-9, atol=0.0, err_msg=label,
            )

    def test_fig6_full_run(self):
        """The ×1/×2/×4 scaling runs (unbounded adaptive γ) match too."""
        scalar = reference_fig6()
        vector = run_fig6()
        assert set(vector.points) == set(scalar)
        for n, result in scalar.items():
            np.testing.assert_allclose(
                vector.points[n].utilities, result.utility_trace(),
                rtol=1e-9, atol=0.0, err_msg=f"{n} tasks",
            )
            assert vector.points[n].final_utility == pytest.approx(
                result.utility, rel=1e-9, abs=0.0
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
        s_opt = ScalarLLA(ts_s, LLAConfig(**config(ts_s)))
        v_opt = LLAOptimizer(ts_v, LLAConfig(**config(ts_v)))
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

    def test_prototype_idle_switching_records(self):
        """The Section 6.2 prototype under adaptive γ: the path prices
        leave and re-enter idle many times in 1,500 steps, so every
        skipped Eq. 9 update and every replay of the queued γ_p masks is
        checked, bit for bit."""
        s_opt, v_opt = _pair(prototype_workload, max_iterations=1500,
                             stop_on_convergence=False)
        for _ in range(1500):
            assert_records_bitwise(s_opt.step(), v_opt.step())

    def test_negative_zero_initial_path_price_records(self):
        """λ = −0.0 is not idle: Eq. 9 must run and write +0.0, as the
        per-element update does."""
        s_opt, v_opt = _pair(base_workload, initial_path_price=-0.0,
                             max_iterations=300, stop_on_convergence=False)
        for _ in range(300):
            assert_records_bitwise(s_opt.step(), v_opt.step())

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


#: (initial γ, growth, cap) → K, the escalations from the start to the
#: cap; the last one is counted only past the 64 queued masks.
GAMMA_PARAMS = {
    (1.0, 2.0, 1.0): 0,
    (1.0, 2.0, 2.0): 1,
    (1.0, 2.0, 8.0): 3,
    (1.0, 2.0, 1e6): 20,
    (1.0, 1.01, 8.0): 65,
}


@st.composite
def mask_runs(draw, n_res, n_path):
    """Congestion masks in runs of repeats (so long coverage streaks
    occur), the steps after which γ_p is read and those after which
    both suppliers are reset."""
    steps = []
    for _ in range(draw(st.integers(1, 5))):
        cong_r = np.array(draw(st.lists(st.booleans(), min_size=n_res,
                                        max_size=n_res)))
        cong_p = np.array(draw(st.lists(st.booleans(), min_size=n_path,
                                        max_size=n_path)))
        steps += [(cong_r, cong_p)] * draw(st.integers(1, 150))
    indices = st.integers(0, len(steps) - 1)
    return steps, draw(st.sets(indices)), draw(st.sets(indices, max_size=2))


class TestLazyPathGammas:
    """γ_p applied on read equals the per-element policy updated every
    step, bit for bit, whatever the read cadence."""

    taskset = base_workload()
    structure = compile_structure(taskset)

    @pytest.mark.parametrize("params, depth", GAMMA_PARAMS.items(),
                             ids=[f"K={k}" for k in GAMMA_PARAMS.values()])
    def test_saturation_depth(self, params, depth):
        assert _saturation_depth(*params) == depth

    @pytest.mark.parametrize("params", GAMMA_PARAMS,
                             ids=[f"K={k}" for k in GAMMA_PARAMS.values()])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_eager_policy(self, params, data):
        s = self.structure
        steps, reads, resets = data.draw(
            mask_runs(s.n_resources, s.n_paths))
        initial, growth, cap = params
        lazy = _AdaptiveGammas(initial, growth, cap, s)
        eager = AdaptiveStepSize(self.taskset, initial_gamma=initial,
                                 growth=growth, max_gamma=cap)
        eager.reset()
        for i, (cong_r, cong_p) in enumerate(steps):
            lazy.observe(cong_r, cong_p)
            eager.observe(
                [s.resource_names[r] for r in np.flatnonzero(cong_r)],
                [s.path_keys[p] for p in np.flatnonzero(cong_p)],
            )
            assert np.array_equal(
                lazy.resource_gammas().view(np.uint64),
                _bits(eager.resource_gamma(r) for r in s.resource_names))
            if i in reads or i == len(steps) - 1:
                assert np.array_equal(
                    lazy.path_gammas().view(np.uint64),
                    _bits(eager.path_gamma(k) for k in s.path_keys)), i
            if i in resets:
                lazy.reset()
                eager.reset()


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
        opt = LLAOptimizer(ts, LLAConfig(max_iterations=150,
                                         stop_on_convergence=False))
        first = [opt.step().utility for _ in range(150)]
        opt.reset()
        assert opt.iteration == 0
        second = [opt.step().utility for _ in range(150)]
        assert second == first


class TestUnsupportedModels:
    def test_nonclosed_form_utility_rejected(self):
        # Log and quadratic utilities compile; the convex exponential
        # utility is outside the paper's concave model and is refused.
        ts = make_chain_taskset()
        ts.tasks[0].utility = ExponentialUtility(ts.tasks[0].critical_time)
        with pytest.raises(OptimizationError, match="ExponentialUtility"):
            LLAOptimizer(ts)

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
        with pytest.raises(OptimizationError, match="OddShare"):
            LLAOptimizer(ts)

    def test_custom_step_policy_rejected(self):
        """Only exact FixedStepSize/AdaptiveStepSize fold into the kernel;
        any other policy is refused by name."""
        class HalvedPaths(FixedStepSize):
            def path_gamma(self, path):
                return 0.5 * super().path_gamma(path)

        with pytest.raises(OptimizationError, match="HalvedPaths"):
            LLAOptimizer(make_chain_taskset(),
                         LLAConfig(step_policy=HalvedPaths(1.0)))

    def test_bad_backend_name_rejected(self, base_ts):
        # One kernel: the field accepts only "vectorized".
        assert LLAConfig(backend="vectorized").backend == "vectorized"
        for backend in ("simd", "scalar"):
            with pytest.raises(OptimizationError, match="backend"):
                LLAOptimizer(base_ts, LLAConfig(backend=backend))
