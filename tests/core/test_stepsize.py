"""Unit tests for step-size policies (Section 5.2's heuristic)."""

import math

import pytest

from repro.core.state import PathKey
from repro.core.stepsize import AdaptiveStepSize, FixedStepSize
from repro.errors import OptimizationError


class TestFixedStepSize:
    def test_uniform(self):
        policy = FixedStepSize(2.5)
        assert policy.resource_gamma("anything") == 2.5
        assert policy.path_gamma(PathKey("t", 0)) == 2.5

    def test_split_gammas(self):
        policy = FixedStepSize(1.0, path_gamma=0.01)
        assert policy.resource_gamma("r") == 1.0
        assert policy.path_gamma(PathKey("t", 0)) == 0.01

    def test_observe_is_noop(self):
        policy = FixedStepSize(1.0)
        policy.observe(["r0"], [PathKey("t", 0)])
        assert policy.resource_gamma("r0") == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(OptimizationError):
            FixedStepSize(0.0)
        with pytest.raises(OptimizationError):
            FixedStepSize(1.0, path_gamma=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, value):
        # Regression: NaN passed the sign check, and +inf was accepted.
        with pytest.raises(OptimizationError, match="finite"):
            FixedStepSize(value)
        with pytest.raises(OptimizationError, match="finite"):
            FixedStepSize(1.0, path_gamma=value)


class TestAdaptiveStepSize:
    def test_initial_gamma(self, base_ts):
        policy = AdaptiveStepSize(base_ts, initial_gamma=1.0)
        assert policy.resource_gamma("r0") == 1.0

    def test_doubles_while_congested(self, base_ts):
        policy = AdaptiveStepSize(base_ts, initial_gamma=1.0, max_gamma=64.0)
        for expected in (2.0, 4.0, 8.0):
            policy.observe(["r0"], [])
            assert policy.resource_gamma("r0") == expected

    def test_caps_at_max_gamma(self, base_ts):
        policy = AdaptiveStepSize(base_ts, initial_gamma=1.0, max_gamma=4.0)
        for _ in range(10):
            policy.observe(["r0"], [])
        assert policy.resource_gamma("r0") == 4.0

    def test_reverts_when_uncongested(self, base_ts):
        policy = AdaptiveStepSize(base_ts, initial_gamma=1.0)
        policy.observe(["r0"], [])
        policy.observe(["r0"], [])
        assert policy.resource_gamma("r0") == 4.0
        policy.observe([], [])
        assert policy.resource_gamma("r0") == 1.0

    def test_paths_through_congested_resource_double(self, base_ts):
        policy = AdaptiveStepSize(base_ts, initial_gamma=1.0)
        # r3 hosts T14 (task 1) and T27 (task 2).
        policy.observe(["r3"], [])
        t1_paths_via_r3 = [
            PathKey("T1", i)
            for i in base_ts.task("T1").graph.paths_through("T14")
        ]
        for key in t1_paths_via_r3:
            assert policy.path_gamma(key) == 2.0
        # A path not crossing r3 keeps its initial gamma: T3 is a chain on
        # r0,r1,r2,r4,r6,r7.
        assert policy.path_gamma(PathKey("T3", 0)) == 1.0

    def test_unaffected_resources_keep_initial(self, base_ts):
        policy = AdaptiveStepSize(base_ts, initial_gamma=1.0)
        policy.observe(["r0"], [])
        assert policy.resource_gamma("r1") == 1.0

    def test_reset(self, base_ts):
        policy = AdaptiveStepSize(base_ts, initial_gamma=1.0)
        policy.observe(["r0", "r1"], [])
        policy.reset()
        assert policy.resource_gamma("r0") == 1.0
        assert all(
            policy.path_gamma(k) == 1.0 for k in policy._path_gamma
        )

    def test_rejects_bad_params(self, base_ts):
        with pytest.raises(OptimizationError):
            AdaptiveStepSize(base_ts, initial_gamma=0.0)
        with pytest.raises(OptimizationError):
            AdaptiveStepSize(base_ts, growth=1.0)

    @pytest.mark.parametrize("kwargs", [
        {"initial_gamma": math.nan}, {"growth": math.nan},
        {"growth": math.inf}, {"max_gamma": math.nan},
        {"max_gamma": math.inf},
    ], ids=lambda kwargs: "-".join(f"{k}={v}" for k, v in kwargs.items()))
    def test_rejects_non_finite_params(self, base_ts, kwargs):
        """Regression: NaN passed every ordering check and an infinite
        cap was accepted, so γ could escalate to inf and λ to nan."""
        (name,) = kwargs
        with pytest.raises(OptimizationError, match=f"{name} must be finite"):
            AdaptiveStepSize(base_ts, **kwargs)

    @pytest.mark.parametrize("initial_gamma, max_gamma", [
        (1.0, 0.5), (16.0, 8.0),
    ])
    def test_rejects_a_cap_below_the_start(self, base_ts, initial_gamma,
                                           max_gamma):
        """Regression: a cap below ``initial_gamma`` was accepted, and
        "escalation" then lowered γ below its start (the kernel's
        γ_p = max(cover, direct) relies on the cap being at least it)."""
        with pytest.raises(OptimizationError, match="max_gamma"):
            AdaptiveStepSize(base_ts, initial_gamma=initial_gamma,
                             max_gamma=max_gamma)
        # A cap equal to the start is a fixed γ, and allowed.
        AdaptiveStepSize(base_ts, initial_gamma=initial_gamma,
                         max_gamma=initial_gamma)


class TestDirectPathCongestion:
    """Regression: a path violating its *own* critical-time constraint must
    escalate its γ — observe() used to ignore ``congested_paths``
    entirely, so latency constraints never got the Section 5.2 boost."""

    def test_directly_congested_path_doubles(self, base_ts):
        policy = AdaptiveStepSize(base_ts, initial_gamma=1.0)
        key = PathKey("T3", 0)
        for expected in (2.0, 4.0, 8.0):
            policy.observe([], [key])
            assert policy.path_gamma(key) == expected
        # Other paths and all resources keep their initial γ.
        assert policy.path_gamma(PathKey("T1", 0)) == 1.0
        assert policy.resource_gamma("r0") == 1.0

    def test_snaps_back_when_constraint_clears(self, base_ts):
        policy = AdaptiveStepSize(base_ts, initial_gamma=1.0)
        key = PathKey("T3", 0)
        policy.observe([], [key])
        policy.observe([], [key])
        assert policy.path_gamma(key) == 4.0
        policy.observe([], [])
        assert policy.path_gamma(key) == 1.0

    def test_caps_at_max_gamma(self, base_ts):
        policy = AdaptiveStepSize(base_ts, initial_gamma=1.0, max_gamma=4.0)
        key = PathKey("T3", 0)
        for _ in range(10):
            policy.observe([], [key])
        assert policy.path_gamma(key) == 4.0

    def test_direct_trigger_does_not_inherit_coverage_boost(self, base_ts):
        """The two triggers escalate independently: a fresh direct
        violation starts doubling from the initial γ even if resource
        coverage had already escalated the path (inheriting the boosted γ
        makes the first Eq. 9 step huge and locks limit cycles)."""
        policy = AdaptiveStepSize(base_ts, initial_gamma=1.0)
        key = PathKey("T3", 0)  # T3 is a chain through r0.
        policy.observe(["r0"], [])
        policy.observe(["r0"], [])
        assert policy.path_gamma(key) == 4.0  # coverage escalation
        # r0 decongests; now the path itself is violated for the first
        # time: γ restarts at 2 rather than continuing from 4.
        policy.observe([], [key])
        assert policy.path_gamma(key) == 2.0

    def test_both_triggers_serve_the_larger(self, base_ts):
        policy = AdaptiveStepSize(base_ts, initial_gamma=1.0)
        key = PathKey("T3", 0)
        policy.observe(["r0"], [])
        policy.observe(["r0"], [])          # coverage γ → 4
        policy.observe(["r0"], [key])       # coverage γ → 8, direct γ → 2
        assert policy.path_gamma(key) == 8.0

    def test_reset_clears_direct_state(self, base_ts):
        policy = AdaptiveStepSize(base_ts, initial_gamma=1.0)
        key = PathKey("T3", 0)
        policy.observe([], [key])
        policy.reset()
        assert policy.path_gamma(key) == 1.0
        policy.observe([], [key])
        assert policy.path_gamma(key) == 2.0


class TestChurnRobustness:
    """Regression tests for task-set churn: congestion feedback can
    mention resources and paths the policy was not built for (the
    optimizer was just rebuilt for a different membership, or a stale
    agent reports against an old task set)."""

    def test_observe_ignores_unknown_resource(self, base_ts):
        policy = AdaptiveStepSize(base_ts, initial_gamma=1.0)
        # Must not raise, and must not disturb known state.
        policy.observe(["r0", "no-such-resource"], [])
        assert policy.resource_gamma("r0") == 2.0
        assert policy.resource_gamma("no-such-resource") == 1.0

    def test_observe_ignores_unknown_path(self, base_ts):
        policy = AdaptiveStepSize(base_ts, initial_gamma=1.0)
        ghost = PathKey("departed-task", 3)
        policy.observe([], [ghost])
        assert policy.path_gamma(ghost) == 1.0

    def test_unknown_keys_report_initial_gamma(self, base_ts):
        policy = AdaptiveStepSize(base_ts, initial_gamma=0.5)
        assert policy.resource_gamma("never-registered") == 0.5
        assert policy.path_gamma(PathKey("never-registered", 0)) == 0.5

    def test_rebuilt_policy_does_not_inherit_escalation(self, base_ts):
        """Rebuilding the policy for a churned task set (what the service
        does on every epoch) must start every γ back at the initial
        value, even for names shared with the escalated predecessor."""
        old = AdaptiveStepSize(base_ts, initial_gamma=1.0)
        for _ in range(3):
            old.observe(list(base_ts.resources), [])
        assert old.resource_gamma("r0") == 8.0
        new = AdaptiveStepSize(base_ts, initial_gamma=1.0)
        for rname in base_ts.resources:
            assert new.resource_gamma(rname) == 1.0
        for gamma in new._path_gamma.values():
            assert gamma == 1.0


class TestLazyIndex:
    """The per-name index is built on first use, so the vectorized
    kernel, which keeps its own γ arrays, never pays for it."""

    def _count(self, monkeypatch):
        calls = []
        original = AdaptiveStepSize._index_paths

        def counting(taskset):
            calls.append(taskset)
            return original(taskset)

        monkeypatch.setattr(AdaptiveStepSize, "_index_paths",
                            staticmethod(counting))
        return calls

    def test_vectorized_run_never_builds_it(self, monkeypatch, base_ts):
        from repro.core.optimizer import LLAConfig, LLAOptimizer
        calls = self._count(monkeypatch)
        opt = LLAOptimizer(base_ts, LLAConfig(max_iterations=50))
        opt.run()
        opt.reset()
        assert calls == []

    def test_scalar_run_builds_it_once(self, monkeypatch, base_ts):
        """The per-element loops read the dict state: one index serves a
        run, a reset and another run."""
        from repro.core.optimizer import LLAConfig
        from tests.core.reference import ScalarLLA
        calls = self._count(monkeypatch)
        opt = ScalarLLA(base_ts, LLAConfig(max_iterations=50))
        opt.run()
        opt.reset()
        opt.run()
        assert len(calls) == 1

    def test_reset_before_first_use_is_harmless(self, base_ts):
        policy = AdaptiveStepSize(base_ts, initial_gamma=1.0)
        policy.reset()
        assert policy.path_gamma(PathKey("T1", 0)) == 1.0
        policy.observe(["r3"], [])
        assert policy.resource_gamma("r3") == 2.0
        assert policy.path_gamma(PathKey("T1", 0)) in (1.0, 2.0)
        policy.reset()
        assert policy.resource_gamma("r3") == 1.0
