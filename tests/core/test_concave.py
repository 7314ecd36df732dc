"""Tests for the exact Eq. 7 solve of log and quadratic utilities.

:func:`repro.core.allocation.solve_concave` replaces per-task L-BFGS-B
for the concave nonlinear utilities.  It must return the exact box
maximizer of each task's Lagrangian (checked against the box-KKT
conditions), never do worse than an L-BFGS-B solve of the same
Lagrangian, give each task the same bits whichever tasks share the call,
and keep the kernel bitwise-identical to the per-element reference.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import LatencyAllocator, solve_concave
from repro.core.optimizer import LLAConfig, LLAOptimizer
from repro.core.state import PathKey
from repro.core.structure import (
    UTILITY_ARRAYS,
    UTILITY_LOG,
    UTILITY_QUADRATIC,
    ConcaveBlock,
    compile_structure,
    structure_from_dict,
    structure_to_dict,
)
from repro.core.vectorized import observe_assignment, task_utility
from repro.errors import ModelError
from repro.model.share import CorrectedShare, PowerLawShare
from repro.model.task import Task, TaskSet
from repro.model.utility import LogUtility, QuadraticUtility
from repro.workloads.generator import GeneratorConfig, random_workload
from tests.core.reference import ScalarLLA, lbfgsb_allocate
from tests.core.test_structure import _assert_structures_equal

EPS = LogUtility.EXTENSION_EPS


def cycled(taskset):
    """``taskset`` with utilities cycling linear, log, quadratic by task,
    tasks declared name-sorted (the order the reference loops must
    share with the kernel for bitwise parity)."""
    tasks = []
    for i, task in enumerate(sorted(taskset.tasks, key=lambda t: t.name)):
        crit = task.critical_time
        utility = (task.utility, LogUtility(crit, scale=crit),
                   QuadraticUtility(crit))[i % 3]
        tasks.append(Task(task.name, task.subtasks, task.graph, crit,
                          utility, variant=task.variant,
                          trigger=task.trigger))
    return TaskSet(tasks, sorted(taskset.resources.values(),
                                 key=lambda r: r.name),
                   allow_shared_resources=True)


def nonlinear_taskset(seed=5, partitions=1, n_tasks=9):
    return cycled(random_workload(
        GeneratorConfig(n_tasks=n_tasks, n_resources=8 * partitions,
                        min_subtasks=3, max_subtasks=5, provisioning=0.6,
                        partitions=partitions),
        seed=seed,
    ))


# -- block construction for the property tests ---------------------------------


@st.composite
def blocks(draw):
    """A random block of log/quadratic tasks with prices and path sums.

    Covers the edge cases the solve special-cases: free resources
    (μ = 0), zero pull, clamps at lo and hi, the log utility's linear
    extension, power-law and error-corrected shares.
    """
    n_tasks = draw(st.integers(1, 4))
    rows = {k: [] for k in ("weights", "alpha", "cost", "err", "hyper_mask",
                            "lo", "hi")}
    task_of, price, lam = [], [], []
    tasks = {name: [] for name in UTILITY_ARRAYS}
    tasks["ut_kind"] = []
    for t in range(n_tasks):
        is_log = draw(st.booleans())
        crit = draw(st.floats(1.0, 100.0))
        row = dict.fromkeys(UTILITY_ARRAYS, 0.0)
        if is_log:
            row.update(ut_crit=crit, ut_scale=draw(st.floats(0.01, 100.0)),
                       ut_soft=draw(st.floats(0.05, 50.0)))
        else:
            # A vanishing curvature gives a zero utility pull.
            row.update(ut_umax=crit,
                       ut_curv=draw(st.sampled_from([1e-30, 1e-3, 0.1, 3.0])))
        for name in UTILITY_ARRAYS:
            tasks[name].append(row[name])
        tasks["ut_kind"].append(UTILITY_LOG if is_log else UTILITY_QUADRATIC)
        for _ in range(draw(st.integers(1, 5))):
            alpha = draw(st.sampled_from([1.0, 0.5, 2.0, 3.0]))
            lo = draw(st.floats(0.05, 5.0))
            rows["weights"].append(float(draw(st.integers(1, 3))))
            rows["alpha"].append(alpha)
            rows["cost"].append(draw(st.floats(0.1, 10.0)))
            rows["err"].append(draw(st.sampled_from([0.0, -0.5, 0.5 * lo])))
            rows["hyper_mask"].append(alpha == 1.0)
            rows["lo"].append(lo)
            rows["hi"].append(lo + draw(st.floats(0.0, 60.0)))
            task_of.append(t)
            price.append(draw(st.sampled_from([0.0, 1e-6, 0.1, 1.0, 30.0,
                                               1e4])))
            lam.append(draw(st.sampled_from([0.0, 0.0, 0.01, 1.0, 50.0])))
    task_of = np.asarray(task_of, dtype=np.intp)
    arrays = {k: np.asarray(v) for k, v in tasks.items()}
    arrays["ut_kind"] = arrays["ut_kind"].astype(np.int8)
    block = ConcaveBlock.build(np.arange(len(task_of)), task_of, rows, arrays)
    return block, np.asarray(price), np.asarray(lam)


def _g(block, t, A):
    """−U′(A) of block task ``t``, as the scalar utilities define it."""
    if block.is_log[t]:
        return LogUtility(block.crit[t], scale=block.scale[t],
                          softness=block.soft[t]).derivative(A) * -1.0
    return 2.0 * block.curv[t] * A


def assert_box_kkt(block, price, lam, lat, rtol=1e-7):
    """Each row is the clamped stationary point at g(Σ w·lat)."""
    n_tasks = len(block.lo_sum)
    agg = [0.0] * n_tasks
    for s, t in enumerate(block.task_of):
        agg[t] += block.weights[s] * lat[s]
    for s, t in enumerate(block.task_of):
        lo, hi, x = block.lo[s], block.hi[s], lat[s]
        assert lo <= x <= hi
        if lo >= hi:
            continue  # a point box: nothing to optimize
        pull = block.weights[s] * _g(block, t, agg[t]) + lam[s]
        if price[s] <= 0.0:
            assert x == lo, "a free resource pins the lower clamp"
            continue
        if pull <= 1e-12:
            assert x == hi, "no pull lets the latency grow to its clamp"
            continue
        model = x - block.err[s]
        marginal = price[s] * block.alpha[s] * block.cost[s] \
            / model ** (block.alpha[s] + 1.0)
        grad = marginal - pull            # ∂L/∂lat
        slack = rtol * (marginal + pull)
        if x <= lo:
            assert grad <= slack
        elif x >= hi:
            assert grad >= -slack
        else:
            assert abs(grad) <= slack, (s, grad, marginal, pull)


class TestSolveAgainstKKT:
    @given(blocks())
    @settings(max_examples=300, deadline=None)
    def test_solution_satisfies_box_kkt(self, case):
        block, price, lam = case
        lat = solve_concave(block, price, lam)
        assert np.all(np.isfinite(lat))
        assert_box_kkt(block, price, lam, lat)

    def test_linear_extension_region(self):
        """Expensive resources push A past C + soft·(1 − eps), where the
        log utility is linearly extended and g(A) is flat."""
        rows = {"weights": [1.0] * 3, "alpha": [1.0] * 3,
                "cost": [1.0] * 3, "err": [0.0] * 3,
                "hyper_mask": [True] * 3, "lo": [0.1] * 3, "hi": [10.0] * 3}
        tasks = {name: np.zeros(1) for name in UTILITY_ARRAYS}
        tasks.update(ut_kind=np.array([UTILITY_LOG], dtype=np.int8),
                     ut_crit=np.array([5.0]), ut_scale=np.array([1.0]),
                     ut_soft=np.array([1.0]))
        block = ConcaveBlock.build(np.arange(3), np.zeros(3, dtype=np.intp),
                                   rows, tasks)
        price = np.array([1e3, 1e3, 1e3])
        lam = np.zeros(3)
        lat = solve_concave(block, price, lam)
        A = float(lat.sum())
        assert 1.0 + (5.0 - A) / 1.0 < EPS
        assert_box_kkt(block, price, lam, lat)


class TestBatchIndependence:
    @given(blocks())
    @settings(max_examples=100, deadline=None)
    def test_each_task_alone_gives_the_same_bits(self, case):
        block, price, lam = case
        together = solve_concave(block, price, lam)
        for t in range(len(block.lo_sum)):
            rows = np.flatnonzero(block.task_of == t)
            alone = ConcaveBlock.build(
                np.arange(len(rows)), np.zeros(len(rows), dtype=np.intp),
                {name: getattr(block, name)[rows]
                 for name in ("weights", "alpha", "cost", "err",
                              "hyper_mask", "lo", "hi")},
                _task_arrays(block, t),
            )
            solo = solve_concave(alone, price[rows], lam[rows])
            assert solo.tolist() == together[rows].tolist()


def _task_arrays(block, t):
    arrays = {name: np.zeros(1) for name in UTILITY_ARRAYS}
    arrays.update(
        ut_kind=np.array([UTILITY_LOG if block.is_log[t]
                          else UTILITY_QUADRATIC], dtype=np.int8),
        ut_crit=block.crit[t:t + 1], ut_scale=block.scale[t:t + 1],
        ut_soft=block.soft[t:t + 1], ut_curv=block.curv[t:t + 1],
    )
    return arrays


def task_lagrangian(taskset, task, lat, prices, path_prices):
    """L_i(lat) = U_i − Σ λ_s·lat_s − Σ μ_r·share(lat_s)."""
    allocator = LatencyAllocator(taskset, task)
    value = task.utility.value(task.aggregated_latency(lat))
    for sub in task.subtasks:
        value -= allocator.path_price_sum(sub.name, path_prices) \
            * lat[sub.name]
        value -= prices[sub.resource] \
            * taskset.share_function(sub.name).share(lat[sub.name])
    return value


class TestAgainstNumericSolver:
    def test_lagrangian_never_below_lbfgsb(self):
        """Per call, the exact solve's Lagrangian is at least that of an
        L-BFGS-B solve (up to float noise)."""
        ts = nonlinear_taskset(seed=2)
        # Perturb some share functions into the power-law/corrected forms.
        names = ts.subtask_names
        ts.set_share_function(names[0], PowerLawShare(cost=3.0, alpha=2.0))
        ts.set_share_function(
            names[1], CorrectedShare(ts.share_function(names[1]), error=0.5))
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(4):
            prices = {r: float(rng.choice([0.0, 0.5, 5.0, 50.0]))
                      for r in ts.resources}
            for task in ts.tasks:
                if task.utility.__class__ not in (LogUtility,
                                                  QuadraticUtility):
                    continue
                allocator = LatencyAllocator(ts, task)
                path_prices = {
                    PathKey(task.name, i): float(rng.choice([0.0, 0.3, 4.0]))
                    for i in range(len(task.graph.paths))
                }
                exact = allocator.allocate(prices, path_prices)
                numeric = lbfgsb_allocate(allocator, prices, path_prices)
                le = task_lagrangian(ts, task, exact, prices, path_prices)
                ln = task_lagrangian(ts, task, numeric, prices, path_prices)
                assert le >= ln - 1e-12 * max(1.0, abs(ln)), task.name
                checked += 1
        assert checked >= 20


class TestBackendParity:
    ITERATIONS = 150

    @staticmethod
    def _assert_bitwise(ref, other):
        assert other.latencies == ref.latencies
        assert other.resource_prices == ref.resource_prices
        assert other.path_prices == ref.path_prices
        assert other.resource_loads == ref.resource_loads

    def test_scalar_and_vectorized_bitwise(self):
        config = LLAConfig(stop_on_convergence=False)
        scalar = ScalarLLA(nonlinear_taskset(), config)
        vector = LLAOptimizer(nonlinear_taskset(), config)
        assert vector.latencies == scalar.latencies
        for _ in range(self.ITERATIONS):
            ref, vec = scalar.step(), vector.step()
            self._assert_bitwise(ref, vec)
            # Log utilities go through numpy's log on the kernel side.
            assert vec.utility == pytest.approx(ref.utility, rel=1e-12)

    def test_refresh_after_model_change(self):
        """A share swap and a utility swap reach the kernel through
        refresh_model: it stays bitwise equal to the per-element
        reference, which recompiles nothing."""
        def make():
            return nonlinear_taskset(seed=3, partitions=2, n_tasks=8)
        tasksets = [make(), make()]
        config = LLAConfig(stop_on_convergence=False)
        opts = [ScalarLLA(tasksets[0], config),
                LLAOptimizer(tasksets[1], config)]
        for _ in range(40):
            for opt in opts:
                opt.step()
        for ts, opt in zip(tasksets, opts):
            name = ts.subtask_names[0]
            ts.set_share_function(name, CorrectedShare(
                ts.share_function(name), error=0.25))
            log_task = next(t for t in ts.tasks
                            if isinstance(t.utility, LogUtility))
            log_task.utility = QuadraticUtility(log_task.critical_time)
            opt.refresh_model()
        for _ in range(40):
            ref, out = [opt.step() for opt in opts]
            self._assert_bitwise(ref, out)

    def test_task_controller_allocator_gives_the_kernel_bits(self):
        """The per-task allocator the distributed controllers run gives
        the kernel's bits on the same duals."""
        ts = nonlinear_taskset()
        opt = LLAOptimizer(ts, LLAConfig(stop_on_convergence=False))
        for _ in range(30):
            opt.step()
        engine = opt._engine
        kernel = engine._allocate()
        prices = opt.resource_prices
        path_prices = engine.path_prices_dict()
        expected = dict(zip(engine.structure.subtask_names, kernel.tolist()))
        for task in ts.tasks:
            got = LatencyAllocator(ts, task).allocate(prices, path_prices)
            assert got == {n: expected[n] for n in task.subtask_names}


class TestStructureWithNonlinearKinds:
    def test_kinds_and_parameters_compile(self):
        ts = nonlinear_taskset()
        s = compile_structure(ts)
        kinds = set(s.ut_kind.tolist())
        assert kinds == {0, UTILITY_LOG, UTILITY_QUADRATIC}
        for t, name in enumerate(s.task_names):
            u = ts.task(name).utility
            if isinstance(u, LogUtility):
                assert (s.ut_scale[t], s.ut_soft[t], s.ut_crit[t]) == \
                    (u.scale, u.softness, u.critical_time)
                assert np.all(s.pull_base[s.task_subtask_slice(t)] == 0.0)
            elif isinstance(u, QuadraticUtility):
                assert (s.ut_umax[t], s.ut_curv[t]) == (u.u_max, u.a)
        assert s.concave is not None
        assert len(s.concave.lo_sum) == int((s.ut_kind >= UTILITY_LOG).sum())

    def test_linear_only_structure_has_no_block(self):
        s = compile_structure(random_workload(GeneratorConfig(n_tasks=4),
                                              seed=1))
        assert s.concave is None

    def test_round_trip_is_bit_exact(self):
        s = compile_structure(nonlinear_taskset())
        restored = structure_from_dict(structure_to_dict(s))
        _assert_structures_equal(s, restored)
        assert restored.fingerprint == s.fingerprint

    def test_permuted_declaration_compiles_identically(self):
        ts = nonlinear_taskset()
        permuted = TaskSet(tuple(reversed(ts.tasks)),
                           reversed(list(ts.resources.values())),
                           allow_shared_resources=True)
        s1, s2 = compile_structure(ts), compile_structure(permuted)
        _assert_structures_equal(s1, s2)
        assert s1.fingerprint == s2.fingerprint

    @pytest.mark.parametrize("name", ["ut_scale", "ut_soft", "ut_curv"])
    def test_corrupted_utility_parameter_is_detected(self, name):
        payload = structure_to_dict(compile_structure(nonlinear_taskset()))
        index = next(i for i, v in enumerate(payload[name]) if v != 0.0)
        payload[name][index] *= 1.0 + 1e-12
        with pytest.raises(ModelError, match="fingerprint"):
            structure_from_dict(payload)

    def test_corrupted_kind_is_detected(self):
        payload = structure_to_dict(compile_structure(nonlinear_taskset()))
        payload["ut_kind"][1] = UTILITY_QUADRATIC \
            if payload["ut_kind"][1] == UTILITY_LOG else UTILITY_LOG
        with pytest.raises(ModelError, match="fingerprint"):
            structure_from_dict(payload)

    def test_format_2_payload_is_rejected(self):
        payload = structure_to_dict(compile_structure(nonlinear_taskset()))
        for name in ("ut_scale", "ut_soft", "ut_curv"):
            del payload[name]
        payload["format"] = 2
        with pytest.raises(ModelError, match="format"):
            structure_from_dict(payload)

    def test_refresh_follows_a_utility_swap(self):
        """The optimizer's refresh compiles a new structure that follows
        the swap; the structure read before it keeps the old model."""
        ts = nonlinear_taskset()
        opt = LLAOptimizer(ts, LLAConfig())
        s = opt.structure
        logs = int(s.concave.is_log.sum())
        t = next(i for i, k in enumerate(s.ut_kind) if k == UTILITY_LOG)
        task = ts.task(s.task_names[t])
        task.utility = QuadraticUtility(task.critical_time)
        before = s.fingerprint
        opt.refresh_model()
        refreshed = opt.structure
        assert refreshed.ut_kind[t] == UTILITY_QUADRATIC
        assert refreshed.fingerprint != before
        assert int(refreshed.concave.is_log.sum()) == logs - 1
        assert s.ut_kind[t] == UTILITY_LOG
        assert s.fingerprint == before
        assert int(s.concave.is_log.sum()) == logs


class TestUtilityEvaluation:
    def test_task_utilities_match_the_object_graph(self):
        ts = nonlinear_taskset()
        s = compile_structure(ts)
        opt = LLAOptimizer(ts, LLAConfig())
        for _ in range(40):
            opt.step()
        obs = observe_assignment(s, opt.latencies)
        for t, name in enumerate(s.task_names):
            task = ts.task(name)
            expected = task.utility_value(opt.latencies)
            if s.ut_kind[t] == UTILITY_LOG:
                assert obs.per_task[t] == pytest.approx(expected, rel=1e-15)
            else:
                assert obs.per_task[t] == expected
            # The one-task form (the service's queries) is the same formula.
            agg = task.aggregated_latency(opt.latencies)
            assert task_utility(s, t, agg) == obs.per_task[t]

    def test_log_extension_value(self):
        ts = nonlinear_taskset()
        s = compile_structure(ts)
        t = next(i for i, k in enumerate(s.ut_kind) if k == UTILITY_LOG)
        u = ts.task(s.task_names[t]).utility
        far = u.critical_time + 3.0 * u.softness
        value = task_utility(s, t, far)
        assert value == pytest.approx(u.value(far), rel=1e-15)
        assert value < u.scale * math.log(EPS)
