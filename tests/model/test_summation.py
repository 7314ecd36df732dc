"""One summation order for utilities on every Python version.

``sum()`` of floats adds left to right up to Python 3.11 and compensates
from 3.12 on, so the objective must not go through it: the kernel, the
structure observer and ``TaskSet.total_utility`` all sum with
:func:`repro.model.sequential_sum`, which must be the plain left-to-right
loop bit for bit, and the three must agree with each other.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimizer import LLAConfig, LLAOptimizer
from repro.core.vectorized import observe_assignment
from repro.model import sequential_sum
from tests.core.test_concave import nonlinear_taskset


def left_to_right(values):
    acc = 0.0
    for v in values:
        acc += float(v)
    return acc


def bits(x):
    return struct.pack("<d", x)


#: Finite floats of any sign and magnitude (sums may still overflow to
#: ±inf, which both sides reach the same way; ±inf together never occur).
_FLOATS = st.floats(min_value=-1e300, max_value=1e300,
                    allow_nan=False, allow_infinity=False)


class TestSequentialSum:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(_FLOATS, max_size=64),
           leading_negative_zero=st.booleans())
    def test_any_floats_sum_like_the_loop(self, values,
                                          leading_negative_zero):
        if leading_negative_zero:
            values = [-0.0] + values
        expected = bits(left_to_right(values))
        assert bits(sequential_sum(values)) == expected
        assert bits(sequential_sum(np.array(values, dtype=float))) == \
            expected

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=0, max_value=5000),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           leading_negative_zero=st.booleans())
    def test_long_mixed_magnitudes_sum_like_the_loop(
            self, n, seed, leading_negative_zero):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 13, n)
        if leading_negative_zero:
            values = np.concatenate(([-0.0], values))
        assert bits(sequential_sum(values)) == bits(left_to_right(values))

    def test_edge_values(self):
        assert bits(sequential_sum([])) == bits(0.0)
        # 0.0 + -0.0 is 0.0, as sum() starts from 0.
        assert bits(sequential_sum([-0.0])) == bits(0.0)
        assert bits(sequential_sum([-0.0, -0.0])) == bits(0.0)
        assert bits(sequential_sum([-0.0, -1.5])) == bits(-1.5)

    def test_no_compensation(self):
        """The order is the plain one, not a compensated (3.12+ ``sum()``)
        or exact (``math.fsum``) one."""
        values = [1e16, 1.0, -1e16]
        assert math.fsum(values) == 1.0
        assert sequential_sum(values) == 0.0


class TestOneObjective:
    @pytest.mark.parametrize("seed", [3, 5, 11])
    def test_kernel_observer_and_taskset_agree(self, seed):
        """Step utility, observed utility and ``TaskSet.total_utility``
        are one sum of the same per-task values, in the same order."""
        taskset = nonlinear_taskset(seed=seed, n_tasks=12)
        opt = LLAOptimizer(taskset, LLAConfig(stop_on_convergence=False))
        s = opt.structure
        # Declared name-sorted, so task order is the canonical order.
        assert [t.name for t in taskset.tasks] == list(s.task_names)
        same_terms = 0
        for _ in range(60):
            record = opt.step()
            lat = record.latencies
            obs = observe_assignment(s, lat)
            assert bits(obs.utility) == bits(record.utility)
            assert bits(record.utility) == \
                bits(left_to_right(record.arrays.per_task))
            graph = [t.utility_value(lat) for t in taskset.tasks]
            assert bits(taskset.total_utility(lat)) == \
                bits(left_to_right(graph))
            # A log value goes through numpy's log in the kernel and
            # math.log on the object graph, which can differ in the last
            # ulp; with equal terms the totals must be bitwise equal.
            if graph == obs.per_task.tolist():
                same_terms += 1
                assert bits(taskset.total_utility(lat)) == \
                    bits(record.utility)
            else:
                assert taskset.total_utility(lat) == \
                    pytest.approx(record.utility, rel=1e-14)
        assert same_terms >= 50
