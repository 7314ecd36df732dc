"""Benchmark: computational scalability of one LLA iteration.

Section 6.4 claims the optimizer's overhead is small; this bench measures
how the per-iteration cost grows with workload size on random provisioned
workloads (about 10 → 40 → 80 subtasks).  The iteration is a batch of
closed-form per-subtask solves plus per-resource sums, so the cost per
subtask must not grow with size — far from the quadratic-or-worse growth
a centralized re-solve would show.  At these sizes the kernel's fixed
per-iteration cost dominates, so the cost per subtask falls as size grows.
"""

import time
from typing import Tuple

import pytest

import _report
from repro.core.optimizer import LLAConfig, LLAOptimizer
from repro.workloads.generator import GeneratorConfig, random_workload

_BENCH = _report.bench_name(__file__)


def _mean_iteration_cost(n_tasks: int, n_resources: int,
                         iterations: int = 300) -> Tuple[float, int]:
    """(seconds per iteration, subtask count) of one random workload."""
    taskset = random_workload(
        GeneratorConfig(
            n_tasks=n_tasks, n_resources=n_resources,
            min_subtasks=4, max_subtasks=5,
        ),
        seed=123,
    )
    optimizer = LLAOptimizer(taskset, LLAConfig(record_history=False))
    start = time.perf_counter()
    for _ in range(iterations):
        optimizer.step()
    elapsed = time.perf_counter() - start
    return elapsed / iterations, len(taskset.all_subtasks)


@pytest.mark.benchmark(group="scaling")
def test_iteration_cost_scales_linearly(benchmark):
    def run():
        return [
            _mean_iteration_cost(2, 6),
            _mean_iteration_cost(8, 12),
            _mean_iteration_cost(16, 24),
        ]

    points = benchmark.pedantic(run, rounds=1, iterations=1)
    # Cost per subtask must not grow: the largest workload's per-subtask
    # cost within 3x of the smallest's (sub-quadratic growth).
    per_subtask = [c / n for c, n in points]
    assert per_subtask[-1] <= 3.0 * per_subtask[0], (
        f"per-subtask iteration cost grows with size: {per_subtask}"
    )
    print()
    for (cost, n) in points:
        _report.record_value(
            _BENCH, f"iterations_per_sec.{n}_subtasks", 1.0 / cost
        )
        print(f"  {n:3d} subtasks: {1e6 * cost:7.1f} us/iteration "
              f"({1e6 * cost / n:.2f} us/subtask)")

