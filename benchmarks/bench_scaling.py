"""Benchmark: computational scalability of one LLA iteration.

Section 6.4 claims the optimizer's overhead is small; this bench measures
how the per-iteration cost grows with workload size on random provisioned
workloads (about 10 → 40 → 80 subtasks).  The iteration is a batch of
closed-form per-subtask solves plus per-resource sums, so the cost per
subtask must not grow with size — far from the quadratic-or-worse growth
a centralized re-solve would show.  At these sizes the kernel's fixed
per-iteration cost dominates, so the cost per subtask falls as size grows.

A second test times ``LLAOptimizer.step`` at 10k subtasks, the shape of
llabench's ``solve`` instance, where the per-subtask array work dominates
instead.  It records its rate without a gate: CI hosts vary too much for
an absolute bound.
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



def _step_cost(config: GeneratorConfig, seed: int, warmup: int,
               steps: int) -> Tuple[float, int]:
    """(seconds per ``LLAOptimizer.step``, subtask count) after ``warmup``
    untimed steps."""
    taskset = random_workload(config, seed=seed)
    optimizer = LLAOptimizer(taskset, LLAConfig(record_history=False))
    for _ in range(warmup):
        optimizer.step()
    start = time.perf_counter()
    for _ in range(steps):
        optimizer.step()
    elapsed = time.perf_counter() - start
    return elapsed / steps, len(taskset.all_subtasks)


@pytest.mark.benchmark(group="scaling")
def test_step_cost_at_benchmark_size(benchmark):
    """One step at llabench ``solve``'s shape: 2,500 tasks of 4 subtasks on
    2,000 resources, generator seed 7."""
    config = GeneratorConfig(n_tasks=2500, n_resources=2000,
                             min_subtasks=4, max_subtasks=4)
    cost, n = benchmark.pedantic(
        lambda: _step_cost(config, seed=7, warmup=20, steps=200),
        rounds=1, iterations=1,
    )
    assert n == 10_000
    _report.record_value(_BENCH, f"iterations_per_sec.{n}_subtasks",
                         1.0 / cost)
    _report.record_value(_BENCH, f"step_us.{n}_subtasks", 1e6 * cost)
    print(f"\n  {n} subtasks: {1e6 * cost:7.1f} us/step "
          f"({1.0 / cost:.0f} it/s)")
