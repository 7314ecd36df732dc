"""Benchmark: computational scalability of one LLA iteration.

Section 6.4 claims the optimizer's overhead is small; this bench measures
how the per-iteration cost grows with workload size on random provisioned
workloads (about 10 → 40 → 80 subtasks).  The iteration is a batch of
closed-form per-subtask solves plus per-resource sums, so the cost per
subtask must not grow with size — far from the quadratic-or-worse growth
a centralized re-solve would show.  At these sizes the kernel's fixed
per-iteration cost dominates, so the cost per subtask falls as size grows.

A second test times ``LLAOptimizer.step`` at llabench's shapes, where
the per-subtask array work dominates instead: 1k, 10k (the ``solve``
instance) and 100k subtasks, plus the 10k instance at provisioning 2.0,
where path constraints bind and the path prices are rarely idle.  It
records compile and construction time, the median step cost of ten
blocks with its quartiles, the step rate at that median and the share of
steps that skipped the Eq. 9 update, without a gate: CI hosts vary too
much for an absolute bound.
"""

import time
from typing import Tuple

import numpy as np
import pytest

import _report
from repro.core.optimizer import LLAConfig, LLAOptimizer
from repro.core.structure import compile_structure
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



#: llabench's four-subtask shapes at generator seed 7 (tasks, resources,
#: provisioning), keyed by the suffix of the recorded metric names.
SHAPES = {
    "1000_subtasks": (250, 200, 0.8),
    "10000_subtasks": (2500, 2000, 0.8),
    "100000_subtasks": (25_000, 20_000, 0.8),
    "10000_subtasks_provisioning_2": (2500, 2000, 2.0),
}
#: Steps per timed block (also the untimed warm-up), and timed blocks.
_BLOCK = 20
_BLOCKS = 10


@pytest.mark.benchmark(group="scaling")
@pytest.mark.parametrize("label", SHAPES)
def test_step_cost_at_benchmark_size(benchmark, label):
    """One ``LLAOptimizer.step`` at a llabench shape, after 20 untimed
    steps: the median and quartiles of 10 blocks of 20 steps, so a host
    that changes speed mid-run moves the quartiles, not the median."""
    n_tasks, n_resources, provisioning = SHAPES[label]
    taskset = random_workload(GeneratorConfig(
        n_tasks=n_tasks, n_resources=n_resources, min_subtasks=4,
        max_subtasks=4, provisioning=provisioning,
    ), seed=7)
    assert len(taskset.all_subtasks) == 4 * n_tasks

    def run():
        start = time.perf_counter()
        structure = compile_structure(taskset)
        compiled = time.perf_counter()
        optimizer = LLAOptimizer(structure, LLAConfig(record_history=False))
        built = time.perf_counter()
        for _ in range(_BLOCK):
            optimizer.step()
        idle = 0
        blocks = []
        for _ in range(_BLOCKS):
            stepping = time.perf_counter()
            for _ in range(_BLOCK):
                optimizer.step()
                idle += optimizer._engine.idle_path_step
            blocks.append((time.perf_counter() - stepping) / _BLOCK)
        return (compiled - start, built - compiled, blocks,
                idle / (_BLOCKS * _BLOCK))

    compile_s, construct_s, blocks, idle_share = benchmark.pedantic(
        run, rounds=1, iterations=1)
    q1, cost, q3 = np.percentile(blocks, [25, 50, 75])
    for metric, value in (("compile_s", compile_s),
                          ("construct_s", construct_s),
                          ("iterations_per_sec", 1.0 / cost),
                          ("step_us", 1e6 * cost),
                          ("step_us_q1", 1e6 * q1),
                          ("step_us_q3", 1e6 * q3),
                          ("idle_share", idle_share)):
        _report.record_value(_BENCH, f"{metric}.{label}", value)
    print(f"\n  {label}: compile {compile_s:.2f} s, construct "
          f"{construct_s:.3f} s, {1e6 * cost:7.1f} us/step "
          f"[{1e6 * q1:.1f}-{1e6 * q3:.1f}] ({1.0 / cost:.0f} it/s), "
          f"{idle_share:.0%} idle steps")
