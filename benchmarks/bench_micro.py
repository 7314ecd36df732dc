"""Microbenchmarks: per-component timing of the reproduction's hot paths.

These are true statistical benchmarks (many rounds), complementing the
one-shot experiment benches: LLA iteration latency, the closed-form
allocation step, price updates, simulator event throughput and a
distributed round.  They quantify the "low computation overhead" claim of
Section 6.4 — the optimizer step must be microseconds-scale per subtask.
"""

import pytest

import _report
from repro.core.allocation import LatencyAllocator
from repro.core.optimizer import LLAConfig, LLAOptimizer
from repro.distributed import DistributedConfig, DistributedLLARuntime
from repro.sim import SimulatedSystem
from repro.workloads.paper import base_workload, prototype_workload, scaled_workload

_BENCH = _report.bench_name(__file__)


@pytest.mark.benchmark(group="micro")
def test_lla_iteration_base(benchmark):
    """One full LLA iteration on the 3-task / 21-subtask workload."""
    taskset = base_workload()
    optimizer = LLAOptimizer(taskset, LLAConfig(record_history=False))
    benchmark(optimizer.step)


@pytest.mark.benchmark(group="micro")
def test_lla_iteration_12_tasks(benchmark):
    """One full LLA iteration on the 12-task / 84-subtask workload."""
    taskset = scaled_workload(4)
    optimizer = LLAOptimizer(taskset, LLAConfig(record_history=False))
    benchmark(optimizer.step)


@pytest.mark.benchmark(group="micro")
def test_latency_allocation(benchmark):
    """The closed-form per-task allocation (the controller's inner step),
    at the prices of a 50-iteration run."""
    taskset = base_workload()
    result = LLAOptimizer(taskset, LLAConfig(record_history=False)).run(50)
    allocator = LatencyAllocator(taskset, taskset.task("T2"))
    benchmark(allocator.allocate, result.resource_prices, result.path_prices)


@pytest.mark.benchmark(group="micro")
def test_distributed_round(benchmark):
    """One protocol round of the message-passing runtime."""
    runtime = DistributedLLARuntime(
        base_workload(), DistributedConfig(record_history=False)
    )
    benchmark(runtime.step)


@pytest.mark.benchmark(group="micro")
def test_simulator_throughput_gps(benchmark):
    """One second of simulated prototype workload on the fluid model
    (≈300 jobs across three CPUs)."""
    taskset = prototype_workload()
    shares = {name: 0.2 for name in taskset.subtask_names}

    def run_one_second():
        system = SimulatedSystem(taskset, shares, model="gps", seed=3)
        system.run_for(1000.0)
        return system.recorder.jobs_recorded

    jobs = benchmark(run_one_second)
    _report.record_value(_BENCH, "gps_jobs_per_simulated_second", jobs)
    assert jobs > 250


@pytest.mark.benchmark(group="micro")
def test_simulator_throughput_quantum(benchmark):
    """One second of simulated prototype workload on the quantum model."""
    taskset = prototype_workload()
    shares = {name: 0.2 for name in taskset.subtask_names}

    def run_one_second():
        system = SimulatedSystem(taskset, shares, model="quantum", seed=3)
        system.run_for(1000.0)
        return system.recorder.jobs_recorded

    jobs = benchmark(run_one_second)
    _report.record_value(_BENCH, "quantum_jobs_per_simulated_second", jobs)
    assert jobs > 250
