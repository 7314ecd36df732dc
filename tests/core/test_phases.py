"""Per-phase timers: recorded by the kernel, never perturbing it."""

import time

from repro.core.optimizer import LLAConfig, LLAOptimizer
from repro.core.phases import PHASES, PhaseTimers
from repro.telemetry import Telemetry
from repro.workloads.paper import base_workload

PHASE_METRICS = [f"lla.phase.{name}_seconds" for name in PHASES]


def run(telemetry=None, iterations=60):
    return LLAOptimizer(
        base_workload(),
        LLAConfig(max_iterations=iterations),
        telemetry=telemetry,
    ).run()


class TestPhaseTimers:
    def test_vectorized_backend_records_all_phases(self):
        telemetry = Telemetry.in_memory()
        result = run(telemetry)
        snapshot = telemetry.registry.snapshot()
        for name in PHASE_METRICS:
            assert name in snapshot, f"missing {name}"
            assert snapshot[name]["count"] == result.iterations

    def test_disabled_registry_records_nothing(self):
        telemetry = Telemetry.disabled()
        run(telemetry)
        assert not telemetry.registry.snapshot()

    def test_lap_observes_interval(self):
        telemetry = Telemetry.in_memory()
        timers = PhaseTimers(telemetry)
        started = time.perf_counter()
        mark = timers.lap("allocate", started)
        snap = telemetry.registry.snapshot()["lla.phase.allocate_seconds"]
        assert snap["count"] == 1
        assert abs(snap["sum"] - (mark - started)) < 1e-12
        assert mark >= started


class TestTimingDoesNotPerturb:
    def test_vectorized_iterates_identical_with_tracing_on(self):
        # The acceptance bar: bit-identity with full telemetry (metrics +
        # tracing) enabled.
        plain = run()
        telemetry = Telemetry.in_memory()
        traced = run(telemetry)
        assert traced.latencies == plain.latencies
        assert traced.utility == plain.utility
        assert traced.utility_trace() == plain.utility_trace()
        assert [r.resource_prices for r in traced.history] == \
            [r.resource_prices for r in plain.history]

