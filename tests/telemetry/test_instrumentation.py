"""Integration tests: instrumentation hooks across optimizer, runtime, sim.

The load-bearing guarantees:

* a traced run's JSONL file replays into the *same* ``TraceSummary`` as
  the in-process iteration history (exact dataclass equality);
* tracing must not perturb the optimization — iterates are bit-identical
  with telemetry on and off.
"""

import logging

import numpy as np
import pytest

from repro.analysis.trace import summarize_trace
from repro.core.error_correction import ErrorCorrector, ErrorSample
from repro.core.optimizer import LLAConfig, LLAOptimizer
from repro.distributed import DistributedConfig, DistributedLLARuntime
from repro.sim.closedloop import ClosedLoopRuntime
from repro.telemetry import (
    Telemetry,
    event_counts,
    read_trace,
    records_from_trace_file,
    summarize_trace_file,
)
from repro.workloads.paper import base_workload, make_workload


class TestOptimizerTracing:
    def test_trace_replays_to_identical_summary(self, tmp_path):
        path = tmp_path / "run.jsonl"
        telemetry = Telemetry.to_file(path)
        result = LLAOptimizer(
            base_workload(), LLAConfig(max_iterations=300),
            telemetry=telemetry,
        ).run()
        telemetry.close()

        replayed = records_from_trace_file(path)
        assert len(replayed) == len(result.history)
        assert summarize_trace(replayed) == summarize_trace(result.history)
        assert summarize_trace_file(path) == summarize_trace(result.history)

    def test_run_lifecycle_events_present(self, tmp_path):
        path = tmp_path / "run.jsonl"
        telemetry = Telemetry.to_file(path)
        LLAOptimizer(
            base_workload(), LLAConfig(max_iterations=150),
            telemetry=telemetry,
        ).run()
        telemetry.close()

        events = read_trace(path)
        counts = event_counts(events)
        assert counts["run_started"] == 1
        assert counts["run_finished"] == 1
        assert counts["iteration"] == 150
        assert counts["price_update"] >= 1
        assert counts["metrics_snapshot"] == 1
        started = next(e for e in events if e.kind == "run_started")
        assert started.data["runtime"] == "optimizer"

    def test_tracing_does_not_perturb_iterates(self, tmp_path):
        plain = LLAOptimizer(
            base_workload(), LLAConfig(max_iterations=250)
        ).run()
        telemetry = Telemetry.to_file(tmp_path / "run.jsonl")
        traced = LLAOptimizer(
            base_workload(), LLAConfig(max_iterations=250),
            telemetry=telemetry,
        ).run()
        telemetry.close()

        assert traced.latencies == plain.latencies
        assert traced.utility == plain.utility
        assert traced.utility_trace() == plain.utility_trace()

    def test_metrics_recorded(self):
        telemetry = Telemetry.in_memory()
        LLAOptimizer(
            base_workload(), LLAConfig(max_iterations=100),
            telemetry=telemetry,
        ).run()
        snap = telemetry.registry.snapshot()
        assert snap["lla.iterations_total"]["value"] == 100.0
        assert snap["lla.iteration_seconds"]["count"] == 100
        assert "lla.utility" in snap
        assert "lla.price_drift" in snap

    def test_idle_path_steps_cover_a_slack_run(self):
        """On ``scaled`` no path ever binds, so every Eq. 9 update is
        skipped."""
        telemetry = Telemetry.in_memory()
        result = LLAOptimizer(
            make_workload("scaled"),
            LLAConfig(max_iterations=300, stop_on_convergence=False),
            telemetry=telemetry,
        ).run()
        idle = telemetry.registry.get("lla.idle_path_steps_total")
        assert idle.value == result.iterations == 300

    def test_idle_path_steps_follow_the_records(self):
        """On ``prototype`` λ leaves and re-enters idle: a step counts
        when the λ before it is all +0.0 and every path had slack."""
        taskset = make_workload("prototype")
        telemetry = Telemetry.in_memory()
        optimizer = LLAOptimizer(
            taskset, LLAConfig(max_iterations=1500, stop_on_convergence=False),
            telemetry=telemetry,
        )
        critical = {task.name: task.critical_time for task in taskset.tasks}
        lam = [0.0]
        crit = {task.name: task.critical_path(optimizer.latencies)[1]
                for task in taskset.tasks}
        expected = 0
        for record in optimizer.run().history:
            bits = np.asarray(lam, dtype=np.float64).view(np.uint64)
            expected += not bits.any() and all(
                crit[name] <= critical[name] for name in critical)
            lam = list(record.path_prices.values())
            crit = record.critical_paths
        idle = telemetry.registry.get("lla.idle_path_steps_total")
        assert 0 < idle.value == expected < 1500

    def test_non_convergence_warning(self, caplog):
        config = LLAConfig(max_iterations=3, stop_on_convergence=True)
        with caplog.at_level(logging.WARNING, logger="repro.core.optimizer"):
            LLAOptimizer(base_workload(), config).run()
        assert any("did not converge" in rec.getMessage()
                   for rec in caplog.records)


class TestDistributedTracing:
    def test_lossy_run_replays_to_identical_summary(self, tmp_path):
        path = tmp_path / "dist.jsonl"
        telemetry = Telemetry.to_file(path)
        runtime = DistributedLLARuntime(
            base_workload(),
            DistributedConfig(rounds=200, delay=1, jitter=1,
                              loss_probability=0.05, seed=7),
            telemetry=telemetry,
        )
        result = runtime.run()
        telemetry.close()

        replayed = records_from_trace_file(path)
        assert summarize_trace(replayed) == summarize_trace(result.history)

    def test_bus_metrics_and_message_events(self, tmp_path):
        path = tmp_path / "dist.jsonl"
        telemetry = Telemetry.to_file(path)
        DistributedLLARuntime(
            base_workload(),
            DistributedConfig(rounds=60, loss_probability=0.2, seed=3),
            telemetry=telemetry,
        ).run()
        telemetry.close()

        snap = telemetry.registry.snapshot()
        sent = snap["bus.sent_total"]["value"]
        dropped = snap["bus.dropped_total"]["value"]
        delivered = snap["bus.delivered_total"]["value"]
        assert sent > 0 and dropped > 0 and delivered > 0
        # Messages still in flight at run end are neither delivered nor
        # dropped, so delivered can fall short of sent - dropped.
        assert delivered <= sent - dropped

        counts = event_counts(read_trace(path))
        # Every send becomes exactly one event: sent xor dropped.
        assert counts["message_sent"] == sent - dropped
        assert counts["message_dropped"] == dropped

    def test_partition_event_and_warning(self, caplog):
        telemetry = Telemetry.in_memory()
        runtime = DistributedLLARuntime(
            base_workload(), DistributedConfig(rounds=10),
            telemetry=telemetry,
        )
        with caplog.at_level(logging.WARNING,
                             logger="repro.distributed.network"):
            runtime.bus.partition("controller:T1", "resource:r0")
        kinds = [e.kind for e in telemetry.tracer.sinks[0].events]
        assert "partition" in kinds
        assert any("partition" in rec.getMessage()
                   for rec in caplog.records)

    def test_price_staleness_tracks_partitioned_controller(self):
        telemetry = Telemetry.in_memory()
        runtime = DistributedLLARuntime(
            base_workload(), DistributedConfig(rounds=5),
            telemetry=telemetry,
        )
        runtime.run()
        fresh = telemetry.registry.gauge("dist.price_staleness_max").value
        assert fresh <= 1.0
        for rname in runtime.resources:
            runtime.bus.partition("controller:T1", f"resource:{rname}")
        for _ in range(10):
            runtime.step()
        starved = telemetry.registry.gauge("dist.price_staleness_max").value
        assert starved >= 8.0


class TestCorrectorTelemetry:
    def test_apply_records_metric_and_event(self):
        telemetry = Telemetry.in_memory()
        taskset = base_workload()
        corrector = ErrorCorrector(taskset, telemetry=telemetry)
        subtask = taskset.subtask_names[0]
        corrector.observe(ErrorSample(subtask, predicted=10.0, observed=8.0))
        corrector.apply(subtask)

        snap = telemetry.registry.snapshot()
        assert snap["correction.applied_total"]["value"] == 1.0
        assert snap["correction.magnitude"]["count"] == 1
        sink = telemetry.tracer.sinks[0]
        events = sink.of_kind("correction_applied")
        assert len(events) == 1
        assert events[0].data["subtask"] == subtask
        assert events[0].data["error"] == pytest.approx(-2.0)


class TestClosedLoopTelemetry:
    def test_epoch_events_and_metrics(self):
        telemetry = Telemetry.in_memory()
        loop = ClosedLoopRuntime(
            base_workload(),
            window=200.0,
            optimizer_config=LLAConfig(max_iterations=200),
            optimizer_steps_per_epoch=50,
            recorder_max_samples=256,
            telemetry=telemetry,
        )
        loop.run_epoch()
        loop.run_epoch()

        snap = telemetry.registry.snapshot()
        assert snap["loop.epochs_total"]["value"] == 2.0
        assert snap["loop.epoch_seconds"]["count"] == 2
        epochs = telemetry.tracer.sinks[0].of_kind("epoch")
        assert [e.data["epoch"] for e in epochs] == [1, 2]
