"""Tests for the hardened (supervised) service: watchdog restarts,
batched churn backpressure, checkpoint retry/breaker, and brownout."""

import dataclasses
import math

import pytest

import repro.core.optimizer as optimizer_module
import repro.core.vectorized as vectorized_module
import repro.service.service as service_module
import repro.service.supervisor as supervisor_module
from repro.distributed.faults import ChurnStorm, FaultPlan, LossBurst, LoopStall
from repro.errors import ServiceError
from repro.model.fingerprint import taskset_fingerprint
from repro.model.task import TaskSet
from repro.model.utility import LogUtility
from repro.service import (
    AllocationService,
    BrownoutConfig,
    HardeningConfig,
    RetryPolicy,
    ServiceFaultInjector,
    SupervisedService,
    Watchdog,
)
from repro.telemetry import Telemetry

from tests.conftest import MIXED_RESOURCES, mixed_task
from tests.service.test_service import make_resources, make_task


def make_supervised(n_tasks=2, telemetry=None, fault_plan=None, **kwargs):
    config = HardeningConfig(**kwargs)
    tasks = [make_task(f"t{i}") for i in range(n_tasks)]
    return SupervisedService(make_resources(), tasks, config=config,
                             telemetry=telemetry, fault_plan=fault_plan)


class TestHardeningConfig:
    @pytest.mark.parametrize("kwargs", [
        {"queue_capacity": 0},
        {"stall_deadline": 0},
        {"snapshot_interval": -1},
        {"failure_threshold": 0},
        {"breaker_cooldown": 0},
        {"queue_high_watermark": 0.0},
        {"queue_high_watermark": 1.5},
        {"reconverge_patience": 0},
        {"seed": -1},
    ])
    def test_rejects_bad_shapes(self, kwargs):
        with pytest.raises(ServiceError):
            HardeningConfig(**kwargs)


class TestWatchdog:
    def test_rejects_bad_deadline(self):
        with pytest.raises(ServiceError):
            Watchdog(0)

    def test_fires_after_deadline_no_progress_beats(self):
        dog = Watchdog(3)
        assert not dog.beat(10)            # baseline
        assert not dog.beat(10)
        assert not dog.beat(10)
        assert dog.beat(10)                # 3rd stalled beat
        assert dog.fires == 1

    def test_progress_resets_the_count(self):
        dog = Watchdog(2)
        dog.beat(1)
        dog.beat(1)
        assert not dog.beat(2)             # progress
        assert not dog.beat(2)
        assert dog.beat(2)

    def test_refires_through_a_long_stall(self):
        dog = Watchdog(2)
        dog.beat(5)
        fires = sum(1 for _ in range(8) if dog.beat(5))
        assert fires == 4                  # every `deadline` beats


class TestBatchedChurn:
    def test_storm_of_events_is_one_rebuild(self):
        svc = make_supervised(n_tasks=4)
        epoch_before = svc.service.stats().epoch
        # Ten flaps of the same task plus one real departure: two slots.
        for _ in range(10):
            svc.deregister("t0")
            svc.register(make_task("t0"))
        svc.deregister("t1")
        svc.tick()
        assert svc.service.stats().epoch == epoch_before + 1
        assert set(svc.service.tasks) == {"t0", "t2", "t3"}
        assert svc.queue.coalesced >= 10

    def test_cancelled_churn_is_no_rebuild(self):
        svc = make_supervised()
        svc.tick()
        epoch_before = svc.service.stats().epoch
        svc.register(make_task("t9"))
        svc.deregister("t9")               # cancels in the queue
        svc.tick()
        assert svc.service.stats().epoch == epoch_before

    def test_capacity_shed_is_counted_and_reported(self):
        svc = make_supervised(queue_capacity=2)
        assert svc.deregister("t0")
        assert svc.register(make_task("t8"))
        assert not svc.register(make_task("t9"))   # third subject
        assert svc.stats().queue_shed == 1

    def test_availability_and_update_round_trip(self):
        svc = make_supervised()
        svc.run_ticks(3)
        assert svc.update_task("t0", critical_time=60.0)
        assert svc.set_availability("r0", 0.8)
        svc.tick()
        assert svc.service.task("t0").critical_time == 60.0

    def test_oscillation_storm_preserves_membership(self):
        svc = make_supervised(n_tasks=3)
        accepted = svc.inject_storm(
            ChurnStorm(at=1, events=12, kind="oscillate"))
        assert accepted == 12              # all coalesce, none shed
        svc.tick()
        assert set(svc.service.tasks) == {"t0", "t1", "t2"}


class TestInvalidChurn:
    """Invalid churn is refused to its producer; before, it was queued and
    the next tick raised out of the batched rebuild."""

    @pytest.mark.parametrize("resource, value", [
        ("r0", 1.5), ("r0", -0.1), ("r0", float("nan")),
        ("r0", float("inf")), ("ghost", 0.5),
    ])
    def test_bad_availability_raises_and_queues_nothing(self, resource,
                                                        value):
        svc = make_supervised()
        svc.tick()
        with pytest.raises(ServiceError):
            svc.set_availability(resource, value)
        assert svc.queue.depth == 0
        svc.run_ticks(2)                   # the loop keeps running

    @pytest.mark.parametrize("critical_time", [
        0.0, -1.0, float("nan"), float("inf"),
    ])
    def test_bad_critical_time_raises_and_queues_nothing(self,
                                                         critical_time):
        svc = make_supervised()
        svc.tick()
        with pytest.raises(ServiceError):
            svc.update_task("t0", critical_time=critical_time)
        assert svc.queue.depth == 0
        svc.run_ticks(2)
        assert svc.service.task("t0").critical_time == 40.0

    def test_valid_edges_are_accepted(self):
        svc = make_supervised()
        svc.tick()
        assert svc.set_availability("r2", 0.0)
        assert svc.set_availability("r1", 1.0)
        svc.tick()
        assert svc.service.resource("r1").availability == 1.0


class TestLastGoodCapture:
    def test_capture_follows_the_live_verdict(self):
        svc = make_supervised()
        svc.run_ticks(5)
        live = svc.service
        assert live.feasible(1e-2) == live.taskset.is_feasible(
            live.allocations(), tol=1e-2)
        # The held value is the live iterate itself, not a copy of it.
        held = svc._last_good
        optimizer = live._optimizer
        assert held.structure is optimizer.structure
        assert held.lat is optimizer.lat
        assert (held.iteration, held.epoch) == \
            (optimizer.iteration, live.stats().epoch)
        assert dict(zip(held.structure.subtask_names, held.lat.tolist())) \
            == live.allocations()

    def test_vectorized_capture_makes_no_object_graph_check(self,
                                                            monkeypatch):
        calls = []
        original = TaskSet.is_feasible

        def counted(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        svc = make_supervised()
        monkeypatch.setattr(TaskSet, "is_feasible", counted)
        svc.run_ticks(5)
        assert calls == []
        assert svc._last_good_tick == 5

    def test_verdict_right_after_a_rebuild_and_a_restore(self):
        """Before any step of a fresh epoch the verdict is measured on the
        compiled structure, and agrees with the object graph."""
        svc = make_supervised(stall_deadline=10)
        svc.run_ticks(5)
        svc.inject_stall(2)
        assert svc.update_task("t0", critical_time=30.0)
        svc.tick()                         # rebuild, no step (stalled)
        live = svc.service
        for tol in (1e-9, 1e-2):
            assert live.feasible(tol) == live.taskset.is_feasible(
                live.allocations(), tol=tol)
        live.snapshot()
        live.step(20)
        assert live.restore()
        assert live.feasible(1e-2) == live.taskset.is_feasible(
            live.allocations(), tol=1e-2)


class TestSupervisorRestart:
    def test_watchdog_restart_restores_from_snapshot(self):
        telemetry = Telemetry.in_memory()
        svc = make_supervised(telemetry=telemetry, stall_deadline=2,
                              snapshot_interval=5)
        svc.run_ticks(10)                  # converging + snapshots
        svc.inject_stall(4)
        svc.run_ticks(4)
        stats = svc.stats()
        assert stats.watchdog_fires >= 1
        assert stats.supervisor_restarts >= 1
        assert stats.stall_ticks == 4
        registry = telemetry.registry
        assert registry.counter(
            "service.supervisor_restarts_total").value >= 1.0
        kinds = [e.kind for e in telemetry.tracer.sinks[0].events]
        assert "supervisor_restart" in kinds
        # The loop resumes making progress after the stall.
        iterations = svc.service.stats().iterations
        svc.tick()
        assert svc.service.stats().iterations > iterations

    def test_corrupted_snapshot_demotes_to_cold_and_counts(self, tmp_path):
        svc = make_supervised(stall_deadline=2, snapshot_interval=5,
                              snapshot_dir=str(tmp_path))
        svc.run_ticks(5)
        svc.corrupt_snapshot()
        svc.inject_stall(3)
        svc.run_ticks(3)                   # watchdog fires into the rot
        stats = svc.stats()
        assert stats.supervisor_restarts >= 1
        assert stats.snapshot_corruptions >= 1
        # Never raised; the loop keeps running.
        svc.run_ticks(2)

    def test_snapshots_disabled_still_survives_stall(self):
        svc = make_supervised(snapshot_interval=0, stall_deadline=2)
        svc.run_ticks(3)
        svc.inject_stall(3)
        svc.run_ticks(5)
        assert svc.stats().supervisor_restarts >= 1


class TestCheckpointOutage:
    def test_outage_retries_then_opens_breaker(self):
        telemetry = Telemetry.in_memory()
        svc = make_supervised(
            telemetry=telemetry, snapshot_interval=2,
            retry=RetryPolicy(max_attempts=3), failure_threshold=3,
            breaker_cooldown=2,
        )
        svc.set_checkpoint_outage(True)
        svc.run_ticks(2)                   # snapshot at tick 2 fails out
        stats = svc.stats()
        assert stats.retries >= 2
        assert stats.breaker_opens >= 1
        assert stats.checkpoint_failures >= 1
        registry = telemetry.registry
        assert registry.counter("service.retries_total").value >= 2.0
        assert registry.counter(
            "service.breaker_opens_total").value >= 1.0

    def test_breaker_recloses_after_outage_and_cooldown(self):
        svc = make_supervised(
            snapshot_interval=2, retry=RetryPolicy(max_attempts=3),
            failure_threshold=3, breaker_cooldown=2,
        )
        svc.set_checkpoint_outage(True)
        svc.run_ticks(2)
        assert svc.breaker.state != "closed"
        svc.set_checkpoint_outage(False)
        svc.run_ticks(6)                   # next snapshots reclose it
        assert svc.breaker.state == "closed"
        assert svc.stats().snapshots_taken >= 1


class TestBrownout:
    def make_degraded(self, telemetry=None):
        svc = make_supervised(
            telemetry=telemetry, stall_deadline=10,
            brownout=BrownoutConfig(enter_after=2, exit_after=3),
        )
        svc.run_ticks(10)                  # capture a last-good answer
        svc.inject_stall(6)
        svc.run_ticks(4)                   # stressed ticks -> degraded
        assert svc.degraded
        return svc

    def test_degraded_serves_last_good_allocation(self):
        svc = self.make_degraded()
        view = svc.query("t0")
        assert view.degraded
        assert view.meets_critical_time
        assert svc.stats().degraded_served >= 1

    def test_degraded_sheds_new_registrations(self):
        svc = self.make_degraded()
        assert not svc.register(make_task("t9"))
        assert svc.stats().degraded_shed == 1
        # Existing-task churn still queues.
        assert svc.deregister("t1")

    def test_exits_via_hysteresis_and_traces_transitions(self):
        telemetry = Telemetry.in_memory()
        svc = self.make_degraded(telemetry=telemetry)
        svc.run_ticks(8)                   # stall drains, calm run builds
        assert not svc.degraded
        stats = svc.stats()
        assert stats.brownout_entries == 1
        assert stats.brownout_exits == 1
        states = [e.data["state"]
                  for e in telemetry.tracer.sinks[0].events
                  if e.kind == "service_degraded"]
        assert states == ["degraded", "healthy"]
        assert telemetry.registry.counter(
            "service.degraded_transitions_total").value == 2.0

    def test_healthy_query_is_live(self):
        svc = make_supervised()
        svc.run_ticks(2)
        view = svc.query("t0")
        assert not view.degraded
        assert svc.stats().live_served == 1

    def test_unknown_query_raises_and_counts(self):
        svc = make_supervised()
        svc.run_ticks(1)
        with pytest.raises(ServiceError):
            svc.query("ghost")
        assert svc.stats().failed_queries == 1


class TestFaultInjection:
    def test_service_injector_rejects_distributed_plans(self):
        svc = make_supervised()
        plan = FaultPlan(loss_bursts=(LossBurst(start=1, end=5,
                                                probability=0.5),))
        with pytest.raises(ServiceError):
            ServiceFaultInjector(plan, svc)

    def test_plan_drives_the_supervised_loop(self):
        plan = FaultPlan(
            loop_stalls=(LoopStall(at=3, ticks=2),),
            churn_storms=(ChurnStorm(at=5, events=4, kind="arrivals"),),
        )
        svc = make_supervised(fault_plan=plan, stall_deadline=2)
        svc.run_ticks(6)
        stats = svc.stats()
        assert stats.stall_ticks == 2
        assert stats.storms == 1
        assert any(name.startswith("storm") for name in svc.service.tasks)


def trace_tuples(telemetry):
    sink = telemetry.tracer.sinks[0]
    return [
        (ev.kind, ev.ts,
         tuple(sorted((k, repr(v)) for k, v in ev.data.items()
                      if k != "duration_s"))
         if ev.kind != "metrics_snapshot" else ())
        for ev in sink.events
    ]


class TestDeterminism:
    def test_identical_chaos_runs_produce_identical_traces(self):
        plan = FaultPlan(
            loop_stalls=(LoopStall(at=4, ticks=3),),
            churn_storms=(ChurnStorm(at=2, events=6, kind="oscillate"),),
        )

        def run():
            telemetry = Telemetry.in_memory()
            svc = make_supervised(n_tasks=3, telemetry=telemetry,
                                  fault_plan=plan, stall_deadline=2,
                                  snapshot_interval=3)
            svc.run_ticks(12)
            return trace_tuples(telemetry), svc.stats().to_dict()

        first_trace, first_stats = run()
        second_trace, second_stats = run()
        assert first_trace == second_trace
        assert first_stats == second_stats


class TestNoTaskSetOnTheTickPath:
    def test_churn_and_ticks_build_no_task_set_until_read(self,
                                                          monkeypatch):
        """Every churn kind (a coalesced replace included), snapshots and
        the last-good capture over 50 ticks construct no TaskSet; the
        first read of ``taskset`` builds one, equal to a cold build of
        the membership."""
        tasks = [mixed_task(i) for i in range(4)]
        service = SupervisedService(list(MIXED_RESOURCES), tasks,
                                    config=HardeningConfig(
                                        snapshot_interval=5))
        built = []
        construct = TaskSet.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            construct(self, *args, **kwargs)

        monkeypatch.setattr(TaskSet, "__init__", counted)
        script = {
            2: lambda: service.deregister("m1"),
            6: lambda: service.register(tasks[1]),
            10: lambda: service.update_task("m2", critical_time=50.0),
            14: lambda: service.set_availability("r2", 0.6),
            18: lambda: service.register(mixed_task(5)),
            22: lambda: (service.deregister("m0"),
                         service.register(tasks[0])),
        }
        for tick in range(1, 51):
            if tick in script:
                script[tick]()
            service.tick()
        inner = service.service
        assert service.snapshots_taken >= 10
        assert inner.stats().churn_events == 1 + len(script)  # + install
        assert built == []
        taskset = inner.taskset
        assert built == [1] and inner.taskset is taskset
        cold = TaskSet(
            sorted((inner.task(name) for name in inner.tasks),
                   key=lambda t: t.name),
            [inner.resource(r.name) for r in MIXED_RESOURCES],
            allow_shared_resources=True)
        assert [t.name for t in taskset.tasks] == \
            [t.name for t in cold.tasks]
        for task in taskset.tasks:
            assert task is inner.task(task.name)
        assert taskset.resources["r2"].availability == 0.6
        assert taskset_fingerprint(taskset) == taskset_fingerprint(cold)


def count_latency_maps(monkeypatch, subtask_names):
    """Shadow ``zip`` in the engine's, the optimizer's and the service's
    modules, as test_churn_cost_curve shadows ``TaskSet``, and return the
    sizes of the subtask-keyed maps zipped through it: every name-keyed
    map of the iterate is ``dict(zip(names, values))``."""
    built = []

    def counted(*iterables):
        keys = iterables[0]
        if isinstance(keys, tuple) and keys and set(keys) <= subtask_names:
            built.append(len(keys))
        return zip(*iterables)

    for module in (optimizer_module, vectorized_module, service_module,
                   supervisor_module):
        monkeypatch.setattr(module, "zip", counted, raising=False)
    return built


#: Linear, log and quadratic utilities (an inelastic one keeps the
#: iterate from settling feasible, and so from being captured), over
#: chains and forks with hyperbolic, power-law and corrected shares.
FEASIBLE_MIX = {t.name: t for t in (mixed_task(i) for i in (0, 2, 3, 4, 6))}


class TestNoLatencyMapOnTheTickPath:
    """The engine's latency array is the only copy of the iterate: a
    churn epoch solves Eq. 7 in the engine's arrays, and the last-good
    capture holds them."""

    SUBTASKS = {sub.name for task in FEASIBLE_MIX.values()
                for sub in task.subtasks}

    def test_churn_and_ticks_build_none(self, monkeypatch):
        """Every churn kind (a coalesced replace included), snapshots and
        the last-good capture over 30 ticks build no subtask-keyed
        latency map; a query builds its own task's."""
        tasks = FEASIBLE_MIX
        service = SupervisedService(
            list(MIXED_RESOURCES), [tasks[n] for n in ("m0", "m2", "m3")],
            config=HardeningConfig(snapshot_interval=5))
        built = count_latency_maps(monkeypatch, self.SUBTASKS)
        script = {
            2: lambda: service.deregister("m2"),
            6: lambda: service.register(tasks["m2"]),
            10: lambda: service.update_task("m3", critical_time=70.0),
            14: lambda: service.set_availability("r2", 0.6),
            18: lambda: service.register(tasks["m4"]),
            22: lambda: (service.deregister("m0"),
                         service.register(tasks["m0"])),
        }
        captured = 0
        for tick in range(1, 31):
            if tick in script:
                script[tick]()
            service.tick()
            captured += service._last_good_tick == tick
            assert built == [], tick
        assert service.service.stats().churn_events == 1 + len(script)
        assert captured >= 25
        assert service.snapshots_taken >= 6
        service.query("m2")
        assert built == [3]

    def test_direct_churn_builds_none(self, monkeypatch):
        tasks = FEASIBLE_MIX
        service = AllocationService(
            list(MIXED_RESOURCES), [tasks[n] for n in ("m0", "m2", "m3")])
        built = count_latency_maps(monkeypatch, self.SUBTASKS)
        for event in (lambda: service.deregister("m2"),
                      lambda: service.register(tasks["m2"]),
                      lambda: service.update_task("m3", critical_time=70.0),
                      lambda: service.set_availability("r2", 0.6)):
            service.step(3)
            event()
        assert service.stats().churn_events == 5
        assert built == []


def assert_same_answer(held, live, task):
    """``held`` is ``live`` served degraded: every field but ``degraded``
    and ``converged`` equal, a log utility's value to within one ulp."""
    assert held.degraded and held.converged and not live.degraded
    ulps = math.ulp(live.utility) if isinstance(task.utility, LogUtility) \
        else 0.0
    assert abs(held.utility - live.utility) <= ulps
    assert dataclasses.replace(held, utility=live.utility, degraded=False,
                               converged=live.converged) == live


class TestDegradedAnswer:
    TASKS = list(FEASIBLE_MIX.values())

    def make(self):
        return SupervisedService(
            list(MIXED_RESOURCES), self.TASKS,
            config=HardeningConfig(
                stall_deadline=10,
                brownout=BrownoutConfig(enter_after=2, exit_after=3)))

    def test_equals_the_live_view_at_capture(self):
        """A degraded answer is the live query() of the captured
        iterate, stamped degraded."""
        svc = self.make()
        svc.run_ticks(10)
        svc.inject_stall(6)
        svc.run_ticks(4)                   # stalled, stressed: degraded
        assert svc.degraded
        # The stall froze the iterate: the held capture is the live one.
        assert svc._last_good.lat is svc.service.capture().lat
        live = {t.name: svc.service.query(t.name) for t in self.TASKS}
        svc.service.step(5)                # the live iterate moves on
        for task in self.TASKS:
            held = svc.query(task.name)
            assert_same_answer(held, live[task.name], task)
            assert held.latencies != svc.service.query(task.name).latencies
        assert svc.stats().degraded_served == len(self.TASKS)

    def test_a_deregistered_task_is_served_stale(self):
        svc = self.make()
        svc.run_ticks(10)
        assert svc._last_good_tick == 10 and not svc.degraded
        live = svc.service.query("m2")
        svc.service.deregister("m2")
        with pytest.raises(ServiceError):
            svc.service.query("m2")
        assert_same_answer(svc.query("m2"), live, FEASIBLE_MIX["m2"])
        stats = svc.stats()
        assert (stats.stale_served, stats.failed_queries) == (1, 0)
