"""Tests for the always-on allocation service (churn, queries, admission,
snapshots, the async loop)."""

import asyncio
import gc
import hashlib
import json
import math
import os
import struct
import weakref

import pytest

from repro.core.structure import structure_to_dict
from repro.distributed.checkpoint import CheckpointStore
from repro.errors import ServiceError
from repro.model.events import PeriodicEvent
from repro.model.graph import SubtaskGraph
from repro.model.resources import Resource
from repro.model.task import Subtask, Task
from repro.model.utility import ExponentialUtility, LinearUtility, LogUtility
from repro.service import AllocationService, ServiceConfig
from repro.telemetry import Telemetry


def make_resources(n=3, availability=1.0):
    return [Resource(name=f"r{i}", availability=availability, lag=1.0)
            for i in range(n)]


def make_task(name, n_subtasks=2, exec_time=2.0, critical_time=40.0,
              k=2.0):
    """A chain task whose subtask ``i`` runs on shared resource ``r{i}``."""
    names = [f"{name}.s{i}" for i in range(n_subtasks)]
    subtasks = [
        Subtask(name=names[i], resource=f"r{i}", exec_time=exec_time)
        for i in range(n_subtasks)
    ]
    return Task(
        name=name,
        subtasks=subtasks,
        graph=SubtaskGraph.chain(names),
        critical_time=critical_time,
        utility=LinearUtility(critical_time, k=k),
        trigger=PeriodicEvent(50.0),
    )


def make_service(n_tasks=2, **config_kwargs):
    config = ServiceConfig(**config_kwargs)
    tasks = [make_task(f"t{i}") for i in range(n_tasks)]
    return AllocationService(make_resources(), tasks, config=config)


class TestServiceConfig:
    def test_rejects_bad_capacity_and_batch(self):
        with pytest.raises(ServiceError):
            ServiceConfig(cache_capacity=0)
        with pytest.raises(ServiceError):
            ServiceConfig(batch_size=0)


class TestConstruction:
    def test_needs_resources(self):
        with pytest.raises(ServiceError):
            AllocationService([])

    def test_rejects_duplicate_resources(self):
        with pytest.raises(ServiceError):
            AllocationService(make_resources() + make_resources(1))

    def test_rejected_initial_task_raises(self):
        doomed = make_task("doomed", critical_time=1e-3)
        with pytest.raises(ServiceError, match="rejected"):
            AllocationService(make_resources(), [doomed])

    def test_starts_empty_without_tasks(self):
        service = AllocationService(make_resources())
        assert service.tasks == ()
        assert service.taskset is None
        assert service.step(10) == 0

    def test_initial_tasks_install_with_one_rebuild(self):
        tasks = [make_task(f"t{i}") for i in range(4)]
        service = AllocationService(make_resources(), tasks)
        assert service.stats().epoch == 1
        assert service.tasks == tuple(t.name for t in tasks)

    def test_one_rebuild_matches_one_at_a_time_registration(self):
        """Installing the initial set at once leaves the same iterates,
        bit for bit, as registering its tasks one after another."""
        batch = AllocationService(make_resources(),
                                  [make_task(f"t{i}") for i in range(4)])
        serial = AllocationService(make_resources())
        for i in range(4):
            assert serial.register(make_task(f"t{i}")).admitted
        for _ in range(5):
            batch.step(13)
            serial.step(13)
            assert batch.allocations() == serial.allocations()
            assert batch._optimizer.resource_prices == \
                serial._optimizer.resource_prices
        assert batch.fingerprint == serial.fingerprint

    def test_initial_set_failing_the_certificate_raises(self):
        # Each task alone is admissible; together they overload r0.
        tasks = [make_task(f"t{i}", exec_time=9.0, critical_time=40.0)
                 for i in range(6)]
        alone = AllocationService(make_resources(), tasks[:1])
        assert alone.tasks == ("t0",)
        with pytest.raises(ServiceError, match="provably infeasible"):
            AllocationService(make_resources(), tasks)

    def test_duplicate_initial_task_raises(self):
        with pytest.raises(ServiceError, match="already registered"):
            AllocationService(make_resources(),
                              [make_task("t0"), make_task("t0")])


class TestChurn:
    def test_register_and_query(self):
        service = make_service(n_tasks=0)
        decision = service.register(make_task("t0"))
        assert decision.admitted
        service.step(50)
        view = service.query("t0")
        assert view.task == "t0"
        assert set(view.latencies) == {"t0.s0", "t0.s1"}
        assert view.aggregated_latency > 0.0

    def test_duplicate_name_rejected(self):
        service = make_service()
        decision = service.register(make_task("t0"))
        assert not decision.admitted
        assert "already registered" in decision.reason

    def test_unknown_resource_rejected(self):
        service = make_service()
        stray = Task(
            name="stray",
            subtasks=[Subtask(name="stray.s0", resource="elsewhere",
                              exec_time=1.0)],
            graph=SubtaskGraph.chain(["stray.s0"]),
            critical_time=30.0,
            utility=LinearUtility(30.0),
            trigger=PeriodicEvent(50.0),
        )
        decision = service.register(stray)
        assert not decision.admitted
        assert "unknown resource" in decision.reason

    def test_deregister_unknown_raises(self):
        with pytest.raises(ServiceError):
            make_service().deregister("ghost")

    def test_fingerprint_ignores_arrival_order(self):
        """Membership, not arrival order, determines the fingerprint —
        the property that lets oscillatory churn hit the cache."""
        forward = make_service(n_tasks=0)
        forward.register(make_task("a"))
        forward.register(make_task("b"))
        backward = make_service(n_tasks=0)
        backward.register(make_task("b"))
        backward.register(make_task("a"))
        assert forward.fingerprint == backward.fingerprint

    def test_oscillatory_churn_hits_structure_cache(self):
        service = make_service(n_tasks=2)
        fingerprint = service.fingerprint
        departed = service.deregister("t1")
        service.register(departed)
        assert service.fingerprint == fingerprint
        assert service.cache.hits >= 1

    def test_churn_warm_starts_from_live_prices(self):
        service = make_service(n_tasks=2)
        service.step(200)
        live = service._optimizer.resource_prices
        service.deregister("t1")
        rebuilt = service._optimizer.resource_prices
        for rname, price in rebuilt.items():
            assert price == pytest.approx(live[rname])

    def test_cold_config_restarts_from_estimate(self):
        service = make_service(n_tasks=2, warm_start_churn=False)
        service.step(200)
        live = service._optimizer.resource_prices
        service.deregister("t1")
        rebuilt = service._optimizer.resource_prices
        assert rebuilt != pytest.approx(live)

    def test_admission_blocks_provably_infeasible_arrival(self):
        service = make_service(n_tasks=2)
        fingerprint = service.fingerprint
        probe = make_task("probe", critical_time=1e-3)
        decision = service.register(probe)
        assert not decision.admitted
        assert "provably infeasible" in decision.reason
        # The rejection left the live problem untouched.
        assert service.fingerprint == fingerprint
        assert "probe" not in service.tasks
        assert service.stats().admission_rejections == 1

    def test_update_task_retargets_utility(self):
        service = make_service(n_tasks=1)
        decision = service.update_task("t0", critical_time=50.0)
        assert decision.admitted
        task = service.taskset.task("t0")
        assert task.critical_time == 50.0
        assert isinstance(task.utility, LinearUtility)
        assert task.utility.k == 2.0

    def test_update_task_accepts_new_utility(self):
        # Log utilities compile, so the kernel takes the update.
        service = make_service(n_tasks=1)
        decision = service.update_task("t0", utility=LogUtility(40.0))
        assert decision.admitted
        assert isinstance(service.taskset.task("t0").utility, LogUtility)
        service.step(5)
        assert service.query("t0").utility == pytest.approx(
            LogUtility(40.0).value(service.query("t0").aggregated_latency)
        )

    def test_update_task_rejection_restores_old_task(self):
        service = make_service(n_tasks=1)
        fingerprint = service.fingerprint
        decision = service.update_task("t0", critical_time=1e-3)
        assert not decision.admitted
        assert service.fingerprint == fingerprint
        assert service.taskset.task("t0").critical_time == 40.0

    def test_update_task_validates_arguments(self):
        service = make_service(n_tasks=1)
        with pytest.raises(ServiceError):
            service.update_task("ghost", critical_time=50.0)
        with pytest.raises(ServiceError):
            service.update_task("t0")

    def test_set_availability_rebuilds(self):
        service = make_service(n_tasks=1)
        fingerprint = service.fingerprint
        service.set_availability("r0", 0.5)
        assert service.fingerprint != fingerprint
        assert service.taskset.resources["r0"].availability == 0.5

    def test_set_availability_unknown_resource(self):
        with pytest.raises(ServiceError):
            make_service().set_availability("ghost", 0.5)

    def test_deregistering_everything_idles_the_service(self):
        service = make_service(n_tasks=1)
        service.deregister("t0")
        assert service.taskset is None
        assert service.fingerprint is None
        assert service.step(5) == 0
        assert service.allocations() == {}


class TestUncompilableTasks:
    """A task outside the kernel's model family is rejected at admission;
    the service stays as it was."""

    def _assert_unchanged(self, service, fingerprint, names):
        """The task map, the task set and the live optimizer still agree
        on the old membership."""
        assert service.fingerprint == fingerprint
        assert service.tasks == names
        assert tuple(t.name for t in service.taskset.tasks) == names
        assert service._optimizer.structure.task_names == names

    def _churn_still_works(self, service):
        assert service.register(make_task("fresh")).admitted
        service.deregister("t1")
        assert service.update_task("t0", critical_time=45.0).admitted
        service.step(20)
        assert set(service._optimizer.structure.task_names) == \
            {"t0", "fresh"}
        assert service.query("fresh").task == "fresh"

    def test_register_rejects_with_the_compile_reason(self):
        service = make_service(n_tasks=2)
        fingerprint = service.fingerprint
        odd = make_task("odd")
        odd.utility = ExponentialUtility(40.0)
        decision = service.register(odd)
        assert not decision.admitted
        assert "ExponentialUtility" in decision.reason
        self._assert_unchanged(service, fingerprint, ("t0", "t1"))
        self._churn_still_works(service)

    def test_update_task_rejects_with_the_compile_reason(self):
        service = make_service(n_tasks=3)
        fingerprint = service.fingerprint
        decision = service.update_task("t0",
                                       utility=ExponentialUtility(40.0))
        assert not decision.admitted
        assert "ExponentialUtility" in decision.reason
        assert isinstance(service.task("t0").utility, LinearUtility)
        self._assert_unchanged(service, fingerprint, ("t0", "t1", "t2"))
        service.deregister("t2")
        self._churn_still_works(service)

    def test_uncompilable_initial_task_raises(self):
        odd = make_task("odd")
        odd.utility = ExponentialUtility(40.0)
        with pytest.raises(ServiceError, match="ExponentialUtility"):
            AllocationService(make_resources(), [make_task("t0"), odd])


class TestQueries:
    def test_unknown_task_raises(self):
        with pytest.raises(ServiceError):
            make_service().query("ghost")

    def test_query_counts(self):
        service = make_service()
        service.step(10)
        service.query("t0")
        service.query("t1")
        assert service.stats().queries == 2

    def test_converged_view_meets_critical_time(self):
        service = make_service()
        rounds = service.run_to_convergence()
        assert rounds is not None
        view = service.query("t0")
        assert view.converged
        assert view.meets_critical_time

    def test_reconvergence_recorded_per_epoch(self):
        service = make_service()
        assert service.run_to_convergence() is not None
        service.deregister("t1")
        assert service.run_to_convergence() is not None
        assert len(service.stats().reconvergence_rounds) == 2


class TestSnapshots:
    def test_snapshot_restore_roundtrip(self):
        service = make_service()
        service.step(100)
        prices = service._optimizer.resource_prices
        service.snapshot()
        service.step(100)
        assert service.restore() is True
        assert service._optimizer.resource_prices == \
            pytest.approx(prices)

    def test_stale_snapshot_demotes_to_cold_reset(self):
        service = make_service()
        service.step(100)
        service.snapshot()
        service.deregister("t1")          # fingerprint changes
        assert service.restore() is False
        assert service.stats().snapshot_fallbacks == 1

    def test_corrupted_price_payload_demotes_to_cold_reset(self):
        """A snapshot whose price map fails its own digest is
        untrustworthy: the restore must demote to a cold reset (same
        counter and trace event as a fingerprint mismatch), never adopt
        the prices."""
        service = make_service()
        service.step(100)
        service.snapshot()
        stored = service.snapshots._checkpoints["service"]
        stored.state["resource_prices"]["r0"] += 1.0
        assert service.restore() is False
        assert service.stats().snapshot_fallbacks == 1

    def test_truncated_price_payload_demotes_to_cold_reset(self):
        service = make_service()
        service.step(100)
        service.snapshot()
        stored = service.snapshots._checkpoints["service"]
        del stored.state["resource_prices"]["r2"]
        assert service.restore() is False
        assert service.stats().snapshot_fallbacks == 1

    def test_intact_price_payload_still_warm_restores(self):
        service = make_service()
        service.step(100)
        service.snapshot()
        state = service.snapshots._checkpoints["service"].state
        assert set(state) == {"resource_prices", "digest"}
        assert service.restore() is True
        assert service.stats().snapshot_fallbacks == 0

    def test_format_2_structure_payload_demotes_to_cold_reset(self):
        """A snapshot written before the price digest (here one carrying
        a structure payload of format 2) cannot be verified and restores
        cold."""
        service = make_service()
        service.step(100)
        service.snapshot()
        stored = service.snapshots._checkpoints["service"]
        payload = structure_to_dict(service._optimizer.structure)
        for name in ("ut_scale", "ut_soft", "ut_curv"):
            del payload[name]
        payload["format"] = 2
        del stored.state["digest"]
        stored.state["structure"] = payload
        assert service.restore() is False
        assert service.stats().snapshot_fallbacks == 1

    def test_snapshot_without_digest_demotes_to_cold_reset(self):
        """The structure-carrying snapshot of the previous format (an
        intact format-3 structure payload beside the prices, no digest)
        demotes once, to a cold reset."""
        service = make_service()
        service.step(100)
        service.snapshot()
        stored = service.snapshots._checkpoints["service"]
        del stored.state["digest"]
        stored.state["structure"] = structure_to_dict(
            service._optimizer.structure)
        assert service.restore() is False
        assert service.stats().snapshot_fallbacks == 1

    @pytest.mark.parametrize("prices", [
        {"r0": "0.5", "r1": 0.5, "r2": 0.5},
        {"r0": True, "r1": 0.5, "r2": 0.5},
        [["r0", 0.5], ["r1", 0.5], ["r2", 0.5]],
        {"r0": 0.5, "r1": 0.5, "r2": 0.5, "r9": 0.5},
        {"r0": 0.5, "r1": float("nan"), "r2": 0.5},
        {"r0": 0.5, "r1": float("inf"), "r2": 0.5},
        {"r0": 0.5, "r1": -5.0, "r2": 0.5},
    ], ids=["string", "bool", "not-a-map", "unknown-resource", "nan",
            "inf", "negative"])
    def test_malformed_price_map_demotes_without_raising(self, prices):
        """A malformed map demotes to cold even when its digest matches
        it: restore never raises on a snapshot's contents, and a price
        Eq. 8 cannot produce (NaN, infinite, negative) is never adopted,
        so every latency stays finite."""
        service = make_service()
        service.step(100)
        service.snapshot()
        stored = service.snapshots._checkpoints["service"]
        stored.state["resource_prices"] = prices
        stored.state["digest"] = hashlib.sha256(
            json.dumps(prices, sort_keys=True).encode("utf-8")).hexdigest()
        assert service.restore() is False
        assert service.stats().snapshot_fallbacks == 1
        service.step(5)
        assert all(math.isfinite(lat)
                   for lat in service.allocations().values())

    def test_file_round_trip_restores_prices_bit_for_bit(self, tmp_path):
        store = CheckpointStore(directory=str(tmp_path))
        service = AllocationService(
            make_resources(), [make_task("t0"), make_task("t1")],
            snapshots=store,
        )
        service.step(100)
        prices = service._optimizer.resource_prices
        service.snapshot()
        with open(store.path_for("service"), encoding="utf-8") as handle:
            assert set(json.load(handle)["state"]) == \
                {"resource_prices", "digest"}
        service.step(100)
        store._checkpoints.clear()          # the file alone remains
        assert service.restore() is True
        restored = service._optimizer.resource_prices
        assert set(restored) == set(prices)
        for name, price in prices.items():
            assert struct.pack("<d", restored[name]) == \
                struct.pack("<d", price), name

    def test_snapshot_needs_tasks(self):
        empty = AllocationService(make_resources())
        with pytest.raises(ServiceError):
            empty.snapshot()
        with pytest.raises(ServiceError):
            empty.restore()


class TestEpochTaskSets:
    def test_superseded_epochs_free_their_task_sets(self):
        """No cache entry keeps a churn epoch's task set alive: after ten
        deregister/register pairs, each epoch's task set read once, only
        the live one survives a collection."""
        service = make_service(n_tasks=4)
        epochs = [weakref.ref(service.taskset)]
        for k in range(10):
            name = f"t{k % 4}"
            task = service.task(name)
            service.deregister(name)
            epochs.append(weakref.ref(service.taskset))
            assert service.register(task).admitted
            epochs.append(weakref.ref(service.taskset))
        gc.collect()
        alive = [i for i, ref in enumerate(epochs) if ref() is not None]
        assert alive == [len(epochs) - 1]
        assert service.cache.hits == 16


class TestAsyncRun:
    def test_run_executes_requested_iterations(self):
        service = make_service()
        executed = asyncio.run(service.run(iterations=70))
        assert executed == 70
        assert service.stats().iterations == 70

    def test_stop_ends_an_unbounded_run(self):
        service = make_service()

        async def scenario():
            runner = asyncio.create_task(service.run())
            await asyncio.sleep(0)
            service.stop()
            return await runner

        executed = asyncio.run(scenario())
        assert executed >= 0
        assert service._running is False

    def test_concurrent_run_rejected(self):
        service = make_service()

        async def scenario():
            runner = asyncio.create_task(service.run())
            await asyncio.sleep(0)
            try:
                with pytest.raises(ServiceError):
                    await service.run(iterations=1)
            finally:
                service.stop()
                await runner

        asyncio.run(scenario())

    def test_churn_between_batches(self):
        """Queries and churn interleave with a bounded run on one loop."""
        service = make_service(batch_size=8)

        async def scenario():
            runner = asyncio.create_task(service.run(iterations=64))
            await asyncio.sleep(0)
            service.deregister("t1")
            view = service.query("t0")
            await runner
            return view

        view = asyncio.run(scenario())
        assert view.task == "t0"
        assert service.tasks == ("t0",)


class TestTelemetryAndStats:
    def test_counters_flow_into_registry(self):
        telemetry = Telemetry()
        service = AllocationService(
            make_resources(), [make_task("t0")], telemetry=telemetry,
        )
        service.step(5)
        service.query("t0")
        service.register(make_task("t0"))      # duplicate → rejected
        registry = telemetry.registry
        assert registry.get("service.queries_total").value == 1
        assert registry.get("service.admission_rejections_total").value == 1
        assert registry.get("service.tasks").value == 1

    def test_snapshot_time_and_size_flow_into_registry(self, tmp_path):
        telemetry = Telemetry()
        store = CheckpointStore(directory=str(tmp_path))
        service = AllocationService(
            make_resources(), [make_task("t0")], telemetry=telemetry,
            snapshots=store,
        )
        service.step(5)
        service.snapshot()
        registry = telemetry.registry
        assert registry.get("service.snapshot_ms").count == 1
        assert registry.get("service.snapshot_bytes").value == \
            os.path.getsize(store.path_for("service"))

    def test_stats_to_dict_is_json_shaped(self):
        service = make_service()
        service.step(10)
        payload = service.stats().to_dict()
        assert payload["tasks"] == 2
        assert payload["iterations"] == 10
        assert isinstance(payload["reconvergence_rounds"], list)
