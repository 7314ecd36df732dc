"""The service's churn path: fragments spliced into the live structure,
the membership fingerprint, admission on the candidate's arrays, and the
one-transaction batch.

Every churn event must leave the service exactly where a cold rebuild of
the new membership would: the same compiled bytes, the same fingerprint
for the same membership, the same iterates from the same warm prices,
and the same admission verdicts as the object-graph certificate.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.service as service_module
from repro.core.optimizer import LLAConfig, LLAOptimizer
from repro.core.structure import compile_structure
from repro.errors import ServiceError
from repro.model.graph import SubtaskGraph
from repro.model.resources import Resource
from repro.model.task import Subtask, Task, TaskSet
from repro.service import AllocationService, ServiceConfig
from repro.service.churnqueue import ChurnEvent
from repro.workloads.generator import GeneratorConfig, random_workload
from tests.analysis.reference import certify_infeasible_reference
from tests.conftest import MIXED_RESOURCES, mixed_task
from tests.core.test_structure import _assert_byte_identical
from tests.service.test_service import make_resources, make_task

_POOL = 8
_CRITICAL_TIMES = (60.0, 45.0, 61.25)
_AVAILABILITIES = (1.0, 0.7, 0.45)

_event = st.one_of(
    st.tuples(st.just("register"), st.integers(0, _POOL - 1),
              st.sampled_from(_CRITICAL_TIMES)),
    st.tuples(st.just("deregister"), st.integers(0, _POOL - 1)),
    st.tuples(st.just("update"), st.integers(0, _POOL - 1),
              st.sampled_from(_CRITICAL_TIMES)),
    st.tuples(st.just("availability"), st.integers(0, 3),
              st.sampled_from(_AVAILABILITIES)),
)
_program = st.lists(
    st.one_of(_event.map(lambda e: [e]),
              st.lists(_event, min_size=2, max_size=4)),
    min_size=1, max_size=10,
)


def _apply_one(service, event):
    kind, key = event[0], event[1]
    if kind == "register":
        service.register(mixed_task(key, event[2]))
    elif kind == "deregister":
        if f"m{key}" in service.tasks:
            service.deregister(f"m{key}")
    elif kind == "update":
        if f"m{key}" in service.tasks:
            service.update_task(f"m{key}", critical_time=event[2])
    else:
        service.set_availability(f"r{key}", event[2])


def _as_churn_event(event):
    kind, key = event[0], event[1]
    if kind == "register":
        return ChurnEvent("register", f"m{key}",
                          task=mixed_task(key, event[2]))
    if kind == "deregister":
        return ChurnEvent("deregister", f"m{key}")
    if kind == "update":
        return ChurnEvent("update", f"m{key}", critical_time=event[2])
    return ChurnEvent("availability", f"r{key}", availability=event[2])


def _assert_matches_cold_compile(service):
    """The live structure is a cold compile of the membership, and the
    task map, the task set and the optimizer agree on it."""
    if not service.tasks:
        assert service.taskset is None and service.fingerprint is None
        return
    structure = service._optimizer.structure
    taskset = service.taskset
    assert tuple(t.name for t in taskset.tasks) == tuple(sorted(service.tasks))
    for task in taskset.tasks:
        assert task is service.task(task.name)
    for rname, resource in taskset.resources.items():
        assert resource is service.resource(rname)
    _assert_byte_identical(
        structure,
        compile_structure(taskset, LLAConfig().max_latency_factor))


def _cold_fingerprint(service):
    """The fingerprint of a fresh service installing the same membership
    in reverse arrival order, then taking the live availabilities.

    An availability change is not screened, so the live membership can
    be provably infeasible at the live availabilities.  The fresh service
    installs it at availability 1.0, the most any resource here has,
    where the certificate (monotone in availability) passes every
    membership the live service admitted."""
    fresh = AllocationService(
        [dataclasses.replace(r, availability=1.0) for r in MIXED_RESOURCES],
        [service.task(name) for name in reversed(service.tasks)],
    )
    fresh.apply_batch([
        ChurnEvent("availability", r.name,
                   availability=service.resource(r.name).availability)
        for r in MIXED_RESOURCES
    ])
    return fresh.fingerprint


class TestSpliceParity:
    @given(program=_program)
    @settings(max_examples=60, deadline=None)
    def test_every_event_leaves_a_cold_compile(self, program):
        service = AllocationService(
            list(MIXED_RESOURCES), [mixed_task(0), mixed_task(3)],
            config=ServiceConfig(cache_capacity=4),
        )
        for events in program:
            if len(events) == 1:
                _apply_one(service, events[0])
            else:
                service.apply_batch([_as_churn_event(e) for e in events])
            _assert_matches_cold_compile(service)
            if service.tasks:
                assert service.fingerprint == _cold_fingerprint(service)

    def test_oscillation_hits_the_cache_without_a_splice(self, monkeypatch):
        service = AllocationService(
            list(MIXED_RESOURCES), [mixed_task(i) for i in range(4)])
        before = service.fingerprint
        departed = service.deregister("m2")
        splices = []
        original = service_module.splice_structure
        monkeypatch.setattr(service_module, "splice_structure",
                            lambda *a, **k: splices.append(1)
                            or original(*a, **k))
        hits = service.cache.hits
        assert service.register(departed).admitted
        assert service.fingerprint == before
        assert service.cache.hits == hits + 1
        assert splices == []
        _assert_matches_cold_compile(service)

    def test_structure_is_never_refreshed_or_compiled_on_churn(
            self, monkeypatch):
        service = AllocationService(
            list(MIXED_RESOURCES), [mixed_task(i) for i in range(4)])
        calls = []
        monkeypatch.setattr("repro.service.cache.compile_structure",
                            lambda *a, **k: calls.append("compile"))
        monkeypatch.setattr("repro.service.cache.taskset_fingerprint",
                            lambda *a, **k: calls.append("fingerprint"))
        service.deregister("m1")
        assert service.register(mixed_task(5)).admitted
        assert service.update_task("m0", critical_time=50.0).admitted
        service.set_availability("r2", 0.6)
        assert calls == []

    def test_no_churn_event_reads_the_price_map(self, monkeypatch):
        """Each epoch's μ array passes to the next as it is: no event of
        any kind, alone or in a batch, builds the name-keyed price map."""
        service = AllocationService(
            list(MIXED_RESOURCES), [mixed_task(i) for i in range(4)])
        service.step(5)
        reads = []
        prices = LLAOptimizer.resource_prices
        monkeypatch.setattr(LLAOptimizer, "resource_prices", property(
            lambda self: reads.append(1) or prices.fget(self)))
        service.deregister("m1")
        assert service.register(mixed_task(5)).admitted
        assert service.update_task("m0", critical_time=50.0).admitted
        service.set_availability("r2", 0.6)
        decisions = service.apply_batch([
            ChurnEvent("deregister", "m2"),
            ChurnEvent("register", "m6", task=mixed_task(6)),
            ChurnEvent("replace", "m5", task=mixed_task(5, 55.0)),
            ChurnEvent("update", "m0", critical_time=52.0),
            ChurnEvent("availability", "r1", availability=0.7),
        ])
        assert all(d.admitted for d in decisions)
        service.step(5)
        assert reads == []


class TestMembershipFingerprint:
    def test_equal_memberships_in_different_orders(self):
        tasks = [mixed_task(i) for i in range(5)]
        forward = AllocationService(list(MIXED_RESOURCES))
        for task in tasks:
            forward.register(task)
        backward = AllocationService(list(MIXED_RESOURCES), tasks[:1])
        for task in reversed(tasks[1:]):
            backward.register(task)
        backward.set_availability("r1", 0.5)
        backward.set_availability("r1", 1.0)
        assert forward.fingerprint == backward.fingerprint
        installed = AllocationService(list(MIXED_RESOURCES), tasks[::-1])
        assert installed.fingerprint == forward.fingerprint

    def test_one_ulp_changes_the_fingerprint(self):
        base = AllocationService(make_resources(), [make_task("t0")])
        crit = base.task("t0").critical_time
        nudged = AllocationService(make_resources(), [make_task("t0")])
        nudged.update_task("t0", critical_time=np.nextafter(crit, np.inf))
        assert nudged.fingerprint != base.fingerprint

        slower = make_task("t0")
        slower_sub = slower.subtasks[0]
        slower = Task(
            name="t0",
            subtasks=[Subtask(slower_sub.name, slower_sub.resource,
                              np.nextafter(slower_sub.exec_time, np.inf))]
            + list(slower.subtasks[1:]),
            graph=slower.graph, critical_time=slower.critical_time,
            utility=slower.utility, trigger=slower.trigger,
        )
        assert AllocationService(make_resources(), [slower]).fingerprint \
            != base.fingerprint

        shocked = AllocationService(make_resources(), [make_task("t0")])
        shocked.set_availability("r2", np.nextafter(1.0, 0.0))
        assert shocked.fingerprint != base.fingerprint

    def test_old_snapshot_stamps_demote_to_a_cold_reset_once(self):
        """A snapshot stamped with the whole-set task-set fingerprint
        (the service's stamp before membership fingerprints) restores
        cold once; the next snapshot carries the new stamp."""
        service = AllocationService(make_resources(),
                                    [make_task("t0"), make_task("t1")])
        service.step(50)
        state = {"mu": service._optimizer.mu.tolist()}
        service.snapshots.save(
            "service", 50, state,
            fingerprint=service_module.taskset_fingerprint(service.taskset))
        assert service.restore() is False
        assert service.stats().snapshot_fallbacks == 1
        service.snapshot()
        assert service.restore() is True


def _churn_script(service, taskset):
    names = sorted(service.tasks)
    first, second = names[3], names[len(names) // 2]
    crit = service.task(second).critical_time
    resource = sorted(taskset.resources)[7]
    return [
        lambda: service.deregister(first),
        lambda: service.register(taskset.task(first)),
        lambda: service.update_task(second, critical_time=crit * 1.1),
        lambda: service.set_availability(resource, 0.9),
        lambda: service.update_task(second, critical_time=crit),
        lambda: service.set_availability(resource, 1.0),
        lambda: service.apply_batch([
            ChurnEvent("deregister", second),
            ChurnEvent("availability", resource, availability=0.85),
        ]),
    ]


class TestIterateParity:
    def test_warm_iterates_match_a_cold_rebuild_bit_for_bit(self):
        """50 iterations after each event of a seeded 1k-subtask script
        equal those of a reference built the cold way: compile_structure,
        a new LLAOptimizer, adopt_prices with the same live prices."""
        taskset = random_workload(GeneratorConfig(
            n_tasks=250, n_resources=200, min_subtasks=4, max_subtasks=4,
        ), seed=7)
        service = AllocationService(list(taskset.resources.values()),
                                    list(taskset.tasks))
        lla = LLAConfig()
        service.step(40)
        for event in _churn_script(service, taskset):
            live = service._optimizer.mu
            event()
            reference = LLAOptimizer(
                compile_structure(service.taskset, lla.max_latency_factor),
                lla)
            reference.adopt_prices(live)
            optimizer = service._optimizer
            for _ in range(50):
                service.step(1)
                reference.step()
                assert optimizer.latencies == reference.latencies
                assert optimizer.resource_prices == \
                    reference.resource_prices


class TestBatchIsOneTransaction:
    def test_a_raising_event_changes_nothing(self):
        """A deregister followed by an availability change for an unknown
        resource raises, and leaves the task map, the task set, the
        optimizer and the counters as they were."""
        service = AllocationService(
            make_resources(),
            [make_task(f"T{i:03d}", exec_time=0.5, critical_time=200.0)
             for i in range(20)])
        service.step(10)
        before = (service.tasks, service.fingerprint, service.stats(),
                  service.allocations())
        with pytest.raises(ServiceError, match="nope"):
            service.apply_batch([
                ChurnEvent("deregister", "T002"),
                ChurnEvent("availability", "nope", availability=0.5),
            ])
        assert (service.tasks, service.fingerprint, service.stats(),
                service.allocations()) == before
        assert "T002" in {t.name for t in service.taskset.tasks}
        assert service.query("T002").task == "T002"
        _assert_matches_cold_compile(service)

    def test_rejections_are_counted_only_when_the_batch_commits(self):
        service = AllocationService(make_resources(), [make_task("t0")])
        odd = make_task("odd")
        odd.utility = object()
        with pytest.raises(ServiceError, match="retarget"):
            service.apply_batch([
                ChurnEvent("register", "doomed",
                           task=make_task("doomed", critical_time=1e-3)),
                ChurnEvent("register", "odd", task=odd, critical_time=30.0),
            ])
        assert service.stats().admission_rejections == 0
        assert service.tasks == ("t0",)


def _chain(name, resources, exec_times, critical_time):
    names = [f"{name}.{i}" for i in range(len(resources))]
    return Task(
        name=name,
        subtasks=[Subtask(n, r, e)
                  for n, r, e in zip(names, resources, exec_times)],
        graph=SubtaskGraph.chain(names),
        critical_time=critical_time,
        utility=make_task("x").utility,
    )


class TestAdmissionOnArrays:
    """The service's admission verdict over the candidate structure's
    arrays equals the object-graph certificate over the candidate set."""

    RESOURCES = [Resource("r0", availability=1.0, lag=1.0),
                 Resource("r1", availability=1.0, lag=0.0),
                 Resource("r2", availability=1.0, lag=0.5)]

    def _arrivals(self, seed):
        rng = np.random.default_rng(seed)
        yield "path floor", _chain(
            "a_path", ["r0", "r1"], [3.0, 2.0], float(rng.uniform(1, 5)))
        # r2's floor takes the whole critical time and r1's (below half
        # an ulp of it) vanishes in the path sum: r1's subtask is left a
        # cap of zero.
        yield "cap", _chain("a_cap", ["r2", "r1"], [9.5, 1e-16], 10.0)
        yield "load", _chain(
            "a_load", ["r2", "r0"],
            [float(rng.uniform(4, 6)), 1.0], float(rng.uniform(9, 11)))
        yield "fits", _chain(
            "a_fits", ["r1", "r2"], [1.0, 1.0], float(rng.uniform(40, 60)))

    def _candidate(self, service, task):
        members = {t.name: t for t in service.taskset.tasks}
        members[task.name] = task
        return TaskSet(sorted(members.values(), key=lambda t: t.name),
                       [service.resource(r.name) for r in self.RESOURCES],
                       allow_shared_resources=True)

    @pytest.mark.parametrize("seed", range(6))
    def test_decision_and_reason_match_the_reference(self, seed):
        incumbents = [_chain(f"inc{i}", ["r2", "r0", "r1"],
                             [2.0 + i, 1.0, 1.0], 12.0 + 4 * i)
                      for i in range(3)]
        service = AllocationService(self.RESOURCES, incumbents)
        seen = set()
        for shock in (None, 0.6):
            if shock is not None:
                service.set_availability("r2", shock)
            for _branch, arrival in self._arrivals(seed):
                expected = certify_infeasible_reference(
                    self._candidate(service, arrival))
                decision = service.register(arrival)
                if expected is None:
                    assert decision.admitted, decision.reason
                    service.deregister(arrival.name)
                    seen.add("admitted")
                else:
                    assert not decision.admitted
                    assert decision.reason == \
                        f"provably infeasible: {expected}"
                    seen.add(expected.split()[0])
        assert seen == {"admitted", "task", "subtask", "resource"}
