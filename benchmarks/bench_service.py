"""Benchmark: the always-on allocation service (ours).

Two claims the service exists to make true:

* **query decoupling** — allocation queries answer from the current
  iterate in microseconds, independent of convergence (the optimizer can
  keep iterating underneath);
* **warm churn restarts** — after a churn burst, re-convergence from
  surviving live prices takes at most half the rounds of a cold restart
  (measured exactly as the churn experiment measures it: settling into
  ±1% of the epoch-final utility).

The churn-cost curve times one churn event per kind (deregister,
register, critical-time update, availability change) at 1k and 10k
subtasks, split by component, and asserts the calls an event must not
make.  The snapshot-cost curve times a file-backed snapshot and restore
at 1k, 10k and 100k subtasks and asserts that neither serializes the
compiled structure.
"""

import gc
import json
import os
import statistics
import time

import numpy as np
import pytest

import _report
from repro.experiments.churn import run_churn
from repro.service import AllocationService, ServiceConfig
from repro.workloads.paper import scaled_workload

_BENCH = _report.bench_name(__file__)


@pytest.mark.benchmark(group="service")
def test_steady_state_query_latency(benchmark):
    taskset = scaled_workload(4)
    service = AllocationService(
        list(taskset.resources.values()), config=ServiceConfig()
    )
    tasks = list(taskset.tasks)
    for task in tasks:
        assert service.register(task).admitted
    service.run_to_convergence()
    assert service.converged

    queries = 2000

    def run():
        for i in range(queries):
            service.query(tasks[i % len(tasks)].name)

    started = time.perf_counter()
    benchmark.pedantic(run, rounds=1, iterations=1)
    elapsed = time.perf_counter() - started

    qps = queries / elapsed
    _report.record_value(_BENCH, "query.per_second", qps)
    _report.record_value(_BENCH, "query.mean_micros",
                         elapsed / queries * 1e6)
    # The iterate answered every query feasibly.
    view = service.query(tasks[0].name)
    assert view.meets_critical_time
    print()
    print(f"  {qps:,.0f} queries/s "
          f"({elapsed / queries * 1e6:.1f} us mean)")


@pytest.mark.benchmark(group="service")
def test_warm_reconvergence_halves_cold(benchmark):
    report = benchmark.pedantic(
        lambda: run_churn(cycles=1), rounds=1, iterations=1
    )
    _report.record_value(_BENCH, "reconvergence.warm_mean_rounds",
                         report.warm_mean)
    _report.record_value(_BENCH, "reconvergence.cold_mean_rounds",
                         report.cold_mean)
    _report.record_value(_BENCH, "reconvergence.ratio",
                         report.reconvergence_ratio)
    _report.record_value(_BENCH, "cache.hits", report.cache_hits)
    _report.record_value(_BENCH, "cache.hit_rate", report.cache_hit_rate)
    # The acceptance bar: warm re-convergence after a churn burst in at
    # most 50% of the cold-restart rounds.
    assert report.reconvergence_ratio <= 0.5
    assert report.feasibility_violations == 0
    assert report.probe_rejected
    print()
    print(f"  warm {report.warm_mean:.0f} vs cold {report.cold_mean:.0f} "
          f"rounds (ratio {report.reconvergence_ratio:.2f})")


# -- churn cost ---------------------------------------------------------------

#: llabench's generator shapes at 1k and 10k subtasks (seed 7).
_CHURN_SIZES = {"1k": (250, 200), "10k": (2500, 2000)}
_CHURN_ROUNDS = 4
#: Timed components of a churn event, by the name the service calls.
_COMPONENTS = ("compile_fragment", "task_digest", "splice_structure",
               "certify_infeasible", "TaskSet", "LLAOptimizer")


class _Probe:
    """Swaps wrappers in for module or class attributes until
    :meth:`close`, counting calls into :attr:`counts`."""

    def __init__(self, counted=()):
        self.counts = dict.fromkeys(counted, 0)
        self._patched = []

    def _patch(self, owner, name, value):
        self._patched.append((owner, name, owner.__dict__[name]
                              if isinstance(owner, type)
                              else getattr(owner, name)))
        setattr(owner, name, value)

    def _counted(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def close(self):
        while self._patched:
            owner, name, value = self._patched.pop()
            setattr(owner, name, value)


class _ChurnProbe(_Probe):
    """Wraps the service's collaborators for the duration of a churn
    event: times the components and counts the calls a churn event must
    not make."""

    def __init__(self):
        import repro.core.structure as structure
        import repro.core.vectorized as vectorized
        import repro.service.cache as cache
        import repro.service.service as service

        super().__init__(("taskset_fingerprint", "compile_structure",
                          "refresh_model", "object_graph_certificate",
                          "TaskSet"))
        self.ms = dict.fromkeys(_COMPONENTS, 0.0)
        for name in _COMPONENTS:
            self._patch(service, name, self._timed(name,
                                                   getattr(service, name)))
        for module in (service, cache):
            self._patch(module, "taskset_fingerprint",
                        self._counted("taskset_fingerprint",
                                      module.taskset_fingerprint))
        for module in (structure, vectorized, cache):
            self._patch(module, "compile_structure",
                        self._counted("compile_structure",
                                      module.compile_structure))
        self._patch(structure.TaskSetStructure, "refresh_model",
                    self._counted("refresh_model",
                                  structure.TaskSetStructure.refresh_model))
        certify = service.certify_infeasible

        def certify_counted(problem, *args, **kwargs):
            if not isinstance(problem, structure.TaskSetStructure):
                self.counts["object_graph_certificate"] += 1
            return certify(problem, *args, **kwargs)

        self._patch(service, "certify_infeasible", certify_counted)

    def _timed(self, name, fn):
        def timed(*args, **kwargs):
            if name == "TaskSet":
                self.counts["TaskSet"] += 1
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.ms[name] += (time.perf_counter() - started) * 1e3
        return timed


def _churn_events(service, taskset, k):
    """Round ``k``: each event kind, then the event that undoes it."""
    names = sorted(service.tasks)
    departing = names[(37 * k + 11) % len(names)]
    updated = names[(53 * k + 5) % len(names)]
    crit = service.task(updated).critical_time
    resource = sorted(taskset.resources)[(29 * k + 3) % len(taskset.resources)]
    return [
        ("deregister", lambda: service.deregister(departing)),
        ("register", lambda: service.register(taskset.task(departing))),
        ("update", lambda: service.update_task(updated,
                                               critical_time=crit * 1.05)),
        ("update", lambda: service.update_task(updated, critical_time=crit)),
        ("availability", lambda: service.set_availability(resource, 0.9)),
        ("availability", lambda: service.set_availability(resource, 1.0)),
    ]


@pytest.mark.parametrize("size", sorted(_CHURN_SIZES))
def test_churn_cost_curve(size):
    """Cost of one churn event per kind, split by component, on llabench's
    generator shapes; and the calls an event must not make: no whole-set
    fingerprint, compile, model refresh or object-graph certificate, and
    no TaskSet.  The new epoch's optimizer runs on the spliced or cached
    structure alone, and the service builds its TaskSet only when
    ``taskset`` is read, which no event does.  Building one per event
    was most of an event's cost (about 15 of 25 ms at 10k subtasks)."""
    from repro.workloads.generator import GeneratorConfig, random_workload

    n_tasks, n_resources = _CHURN_SIZES[size]
    taskset = random_workload(GeneratorConfig(
        n_tasks=n_tasks, n_resources=n_resources, min_subtasks=4,
        max_subtasks=4,
    ), seed=7)
    service = AllocationService(list(taskset.resources.values()),
                                list(taskset.tasks))
    service.step(5)
    samples = {}
    for k in range(_CHURN_ROUNDS):
        for kind, event in _churn_events(service, taskset, k):
            # A full collection lands on whichever event allocates past
            # the threshold; collecting first keeps the split readable.
            gc.collect()
            probe = _ChurnProbe()
            started = time.perf_counter()
            try:
                event()
            finally:
                elapsed = (time.perf_counter() - started) * 1e3
                probe.close()
            service.step(1)
            assert probe.counts["taskset_fingerprint"] == 0
            assert probe.counts["compile_structure"] == 0
            assert probe.counts["refresh_model"] == 0
            assert probe.counts["object_graph_certificate"] == 0
            assert probe.counts["TaskSet"] == 0
            samples.setdefault(kind, []).append((elapsed, probe.ms))
    assert set(service.tasks) == {t.name for t in taskset.tasks}

    print()
    print(f"  churn cost at {size} subtasks (median ms per event)")
    for kind, rows in samples.items():
        total = float(np.median([ms for ms, _ in rows]))
        _report.record_value(_BENCH, f"churn.{size}.{kind}.event_time_ms",
                             total)
        split = []
        for name in _COMPONENTS:
            part = float(np.median([parts[name] for _, parts in rows]))
            _report.record_value(
                _BENCH, f"churn.{size}.{kind}.{name}_time_ms", part)
            split.append(f"{name} {part:.2f}")
        print(f"  {kind:>12}: {total:7.2f}  ({', '.join(split)})")


# -- snapshot cost ------------------------------------------------------------

#: The churn curve's shapes plus 100k subtasks (seed 7).
_SNAPSHOT_SIZES = {**_CHURN_SIZES, "100k": (25_000, 20_000)}
_SNAPSHOT_REPEATS = 5
#: The 100k snapshot file stays within a megabyte.
_SNAPSHOT_MAX_BYTES_100K = 1_000_000


class _SnapshotProbe(_Probe):
    """Counts the structure serializer's calls and times
    ``LLAOptimizer.adopt_prices``."""

    def __init__(self):
        import repro.core.structure as structure
        import repro.service.service as service
        from repro.core.optimizer import LLAOptimizer

        super().__init__(("structure_to_dict", "structure_from_dict"))
        self.adopt_ms = 0.0
        for module in (structure, service):
            for name in self.counts:
                if hasattr(module, name):
                    self._patch(module, name,
                                self._counted(name, getattr(module, name)))
        adopt = LLAOptimizer.adopt_prices

        def timed_adopt(optimizer, prices):
            started = time.perf_counter()
            try:
                return adopt(optimizer, prices)
            finally:
                self.adopt_ms += (time.perf_counter() - started) * 1e3

        self._patch(LLAOptimizer, "adopt_prices", timed_adopt)


def _timed_ms(fn):
    started = time.perf_counter()
    result = fn()
    return (time.perf_counter() - started) * 1e3, result


@pytest.mark.parametrize("size", sorted(_SNAPSHOT_SIZES))
def test_snapshot_cost_curve(size, tmp_path):
    """A file-backed snapshot and restore after one churn event, on
    llabench's generator shapes: the first write, the median write, the
    file's bytes and the median restore from the file, split into load
    with verification and ``adopt_prices``.  Neither side may call the
    structure serializer; the restore is warm, and a hand-edited price, a
    truncated file and a stale stamp each demote it to cold."""
    from repro.distributed.checkpoint import CheckpointStore
    from repro.workloads.generator import GeneratorConfig, random_workload

    n_tasks, n_resources = _SNAPSHOT_SIZES[size]
    taskset = random_workload(GeneratorConfig(
        n_tasks=n_tasks, n_resources=n_resources, min_subtasks=4,
        max_subtasks=4,
    ), seed=7)
    store = CheckpointStore(directory=str(tmp_path))
    service = AllocationService(list(taskset.resources.values()),
                                list(taskset.tasks), snapshots=store)
    service.step(5)
    service.deregister(sorted(service.tasks)[0])
    service.step(5)
    gc.collect()
    probe = _SnapshotProbe()
    try:
        writes = [_timed_ms(service.snapshot)[0]
                  for _ in range(_SNAPSHOT_REPEATS)]
        restores, adopts = [], []
        for _ in range(_SNAPSHOT_REPEATS):
            store._checkpoints.clear()
            adopted = probe.adopt_ms
            took, warm = _timed_ms(service.restore)
            assert warm
            restores.append(took)
            adopts.append(probe.adopt_ms - adopted)
    finally:
        probe.close()
    assert probe.counts == {"structure_to_dict": 0, "structure_from_dict": 0}
    path = store.path_for("service")
    size_bytes = os.path.getsize(path)
    if size == "100k":
        assert size_bytes <= _SNAPSHOT_MAX_BYTES_100K

    def rewritten(edit):
        service.snapshot()
        store._checkpoints.clear()
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(edit(text))
        return service.restore()

    def price_edit(text):
        raw = json.loads(text)
        prices = raw["state"]["resource_prices"]
        name = min(prices)
        prices[name] = prices[name] * 2.0 + 1.0
        return json.dumps(raw)

    assert rewritten(price_edit) is False
    assert rewritten(lambda text: text[:len(text) // 2]) is False
    service.snapshot()
    service.deregister(sorted(service.tasks)[0])
    assert service.restore() is False
    assert service.stats().snapshot_fallbacks == 3

    loads = [total - adopt for total, adopt in zip(restores, adopts)]
    values = {
        "first_write_ms": writes[0],
        "write_ms": statistics.median(writes),
        "bytes": float(size_bytes),
        "restore_ms": statistics.median(restores),
        "restore_load_ms": statistics.median(loads),
        "restore_adopt_ms": statistics.median(adopts),
    }
    for name, value in values.items():
        _report.record_value(_BENCH, f"snapshot.{size}.{name}", value)
    print()
    print(f"  snapshot at {size} subtasks: write {values['write_ms']:.2f} ms "
          f"(first {values['first_write_ms']:.2f}), {size_bytes:,} bytes; "
          f"restore {values['restore_ms']:.2f} ms (load and verify "
          f"{values['restore_load_ms']:.2f}, adopt_prices "
          f"{values['restore_adopt_ms']:.2f})")
