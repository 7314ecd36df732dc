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
make.
"""

import gc
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


class _ChurnProbe:
    """Wraps the service's collaborators for the duration of a churn
    event: times the components and counts the calls a churn event must
    not make."""

    def __init__(self):
        import repro.core.structure as structure
        import repro.core.vectorized as vectorized
        import repro.service.cache as cache
        import repro.service.service as service

        self.ms = dict.fromkeys(_COMPONENTS, 0.0)
        self.counts = dict.fromkeys(
            ("taskset_fingerprint", "compile_structure", "refresh_model",
             "object_graph_certificate", "TaskSet"), 0)
        self._patched = []
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

    def _patch(self, owner, name, value):
        self._patched.append((owner, name, owner.__dict__[name]
                              if isinstance(owner, type)
                              else getattr(owner, name)))
        setattr(owner, name, value)

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

    def _counted(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def close(self):
        while self._patched:
            owner, name, value = self._patched.pop()
            setattr(owner, name, value)


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
    at most one TaskSet (the new optimizer's)."""
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
            assert probe.counts["TaskSet"] <= 1
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
