"""The array-driven vectorized run loop.

:meth:`LLAOptimizer.step` works from the kernel's
:class:`~repro.core.vectorized.StepArrays`: the convergence
detector gets a feasibility verdict computed from the arrays, the
name-keyed record fields, their critical-path latencies and
``optimizer.latencies`` are built only when read, each step's path sums
serve the next step's Eq. 9 update, and the adaptive step size finds
covered paths through the structure's (path, resource) pair list.  These
tests pin the verdict to the object-graph check, the laziness to zero
dict-building and critical-path calls, the records to their own
iteration's values, and the kept path sums and model flags to what a
fresh optimizer and the per-element allocator compute.
"""

import pytest

from repro.core import vectorized
from repro.core.allocation import LatencyAllocator
from repro.core.optimizer import LLAConfig, LLAOptimizer
from repro.core.structure import (
    compile_structure,
    structure_from_dict,
    structure_to_dict,
)
from repro.core.vectorized import NAMED_FIELDS, VectorizedEngine
from repro.errors import ModelError, OptimizationError
from repro.model.share import CorrectedShare, PowerLawShare
from repro.model.task import TaskSet
from repro.workloads.generator import GeneratorConfig, random_workload
from repro.workloads.paper import base_workload
from tests.service.test_service import make_service


def separable_taskset(partitions=2, seed=3):
    """A workload whose task↔resource graph has exactly ``partitions``
    connected components."""
    return random_workload(
        GeneratorConfig(n_tasks=8, n_resources=6 * partitions,
                        min_subtasks=3, max_subtasks=4,
                        partitions=partitions),
        seed=seed,
    )


def unsorted_generator_workload():
    """A generator workload declared in reverse name order, so canonical
    (name-sorted) and declaration order differ."""
    ts = random_workload(GeneratorConfig(n_tasks=12, n_resources=9,
                                         min_subtasks=3, max_subtasks=5),
                         seed=5)
    tasks = sorted(ts.tasks, key=lambda t: t.name, reverse=True)
    assert [t.name for t in tasks] != sorted(t.name for t in tasks)
    return TaskSet(tasks, ts.resources.values(),
                   allow_shared_resources=True)


def power_law_workload():
    """Power-law shares on one task, corrected shares on another."""
    ts = base_workload()
    for sub in ts.tasks[0].subtasks:
        ts.set_share_function(sub.name, PowerLawShare(cost=3.0, alpha=2.0))
    for sub in ts.tasks[1].subtasks:
        base = ts.share_function(sub.name)
        ts.set_share_function(sub.name, CorrectedShare(base, error=0.5))
    return ts


def array_optimizer(taskset, **kwargs):
    kwargs.setdefault("max_iterations", 600)
    kwargs.setdefault("stop_on_convergence", False)
    return LLAOptimizer(taskset, LLAConfig(**kwargs))


def read_all(record):
    return {name: getattr(record, name) for name in NAMED_FIELDS}


class TestArrayVerdict:
    @pytest.mark.parametrize("factory", [
        base_workload, unsorted_generator_workload, power_law_workload,
    ])
    def test_verdict_matches_object_graph_every_iteration(self, factory):
        """The detector's array verdict equals TaskSet.is_feasible at the
        detector's tolerance on every iteration of a full run."""
        taskset = factory()
        opt = array_optimizer(taskset)
        tol = opt.detector.feasibility_tol
        verdicts = []

        def check(record):
            expected = taskset.is_feasible(record.latencies, tol=tol)
            assert opt.detector.feasible() == expected, record.iteration
            assert opt.feasible() == expected, record.iteration
            verdicts.append(expected)

        opt.on_iteration = check
        opt.run()
        assert len(verdicts) == 600
        # The runs pass through both verdicts, so both branches are pinned.
        assert True in verdicts and False in verdicts

    def test_feasible_after_refresh_model_reads_the_new_model(self):
        """An error correction after the last step makes that step's loads
        stale; feasible() re-measures the iterate on the refreshed model."""
        taskset = base_workload()
        opt = array_optimizer(taskset, stop_on_convergence=True,
                              max_iterations=3000)
        assert opt.run().converged and opt.feasible()
        before = dict(opt.latencies)
        for _task, sub in taskset.subtasks_on("r1"):
            base = taskset.share_function(sub.name)
            taskset.set_share_function(
                sub.name, CorrectedShare(base, error=0.5 * before[sub.name]))
        opt.refresh_model()
        assert opt.latencies == before
        assert not taskset.is_feasible(before, tol=1e-2)
        assert not opt.feasible()
        assert not opt.detector.feasible()

    def test_feasible_right_after_reallocation(self):
        """Before any step (construction, reset, adopt_prices) the verdict
        is measured on the compiled structure."""
        taskset = separable_taskset()
        opt = array_optimizer(taskset)
        for tol in (1e-9, 1e-2, 10.0):
            assert opt.feasible(tol) == \
                taskset.is_feasible(opt.latencies, tol=tol)
        opt.run(50)
        opt.adopt_prices({r: 0.5 for r in taskset.resources})
        assert opt.feasible(1e-2) == \
            taskset.is_feasible(opt.latencies, tol=1e-2)


class TestNoDictsInTheRunLoop:
    def _counting(self, monkeypatch):
        calls = {"is_feasible": 0, "engine_step": 0, "named": []}
        is_feasible = TaskSet.is_feasible
        engine_step = VectorizedEngine.step
        named_field = vectorized.named_field

        def counted_is_feasible(self, *args, **kwargs):
            calls["is_feasible"] += 1
            return is_feasible(self, *args, **kwargs)

        def counted_engine_step(self):
            calls["engine_step"] += 1
            return engine_step(self)

        def counted_named_field(structure, out, name):
            calls["named"].append(name)
            return named_field(structure, out, name)

        monkeypatch.setattr(TaskSet, "is_feasible", counted_is_feasible)
        monkeypatch.setattr(VectorizedEngine, "step", counted_engine_step)
        monkeypatch.setattr(vectorized, "named_field", counted_named_field)
        return calls

    def test_run_without_history_builds_nothing_per_iteration(
            self, monkeypatch):
        calls = self._counting(monkeypatch)
        opt = LLAOptimizer(separable_taskset(), LLAConfig(
            record_history=False, max_iterations=2000,
        ))
        result = opt.run()
        assert result.converged and result.iterations > 50
        assert calls["is_feasible"] == 0
        assert calls["engine_step"] == 0
        # Only the result's latency map is built, once, at the end.
        assert calls["named"] == ["latencies"]

    def test_run_rejects_a_negative_budget(self):
        """A budget below one raises; 0 is not read as "use the
        configured budget"."""
        opt = array_optimizer(base_workload())
        for budget in (-1, 0):
            with pytest.raises(OptimizationError):
                opt.run(budget)
        assert opt.iteration == 0


class TestRecordsOwnTheirArrays:
    @pytest.mark.parametrize("mutate", ["reset", "adopt_prices", "steps"])
    @pytest.mark.parametrize("factory", [base_workload, separable_taskset])
    def test_record_read_later_shows_its_iteration(self, mutate, factory):
        """A record read after reset()/adopt_prices()/more steps still
        shows the values an eager read at its own iteration saw."""
        lazy = array_optimizer(factory())
        eager = array_optimizer(factory())
        for _ in range(30):
            held = lazy.step()
            expected = read_all(eager.step())
        if factory is base_workload:
            # Nonzero λ, so a reset that wrote into the held array shows
            # (on the separable workload λ is still 0 here).
            assert max(expected["path_prices"].values()) > 0.0
        if mutate == "reset":
            lazy.reset()
        elif mutate == "adopt_prices":
            lazy.adopt_prices({r: 0.25 for r in lazy.taskset.resources})
        else:
            for _ in range(5):
                lazy.step()
        assert read_all(held) == expected

    @pytest.mark.parametrize("mutate", ["reset", "adopt_prices"])
    def test_latencies_after_reallocation_are_the_new_iterate(self, mutate):
        opt = array_optimizer(base_workload())
        fresh = array_optimizer(base_workload())
        for _ in range(40):
            opt.step()
        if mutate == "reset":
            opt.reset()
        else:
            prices = {r: 0.75 for r in opt.taskset.resources}
            opt.adopt_prices(prices)
            fresh.adopt_prices(prices)
        assert opt.latencies == fresh.latencies
        assert opt.resource_prices == fresh.resource_prices
        assert read_all(opt.step()) == read_all(fresh.step())

    def test_latencies_are_the_records_map(self):
        opt = array_optimizer(base_workload())
        record = opt.step()
        assert opt.latencies is record.latencies

    def test_resource_prices_follow_the_engine(self):
        opt = array_optimizer(base_workload())
        for _ in range(20):
            record = opt.step()
        assert opt.resource_prices == record.resource_prices
        assert opt.resource_prices is not record.resource_prices


def step_until_a_path_is_late(opt, limit=400):
    """Step until some path sum exceeds its critical time, so the next
    Eq. 9 update moves λ off zero: a stale path sum would show there."""
    for _ in range(limit):
        record = opt.step()
        if (record.arrays.path_lat > opt.structure.path_crit).any():
            return record
    raise AssertionError("no path missed its critical time")


def assert_same_iterates(opt, fresh, steps=60):
    for _ in range(steps):
        a, b = opt.step().arrays, fresh.step().arrays
        for name in ("lat", "mu", "lam", "loads", "path_lat", "per_task"):
            assert getattr(a, name).tobytes() == \
                getattr(b, name).tobytes(), name


class TestComputedOnce:
    @pytest.mark.parametrize("mutate", ["steps", "reset", "adopt_prices"])
    @pytest.mark.parametrize("factory", [
        base_workload, unsorted_generator_workload,
    ])
    def test_critical_paths_read_later_are_the_object_graphs(
            self, mutate, factory):
        """A record's critical paths, reduced only when read, are the
        task set's at that record's latencies."""
        taskset = factory()
        opt = array_optimizer(taskset)
        for _ in range(30):
            held = opt.step()
        lat = dict(held.latencies)
        expected = {t.name: t.critical_path(lat)[1] for t in taskset.tasks}
        if mutate == "reset":
            opt.reset()
        elif mutate == "adopt_prices":
            opt.adopt_prices({r: 0.25 for r in taskset.resources})
        else:
            for _ in range(5):
                opt.step()
        got = held.critical_paths
        assert set(got) == set(expected)
        for name, value in expected.items():
            # The object graph sums a path from its end (dynamic
            # programming), the kernel from its start.
            assert got[name] == pytest.approx(value, rel=1e-12, abs=0.0)

    def test_run_without_history_reduces_no_critical_paths(
            self, monkeypatch):
        calls = []
        reduce = vectorized.critical_path_latencies

        def counted(structure, path_lat):
            calls.append(len(path_lat))
            return reduce(structure, path_lat)

        monkeypatch.setattr(vectorized, "critical_path_latencies", counted)
        opt = LLAOptimizer(separable_taskset(), LLAConfig(
            record_history=False, max_iterations=2000,
        ))
        result = opt.run()
        assert result.converged and result.iterations > 50
        assert calls == []
        opt.step().critical_paths
        assert len(calls) == 1

    @pytest.mark.parametrize("mutate", ["reset", "adopt_prices"])
    def test_iterates_after_reallocation_are_a_fresh_optimizers(
            self, mutate):
        """Replacing the latencies drops the kept path sums: the next
        steps are bitwise those of a fresh optimizer."""
        opt = array_optimizer(base_workload())
        fresh = array_optimizer(base_workload())
        step_until_a_path_is_late(opt)
        if mutate == "reset":
            opt.reset()
        else:
            prices = {r: 0.75 for r in opt.taskset.resources}
            opt.adopt_prices(prices)
            fresh.adopt_prices(prices)
        assert_same_iterates(opt, fresh)

    @pytest.mark.parametrize("swap", ["corrected", "power_law"])
    def test_refresh_model_reaches_the_kept_flags(self, swap):
        """A share swap mid-run (a correction offset, or a non-hyperbolic
        share) changes Eq. 7 and the loads after ``refresh_model``, as the
        per-element allocator and the object graph compute them."""
        taskset = base_workload()
        twin = array_optimizer(base_workload())
        opt = array_optimizer(taskset)
        for _ in range(30):
            opt.step()
            twin.step()
        assert not opt.structure.any_error
        assert opt.structure.all_hyperbolic
        corrected = swap == "corrected"
        for _task, sub in taskset.subtasks_on("r1"):
            base = taskset.share_function(sub.name)
            fn = CorrectedShare(base, error=0.5 * opt.latencies[sub.name]) \
                if corrected else PowerLawShare(cost=3.0, alpha=2.0)
            taskset.set_share_function(sub.name, fn)
        opt.refresh_model()
        s = opt.structure
        assert s.any_error == corrected
        assert s.all_hyperbolic == corrected
        engine = opt._engine
        kernel = dict(zip(s.subtask_names, engine._allocate().tolist()))
        prices = opt.resource_prices
        path_prices = engine.path_prices_dict()
        for task in taskset.tasks:
            assert LatencyAllocator(taskset, task).allocate(
                prices, path_prices) == \
                {n: kernel[n] for n in task.subtask_names}
        for _ in range(5):
            record, before = opt.step(), twin.step()
            assert record.resource_loads == pytest.approx(
                taskset.resource_loads(record.latencies), rel=1e-12)
        assert record.latencies != before.latencies
        assert record.resource_loads != before.resource_loads


class TestPairIncidence:
    @pytest.mark.parametrize("factory", [
        base_workload, unsorted_generator_workload,
    ])
    def test_pairs_are_the_distinct_path_resource_incidences(self, factory):
        taskset = factory()
        s = compile_structure(taskset)
        expected = set()
        for p, key in enumerate(s.path_keys):
            task = next(t for t in taskset.tasks if t.name == key.task)
            for name in task.graph.paths[key.index]:
                resource = task.subtask(name).resource
                expected.add((p, s.resource_names.index(resource)))
        pairs = list(zip(s.pr_path.tolist(), s.pr_res.tolist()))
        assert pairs == sorted(expected)

    def _format_1(self, payload):
        """The same structure in the dense-matrix layout of format 1."""
        old = dict(payload)
        old["format"] = 1
        n_path, n_res = len(old["path_keys"]), len(old["resource_names"])
        dense = [[False] * n_res for _ in range(n_path)]
        for p, r in zip(old.pop("pr_path"), old.pop("pr_res")):
            dense[p][r] = True
        old["path_res_inc"] = dense
        return old

    def test_format_1_payload_is_rejected(self):
        payload = structure_to_dict(compile_structure(base_workload()))
        assert payload["format"] == 3
        with pytest.raises(ModelError, match="format"):
            structure_from_dict(self._format_1(payload))

    def test_format_1_snapshot_demotes_restore_to_cold(self):
        """A snapshot from the format-1 days (a dense structure payload
        beside the prices, no price digest) restores cold."""
        service = make_service()
        service.step(100)
        service.snapshot()
        stored = service.snapshots._checkpoints["service"]
        del stored.state["digest"]
        stored.state["structure"] = self._format_1(
            structure_to_dict(service._optimizer.structure))
        assert service.restore() is False
        assert service.stats().snapshot_fallbacks == 1

    def test_out_of_range_pair_is_rejected(self):
        payload = structure_to_dict(compile_structure(base_workload()))
        payload["pr_res"][0] = len(payload["resource_names"])
        with pytest.raises(ModelError, match="pr_res"):
            structure_from_dict(payload)
