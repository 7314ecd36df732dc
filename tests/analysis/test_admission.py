"""Tests for the admission-control layer."""

import pytest

from repro.analysis.admission import AdmissionController, certify_infeasible
from repro.analysis.schedulability import SchedulabilityAnalyzer
from repro.errors import ModelError
from repro.model.events import PeriodicEvent
from repro.model.graph import SubtaskGraph
from repro.model.resources import Resource
from repro.model.task import Subtask, Task
from repro.model.utility import LinearUtility

RESOURCES = [Resource(name=f"r{i}", availability=1.0, lag=1.0)
             for i in range(3)]


def chain_task(name: str, exec_time: float, critical_time: float,
               slope: float = 1.0) -> Task:
    names = [f"{name}_{i}" for i in range(3)]
    return Task(
        name=name,
        subtasks=[Subtask(names[i], f"r{i}", exec_time) for i in range(3)],
        graph=SubtaskGraph.chain(names),
        critical_time=critical_time,
        utility=LinearUtility(critical_time, k=2.0, slope=slope),
        trigger=PeriodicEvent(100.0),
    )


def controller(**kwargs) -> AdmissionController:
    return AdmissionController(
        RESOURCES,
        analyzer=SchedulabilityAnalyzer(iterations=500),
        **kwargs,
    )


class TestStrictAdmission:
    def test_first_task_admitted(self):
        ctrl = controller()
        decision = ctrl.offer(chain_task("t1", 2.0, 40.0))
        assert decision.admitted
        assert len(ctrl.admitted) == 1
        assert ctrl.latencies     # allocation computed

    def test_schedulable_second_task_admitted(self):
        ctrl = controller()
        assert ctrl.offer(chain_task("t1", 2.0, 60.0)).admitted
        assert ctrl.offer(chain_task("t2", 2.0, 60.0)).admitted
        assert ctrl.taskset is not None
        assert len(ctrl.taskset.tasks) == 2

    def test_overloading_task_rejected(self):
        ctrl = controller()
        assert ctrl.offer(chain_task("t1", 2.0, 12.0)).admitted
        # A second task with the same tight deadline cannot fit: each
        # needs ~3/4 of every resource (cost 3, per-stage budget 4).
        decision = ctrl.offer(chain_task("t2", 2.0, 12.0))
        assert not decision.admitted
        assert "not schedulable" in decision.reason
        # The incumbent workload is untouched.
        assert [t.name for t in ctrl.admitted] == ["t1"]

    def test_duplicate_name_rejected(self):
        ctrl = controller()
        ctrl.offer(chain_task("t1", 2.0, 40.0))
        decision = ctrl.offer(chain_task("t1", 1.0, 50.0))
        assert not decision.admitted
        assert "already admitted" in decision.reason

    def test_withdraw_reoptimizes(self):
        ctrl = controller()
        ctrl.offer(chain_task("t1", 2.0, 60.0))
        ctrl.offer(chain_task("t2", 2.0, 60.0))
        with_two = dict(ctrl.latencies)
        assert ctrl.withdraw("t2")
        assert [t.name for t in ctrl.admitted] == ["t1"]
        # t1's latencies shrink once t2's pressure disappears.
        for name in ("t1_0", "t1_1", "t1_2"):
            assert ctrl.latencies[name] <= with_two[name] + 1e-9
        assert not ctrl.withdraw("ghost")

    def test_admission_rate(self):
        ctrl = controller()
        ctrl.offer(chain_task("t1", 2.0, 12.0))
        ctrl.offer(chain_task("t2", 2.0, 12.0))
        assert ctrl.admission_rate() == pytest.approx(0.5)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ModelError):
            AdmissionController(RESOURCES, mode="optimistic")


class TestUtilityMode:
    def test_low_value_task_rejected_on_dilution(self):
        # Incumbent: important task with slack.  Arrival: schedulable but
        # drags the incumbent's latency allocation enough to breach the
        # allowed loss.
        ctrl = controller(mode="utility", max_utility_loss=0.5)
        assert ctrl.offer(chain_task("vip", 2.0, 40.0, slope=3.0)).admitted
        decision = ctrl.offer(chain_task("bulk", 4.0, 40.0, slope=1.0))
        assert not decision.admitted
        assert "utility would drop" in decision.reason
        assert decision.incumbent_utility_loss > 0.5

    def test_generous_budget_admits(self):
        ctrl = controller(mode="utility", max_utility_loss=1000.0)
        assert ctrl.offer(chain_task("vip", 2.0, 40.0, slope=3.0)).admitted
        assert ctrl.offer(chain_task("bulk", 4.0, 40.0, slope=1.0)).admitted


class TestCertifyInfeasible:
    """The closed-form certificate used by the always-on service: sound
    (never rejects a feasible set) but incomplete."""

    def make_taskset(self, *tasks):
        from repro.model.task import TaskSet
        return TaskSet(list(tasks), RESOURCES, allow_shared_resources=True)

    def test_feasible_set_has_no_certificate(self):
        ts = self.make_taskset(chain_task("ok", 2.0, 40.0))
        assert certify_infeasible(ts) is None

    def test_path_floor_certificate(self):
        """Three subtasks whose summed latency floors exceed the critical
        time can never meet it, even alone on their resources."""
        ts = self.make_taskset(chain_task("doomed", 2.0, 1.0))
        reason = certify_infeasible(ts)
        assert reason is not None
        assert "path" in reason
        assert "doomed" in reason

    def test_load_floor_certificate(self):
        """Each task is individually schedulable, but their combined
        minimum shares overload a resource."""
        competitors = [
            Task(
                name=f"solo{i}",
                subtasks=[Subtask(f"solo{i}_0", "r0", 2.0)],
                graph=SubtaskGraph.chain([f"solo{i}_0"]),
                critical_time=4.0,
                utility=LinearUtility(4.0, k=2.0),
                trigger=PeriodicEvent(100.0),
            )
            for i in range(2)
        ]
        for task in competitors:
            assert certify_infeasible(self.make_taskset(task)) is None
        reason = certify_infeasible(self.make_taskset(*competitors))
        assert reason is not None
        assert "'r0'" in reason

    def test_certificate_is_conservative(self):
        """A tight-but-feasible workload must not be rejected: the
        certificate may only fire on provable infeasibility."""
        ts = self.make_taskset(chain_task("tight", 2.0, 40.0),
                               chain_task("tight2", 2.0, 40.0))
        from repro.core.optimizer import LLAConfig, LLAOptimizer
        result = LLAOptimizer(ts, LLAConfig(max_iterations=2000)).run()
        if ts.is_feasible(result.latencies, tol=1e-2):
            assert certify_infeasible(ts) is None


class TestCertificateSoundnessRandomized:
    """Soundness sweep: across randomized task sets, the closed-form
    certificate may only fire on sets the LLA oracle also fails on —
    it must never reject a set the optimizer solves feasibly."""

    N_CASES = 50

    @staticmethod
    def random_taskset(rng):
        import numpy as np

        from repro.model.task import TaskSet

        n_tasks = int(rng.integers(1, 4))
        tasks = []
        for t in range(n_tasks):
            length = int(rng.integers(1, 4))
            start = int(rng.integers(0, 3 - length + 1)) if length < 3 else 0
            names = [f"rt{t}.s{i}" for i in range(length)]
            subtasks = [
                Subtask(names[i], f"r{start + i}",
                        float(np.round(rng.uniform(0.5, 6.0), 3)))
                for i in range(length)
            ]
            critical = float(np.round(rng.uniform(2.0, 60.0), 3))
            tasks.append(Task(
                name=f"rt{t}",
                subtasks=subtasks,
                graph=SubtaskGraph.chain(names),
                critical_time=critical,
                utility=LinearUtility(critical, k=2.0),
                trigger=PeriodicEvent(100.0),
            ))
        return TaskSet(tasks, RESOURCES, allow_shared_resources=True)

    def test_certificate_never_rejects_an_optimizer_feasible_set(self):
        import numpy as np

        from repro.core.optimizer import LLAConfig, LLAOptimizer

        certified = solved = 0
        for seed in range(self.N_CASES):
            rng = np.random.default_rng(seed)
            ts = self.random_taskset(rng)
            certificate = certify_infeasible(ts)
            result = LLAOptimizer(
                ts, LLAConfig(max_iterations=800)).run()
            feasible = ts.is_feasible(result.latencies)
            if feasible:
                solved += 1
                assert certificate is None, (
                    f"seed {seed}: certificate {certificate!r} fired on a "
                    f"set the optimizer solved feasibly"
                )
            if certificate is not None:
                certified += 1
        # The sweep must exercise both sides of the boundary to mean
        # anything: some sets solved feasibly, some certified infeasible.
        assert solved >= 10
        assert certified >= 5


class TestArrayCertificateParity:
    """The certificate runs over the compiled structure's arrays; on task
    sets declared in canonical order it gives the object-graph loops'
    decision and reason, branch for branch."""

    N_CASES = 120

    @staticmethod
    def random_taskset(rng):
        import numpy as np

        from repro.model.share import PowerLawShare
        from repro.model.task import TaskSet

        resources = [Resource(name=f"r{i}",
                              availability=float(rng.choice((1.0, 0.7, 0.4))),
                              lag=float(rng.choice((1.0, 0.0, 0.5))))
                     for i in range(3)]
        tasks = []
        for t in range(int(rng.integers(1, 5))):
            length = int(rng.integers(1, 4))
            names = [f"rt{t}.s{i}" for i in range(length)]
            subtasks = []
            for i, name in enumerate(names):
                exec_time = float(np.round(rng.uniform(0.5, 6.0), 3))
                share = None
                if rng.random() < 0.3:
                    share = PowerLawShare(cost=exec_time + 1.0,
                                          alpha=float(rng.uniform(0.5, 2.0)))
                subtasks.append(Subtask(name, f"r{(t + i) % 3}", exec_time,
                                        share_function=share))
            if length == 3 and rng.random() < 0.5:
                graph = SubtaskGraph(names, [(names[0], names[1]),
                                             (names[0], names[2])])
            else:
                graph = SubtaskGraph.chain(names)
            critical = float(np.round(rng.uniform(2.0, 40.0), 3))
            tasks.append(Task(name=f"rt{t}", subtasks=subtasks, graph=graph,
                              critical_time=critical,
                              utility=LinearUtility(critical, k=2.0),
                              trigger=PeriodicEvent(100.0)))
        return TaskSet(tasks, resources, allow_shared_resources=True)

    def test_same_decision_and_reason_as_the_object_graph(self):
        import numpy as np

        from repro.core.structure import compile_structure
        from tests.analysis.reference import certify_infeasible_reference

        branches = set()
        for seed in range(self.N_CASES):
            ts = self.random_taskset(np.random.default_rng(seed))
            expected = certify_infeasible_reference(ts)
            assert certify_infeasible(compile_structure(ts)) == expected
            assert certify_infeasible(ts) == expected
            branches.add(None if expected is None else expected.split()[0])
        assert branches == {None, "task", "resource"}
