"""Tests for canonical task-set fingerprints."""

from repro.model.fingerprint import (
    DIGEST_MODULUS,
    membership_fingerprint,
    task_digest,
    taskset_fingerprint,
)
from repro.model.share import CorrectedShare
from repro.workloads.paper import base_workload
from tests.conftest import make_chain_taskset


class TestDeterminism:
    def test_equal_construction_equal_fingerprint(self):
        assert taskset_fingerprint(make_chain_taskset()) == \
            taskset_fingerprint(make_chain_taskset())

    def test_stable_across_calls(self):
        ts = base_workload()
        assert taskset_fingerprint(ts) == taskset_fingerprint(ts)

    def test_is_hex_sha256(self):
        fp = taskset_fingerprint(make_chain_taskset())
        assert len(fp) == 64
        int(fp, 16)


class TestSensitivity:
    """Anything that changes the optimization problem must change the
    fingerprint — checkpoints and cached structures keyed on it are only
    interchangeable under exact problem equality."""

    def test_availability(self):
        shocked = make_chain_taskset()
        shocked.set_availability("r0", 0.5)
        assert taskset_fingerprint(shocked) != \
            taskset_fingerprint(make_chain_taskset())

    def test_critical_time(self):
        assert taskset_fingerprint(make_chain_taskset(critical_time=31.0)) \
            != taskset_fingerprint(make_chain_taskset())

    def test_exec_time(self):
        assert taskset_fingerprint(make_chain_taskset(exec_time=2.5)) != \
            taskset_fingerprint(make_chain_taskset())

    def test_utility_parameters(self):
        assert taskset_fingerprint(make_chain_taskset(k=3.0)) != \
            taskset_fingerprint(make_chain_taskset())

    def test_membership(self):
        assert taskset_fingerprint(make_chain_taskset(n_subtasks=2)) != \
            taskset_fingerprint(make_chain_taskset(n_subtasks=3))

    def test_share_function_retuning(self):
        """Online error correction retunes CorrectedShare in place; the
        retuned problem must not reuse the old problem's dual state."""
        ts = make_chain_taskset()
        base = ts.share_function("s0")
        corrected = CorrectedShare(base, error=0.0)
        ts.set_share_function("s0", corrected)
        before = taskset_fingerprint(ts)
        corrected.set_error(-0.25)
        assert taskset_fingerprint(ts) != before


class TestTaskDigest:
    def test_equal_bodies_equal_digests(self):
        assert task_digest(make_chain_taskset().tasks[0]) == \
            task_digest(make_chain_taskset().tasks[0])

    def test_any_field_changes_the_digest(self):
        base = task_digest(make_chain_taskset().tasks[0])
        for changed in (make_chain_taskset(critical_time=31.0),
                        make_chain_taskset(exec_time=2.5),
                        make_chain_taskset(k=3.0),
                        make_chain_taskset(period=60.0),
                        make_chain_taskset(variant="sum")):
            assert task_digest(changed.tasks[0]) != base

    def test_custom_share_functions_count(self):
        from repro.model.share import HyperbolicShare
        from repro.model.task import Subtask, Task

        task = make_chain_taskset().tasks[0]
        first = task.subtasks[0]
        custom = Task(
            name=task.name,
            subtasks=[Subtask(first.name, first.resource, first.exec_time,
                              share_function=HyperbolicShare(2.0, 0.5))]
            + list(task.subtasks[1:]),
            graph=task.graph, critical_time=task.critical_time,
            utility=task.utility, trigger=task.trigger,
        )
        assert task_digest(custom) != task_digest(task)


class TestMembershipFingerprint:
    def test_digest_sum_is_order_free_and_exact(self):
        digests = [task_digest(make_chain_taskset(critical_time=c).tasks[0])
                   for c in (30.0, 31.0, 32.0)]
        forward = sum(digests) % DIGEST_MODULUS
        backward = sum(reversed(digests)) % DIGEST_MODULUS
        assert membership_fingerprint(forward, b"r", 1.0) == \
            membership_fingerprint(backward, b"r", 1.0)
        assert membership_fingerprint(forward, b"r", 1.0) != \
            membership_fingerprint((forward - digests[0]) % DIGEST_MODULUS,
                                   b"r", 1.0)

    def test_resources_and_clamp_factor_count(self):
        fp = membership_fingerprint(7, b"r", 1.0)
        assert membership_fingerprint(7, b"s", 1.0) != fp
        assert membership_fingerprint(7, b"r", 1.5) != fp
