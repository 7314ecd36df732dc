"""Tests for the bounded, coalescing churn queue."""

import pytest

from repro.errors import ServiceError
from repro.model.utility import LogUtility
from repro.service import ChurnEvent, ChurnQueue

from tests.service.test_service import make_task


def reg(name, **kwargs):
    return ChurnEvent(kind="register", key=name,
                      task=make_task(name, **kwargs))


def dereg(name):
    return ChurnEvent(kind="deregister", key=name)


class TestChurnEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ServiceError):
            ChurnEvent(kind="teleport", key="t0")

    def test_rejects_empty_key(self):
        with pytest.raises(ServiceError):
            ChurnEvent(kind="deregister", key="")

    def test_register_needs_matching_task(self):
        with pytest.raises(ServiceError):
            ChurnEvent(kind="register", key="t0")
        with pytest.raises(ServiceError):
            ChurnEvent(kind="register", key="t0", task=make_task("t1"))

    def test_update_needs_a_payload(self):
        with pytest.raises(ServiceError):
            ChurnEvent(kind="update", key="t0")

    def test_availability_needs_a_value(self):
        with pytest.raises(ServiceError):
            ChurnEvent(kind="availability", key="r0")


    @pytest.mark.parametrize("value", [
        -0.5, 1.01, float("nan"), float("inf"),
    ])
    def test_rejects_availability_outside_unit_interval(self, value):
        with pytest.raises(ServiceError, match="availability"):
            ChurnEvent(kind="availability", key="r0", availability=value)

    @pytest.mark.parametrize("value", [
        0.0, -3.0, float("nan"), float("inf"),
    ])
    def test_rejects_nonpositive_or_nonfinite_critical_time(self, value):
        with pytest.raises(ServiceError, match="critical_time"):
            ChurnEvent(kind="update", key="t0", critical_time=value)


class TestCoalescing:
    def test_register_then_deregister_cancels(self):
        queue = ChurnQueue()
        queue.offer(reg("t0"))
        queue.offer(dereg("t0"))
        assert queue.depth == 0
        assert queue.drain() == []
        assert queue.coalesced == 1

    def test_deregister_then_register_becomes_replace(self):
        queue = ChurnQueue()
        queue.offer(dereg("t0"))
        queue.offer(reg("t0"))
        (event,) = queue.drain()
        assert event.kind == "replace"
        assert event.task.name == "t0"

    def test_double_register_keeps_latest_body(self):
        queue = ChurnQueue()
        queue.offer(reg("t0", critical_time=40.0))
        queue.offer(reg("t0", critical_time=80.0))
        (event,) = queue.drain()
        assert event.kind == "register"
        assert event.task.critical_time == 80.0

    def test_update_folds_into_pending_register(self):
        queue = ChurnQueue()
        queue.offer(reg("t0"))
        queue.offer(ChurnEvent(kind="update", key="t0",
                               critical_time=60.0))
        utility = LogUtility(60.0)
        queue.offer(ChurnEvent(kind="update", key="t0", utility=utility))
        (event,) = queue.drain()
        assert event.kind == "register"
        assert event.critical_time == 60.0    # earlier update survives
        assert event.utility is utility

    def test_update_onto_deregister_is_dead_work(self):
        queue = ChurnQueue()
        queue.offer(dereg("t0"))
        queue.offer(ChurnEvent(kind="update", key="t0",
                               critical_time=60.0))
        (event,) = queue.drain()
        assert event.kind == "deregister"

    def test_availability_latest_wins(self):
        queue = ChurnQueue()
        queue.offer(ChurnEvent(kind="availability", key="r0",
                               availability=0.5))
        queue.offer(ChurnEvent(kind="availability", key="r0",
                               availability=0.8))
        (event,) = queue.drain()
        assert event.availability == 0.8

    def test_task_and_resource_keys_do_not_collide(self):
        queue = ChurnQueue()
        queue.offer(dereg("x"))
        queue.offer(ChurnEvent(kind="availability", key="x",
                               availability=0.5))
        assert queue.depth == 2

    def test_oscillation_storm_collapses(self):
        """A flapping task — any number of dereg/rereg pairs — nets to a
        single replace, not a pile of events."""
        queue = ChurnQueue()
        for _ in range(10):
            queue.offer(dereg("t0"))
            queue.offer(reg("t0"))
        assert queue.depth == 1
        (event,) = queue.drain()
        assert event.kind == "replace"


class TestBoundsAndDrain:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ServiceError):
            ChurnQueue(capacity=0)

    def test_sheds_new_subjects_at_capacity(self):
        queue = ChurnQueue(capacity=2)
        assert queue.offer(dereg("a"))
        assert queue.offer(dereg("b"))
        assert not queue.offer(dereg("c"))
        assert queue.shed == 1
        assert queue.depth == 2

    def test_pending_subjects_coalesce_even_at_capacity(self):
        queue = ChurnQueue(capacity=1)
        queue.offer(dereg("a"))
        assert queue.offer(reg("a"))      # same subject: no capacity cost
        assert queue.shed == 0

    def test_drain_is_key_sorted_and_clears(self):
        queue = ChurnQueue()
        queue.offer(dereg("z"))
        queue.offer(dereg("a"))
        queue.offer(dereg("m"))
        batch = queue.drain()
        assert [e.key for e in batch] == ["a", "m", "z"]
        assert queue.depth == 0
        assert queue.drained_batches == 1

    def test_max_depth_tracks_high_water(self):
        queue = ChurnQueue(capacity=8)
        for name in "abc":
            queue.offer(dereg(name))
        queue.drain()
        queue.offer(dereg("a"))
        assert queue.max_depth == 3
