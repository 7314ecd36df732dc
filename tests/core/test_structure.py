"""Tests for the canonical compiled structure: ordering, serialization,
fingerprints, and corruption detection.

``TaskSetStructure`` is the single shared representation of a compiled
task set — the vectorized engine, the distributed runtime, the
simulator and the service snapshots all consume it — so its
serialization must round-trip bit-exactly and its fingerprint must be a
pure function of the *problem*, not of declaration order or transport.
"""

import json

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.structure import (
    _FLOAT_ARRAYS,
    _INDEX_ARRAYS,
    compile_fragment,
    compile_structure,
    empty_structure,
    splice_structure,
    structure_from_dict,
    structure_to_dict,
)
from repro.errors import ModelError, OptimizationError
from repro.model.resources import Resource
from repro.model.task import TaskSet
from repro.model.utility import ExponentialUtility
from repro.workloads.generator import GeneratorConfig, random_workload
from repro.workloads.paper import base_workload
from tests.conftest import MIXED_RESOURCES, mixed_task

_ALL_ARRAYS = _INDEX_ARRAYS + _FLOAT_ARRAYS + ("ut_kind", "hyper_mask")


def _assert_structures_equal(a, b):
    """Bit-exact equality of two compiled structures."""
    assert b.subtask_names == a.subtask_names
    assert b.resource_names == a.resource_names
    assert b.task_names == a.task_names
    assert b.path_keys == a.path_keys
    assert b.max_latency_factor == a.max_latency_factor
    for name in _ALL_ARRAYS:
        lhs, rhs = getattr(a, name), getattr(b, name)
        assert rhs.dtype == lhs.dtype, name
        assert np.array_equal(rhs, lhs), name


class TestCanonicalOrdering:
    def test_task_declaration_order_is_irrelevant(self):
        """Regression for the serialized world: a permuted task
        declaration must compile to the identical structure — same
        arrays, same fingerprint — or fingerprint-keyed caches and
        snapshot verification would miss on equal problems."""
        ts = base_workload()
        permuted = TaskSet(tuple(reversed(ts.tasks)),
                           ts.resources.values(),
                           allow_shared_resources=True)
        s1 = compile_structure(ts)
        s2 = compile_structure(permuted)
        _assert_structures_equal(s1, s2)
        assert s2.fingerprint == s1.fingerprint

    def test_task_names_are_sorted(self):
        s = compile_structure(base_workload())
        assert list(s.task_names) == sorted(s.task_names)

    def test_distinct_problems_distinct_fingerprints(self):
        s1 = compile_structure(base_workload())
        s2 = compile_structure(base_workload(k=3.0))
        assert s2.fingerprint != s1.fingerprint


class TestRoundTrip:
    def test_round_trip_is_bit_exact(self):
        s = compile_structure(base_workload())
        restored = structure_from_dict(structure_to_dict(s))
        _assert_structures_equal(s, restored)
        assert restored.fingerprint == s.fingerprint

    def test_round_trip_through_json_transport(self):
        """float64 → repr → float64 is exact, so a JSON hop (the
        CheckpointStore's on-disk format) must preserve every bit."""
        ts = random_workload(GeneratorConfig(n_tasks=6, n_resources=8),
                             seed=11)
        s = compile_structure(ts)
        wire = json.loads(json.dumps(structure_to_dict(s)))
        restored = structure_from_dict(wire)
        _assert_structures_equal(s, restored)
        assert restored.fingerprint == s.fingerprint

    def test_rebound_structure_can_refresh(self):
        """A structure holds no task set; refresh_model reads the one it
        is handed, so a deserialized structure refreshes like a compiled
        one."""
        ts = base_workload()
        s = compile_structure(ts)
        restored = structure_from_dict(structure_to_dict(s))
        restored.refresh_model(ts)        # no-op mutation: same model
        assert restored.fingerprint == s.fingerprint


class TestCorruptionDetection:
    def _payload(self):
        return structure_to_dict(compile_structure(base_workload()))

    def test_flipped_coefficient_is_detected(self):
        payload = self._payload()
        payload["cost"][0] += 1e-9
        with pytest.raises(ModelError, match="fingerprint"):
            structure_from_dict(payload)

    def test_renamed_subtask_is_detected(self):
        payload = self._payload()
        payload["subtask_names"][0] = "imposter"
        with pytest.raises(ModelError, match="fingerprint"):
            structure_from_dict(payload)

    def test_truncated_array_is_detected(self):
        payload = self._payload()
        payload["sub_exec"].pop()
        with pytest.raises(ModelError):
            structure_from_dict(payload)

    def test_missing_key_is_detected(self):
        payload = self._payload()
        del payload["alpha"]
        with pytest.raises(ModelError, match="malformed"):
            structure_from_dict(payload)

    def test_unknown_format_version_is_rejected(self):
        payload = self._payload()
        payload["format"] = 999
        with pytest.raises(ModelError, match="format"):
            structure_from_dict(payload)

    def test_tampered_fingerprint_is_rejected(self):
        payload = self._payload()
        payload["fingerprint"] = "0" * 64
        with pytest.raises(ModelError, match="fingerprint"):
            structure_from_dict(payload)


def _assert_byte_identical(a, b):
    """Every array with its dtype and bytes, every name tuple and the
    structure fingerprint."""
    _assert_structures_equal(a, b)
    for name in _ALL_ARRAYS:
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.fingerprint == b.fingerprint


_NAMES = tuple(r.name for r in MIXED_RESOURCES)


def _compiled(tasks, resources=MIXED_RESOURCES, factor=1.0):
    return compile_structure(
        TaskSet(sorted(tasks, key=lambda t: t.name), resources,
                allow_shared_resources=True),
        max_latency_factor=factor,
    )


def _fragment(task, resources=MIXED_RESOURCES, factor=1.0):
    return compile_fragment(task, {r.name: r for r in resources}, _NAMES,
                            factor)


class TestSplice:
    """Fragments spliced into or out of a structure give the arrays a
    cold compile of the new membership gives."""

    def test_fragments_into_an_empty_structure(self):
        tasks = [mixed_task(i) for i in (3, 0, 7, 1)]
        empty = empty_structure(_NAMES, np.array([1.0, 1.0, 0.8, 1.0]))
        spliced = splice_structure(empty, [_fragment(t) for t in tasks])
        _assert_byte_identical(spliced, _compiled(tasks))

    @given(steps=st.lists(
        st.tuples(st.sets(st.integers(0, 11), max_size=3),
                  st.sets(st.integers(0, 11), max_size=3),
                  st.sampled_from((40.0, 60.0, 61.5))),
        min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_random_splices_match_cold_compiles(self, steps):
        members = {i: mixed_task(i) for i in (0, 5, 9)}
        structure = _compiled(members.values())
        for add, drop, critical_time in steps:
            drop = {i for i in drop if i in members} - add
            if len(drop) == len(members) and not add:
                continue
            bodies = {i: mixed_task(i, critical_time) for i in add}
            structure = splice_structure(
                structure, [_fragment(t) for t in bodies.values()],
                [f"m{i}" for i in drop],
            )
            for i in drop:
                del members[i]
            members.update(bodies)
            _assert_byte_identical(structure, _compiled(members.values()))

    def test_availability_change_recompiles_the_tasks_on_the_resource(self):
        tasks = [mixed_task(i) for i in range(6)]
        base = _compiled(tasks)
        shocked = list(MIXED_RESOURCES)
        shocked[1] = Resource(name="r1", availability=0.4, lag=0.5)
        on_r1 = [t for t in tasks
                 if any(sub.resource == "r1" for sub in t.subtasks)]
        spliced = splice_structure(
            base, [_fragment(t, shocked) for t in on_r1],
            availability=np.array([r.availability for r in shocked]),
        )
        _assert_byte_identical(spliced, _compiled(tasks, shocked))

    def test_splices_never_write_into_their_base(self):
        base = _compiled([mixed_task(i) for i in range(5)])
        before = {name: getattr(base, name).copy() for name in _ALL_ARRAYS}
        spliced = splice_structure(base, [_fragment(mixed_task(2, 41.0))],
                                   ["m0"])
        for name in _ALL_ARRAYS:
            assert np.array_equal(getattr(base, name), before[name]), name
            assert not np.shares_memory(getattr(spliced, name),
                                        getattr(base, name)) \
                or name == "availability", name

    def test_latency_clamp_factor_carries_through(self):
        tasks = [mixed_task(i) for i in range(3)]
        base = _compiled(tasks[:2], factor=1.5)
        spliced = splice_structure(base, [_fragment(tasks[2], factor=1.5)])
        _assert_byte_identical(spliced, _compiled(tasks, factor=1.5))
        with pytest.raises(ModelError, match="max_latency_factor"):
            splice_structure(base, [_fragment(tasks[2])])

    def test_unknown_removal_and_twin_fragments_are_refused(self):
        base = _compiled([mixed_task(0)])
        with pytest.raises(ModelError, match="unknown task"):
            splice_structure(base, remove=["ghost"])
        twin = _fragment(mixed_task(1))
        with pytest.raises(ModelError, match="two fragments"):
            splice_structure(base, [twin, twin])

    def test_fragment_refuses_a_model_outside_the_family(self):
        task = mixed_task(0)
        task.utility = ExponentialUtility(60.0)
        with pytest.raises(OptimizationError, match="ExponentialUtility"):
            _fragment(task)
