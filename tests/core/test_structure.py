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

from repro.core.structure import (
    _FLOAT_ARRAYS,
    _INDEX_ARRAYS,
    compile_structure,
    structure_from_dict,
    structure_to_dict,
)
from repro.errors import ModelError
from repro.model.task import TaskSet
from repro.workloads.generator import GeneratorConfig, random_workload
from repro.workloads.paper import base_workload

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
        ts = base_workload()
        s = compile_structure(ts)
        restored = structure_from_dict(structure_to_dict(s), taskset=ts)
        restored.refresh_model()          # no-op mutation: same model
        assert restored.fingerprint == s.fingerprint

    def test_unbound_structure_cannot_refresh(self):
        restored = structure_from_dict(
            structure_to_dict(compile_structure(base_workload()))
        )
        with pytest.raises(ModelError, match="unbound"):
            restored.refresh_model()


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
