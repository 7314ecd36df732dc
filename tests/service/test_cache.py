"""Unit tests for the compiled-structure LRU cache."""

import gc
import weakref

import pytest

from repro.errors import ServiceError
from repro.service.cache import StructureCache
from tests.conftest import make_chain_taskset


class TestValidation:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ServiceError):
            StructureCache(capacity=0)
        with pytest.raises(ServiceError):
            StructureCache(capacity=-3)


class TestLookup:
    def test_first_lookup_misses_and_compiles(self):
        cache = StructureCache()
        ts = make_chain_taskset()
        cache.get(ts)
        assert (cache.hits, cache.misses) == (0, 1)
        assert cache.hit_rate == 0.0

    def test_equal_task_sets_share_one_entry(self):
        """Two separately built but identical task sets share one compiled
        structure; the hit hands the entry back as it is."""
        cache = StructureCache()
        entry = cache.get(make_chain_taskset())
        assert cache.get(make_chain_taskset()) is entry
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_no_entry_keeps_a_task_set_alive(self):
        """A structure holds no task set: neither the one an entry was
        compiled from nor the one of a later hit outlives its caller."""
        cache = StructureCache()
        compiled_from = make_chain_taskset()
        hit_by = make_chain_taskset()
        entry = cache.get(compiled_from)
        assert cache.get(hit_by) is entry
        freed = [weakref.ref(compiled_from), weakref.ref(hit_by)]
        del compiled_from, hit_by
        gc.collect()
        assert [ref() for ref in freed] == [None, None]
        assert cache.peek(next(iter(cache._entries))[0]) is entry

    def test_hit_refreshes_model_after_availability_change(self):
        """Fingerprints cover availabilities, so a shocked task set maps
        to a different key — the stale compiled model is never reused."""
        cache = StructureCache()
        cache.get(make_chain_taskset())
        shocked = make_chain_taskset()
        shocked.set_availability("r0", 0.5)
        cache.get(shocked)
        assert cache.misses == 2

    def test_latency_clamp_is_part_of_the_key(self):
        cache = StructureCache()
        ts = make_chain_taskset()
        cache.get(ts, max_latency_factor=1.0)
        cache.get(ts, max_latency_factor=2.0)
        assert cache.misses == 2
        cache.get(ts, max_latency_factor=2.0)
        assert cache.hits == 1

    def test_precomputed_fingerprint_short_circuits(self):
        from repro.model.fingerprint import taskset_fingerprint
        cache = StructureCache()
        ts = make_chain_taskset()
        fp = taskset_fingerprint(ts)
        entry = cache.get(ts, fingerprint=fp)
        assert cache.get(ts, fingerprint=fp) is entry
        assert cache.hits == 1


class TestEviction:
    def test_lru_evicts_oldest(self):
        cache = StructureCache(capacity=1)
        cache.get(make_chain_taskset(n_subtasks=2))
        cache.get(make_chain_taskset(n_subtasks=3))
        assert cache.evictions == 1
        assert len(cache) == 1
        # The first shape was evicted: looking it up again recompiles.
        cache.get(make_chain_taskset(n_subtasks=2))
        assert cache.misses == 3

    def test_recent_use_protects_an_entry(self):
        cache = StructureCache(capacity=2)
        small = make_chain_taskset(n_subtasks=2)
        big = make_chain_taskset(n_subtasks=3)
        cache.get(small)
        cache.get(big)
        cache.get(small)                       # refresh small's recency
        cache.get(make_chain_taskset(n_subtasks=4))   # evicts big
        assert cache.get(small) is not None
        assert cache.hits == 2                 # small hit twice, big gone

    def test_clear(self):
        cache = StructureCache()
        cache.get(make_chain_taskset())
        cache.clear()
        assert len(cache) == 0


class TestBuildAndPeek:
    def test_a_miss_takes_the_builder(self):
        from repro.core.structure import compile_structure
        cache = StructureCache()
        built = compile_structure(make_chain_taskset())
        structure = cache.get(fingerprint="membership", build=lambda: built)
        assert structure is built
        assert (cache.hits, cache.misses) == (0, 1)
        again = cache.get(fingerprint="membership",
                          build=lambda: pytest.fail("hit must not build"))
        assert again is built
        assert cache.hits == 1

    def test_a_built_entry_stays_unbound(self):
        """A structure from the builder (the service's splice) is cached
        and handed out as it is, also to a caller with a task set:
        nothing binds it to one."""
        from repro.core.structure import compile_structure
        cache = StructureCache()
        ts = make_chain_taskset()
        built = compile_structure(ts)
        structure = cache.get(ts, fingerprint="membership",
                              build=lambda: built)
        assert structure is built
        assert not hasattr(built, "taskset")
        assert cache.peek("membership") is built

    def test_peek_neither_counts_nor_builds(self):
        cache = StructureCache(capacity=2)
        assert cache.peek("a") is None
        first = cache.get(make_chain_taskset(n_subtasks=2))
        key = next(iter(cache._entries))[0]
        cache.get(make_chain_taskset(n_subtasks=3))
        assert cache.peek(key) is first
        assert (cache.hits, cache.misses) == (0, 2)
        # peek left the recency alone: the first entry is still oldest.
        cache.get(make_chain_taskset(n_subtasks=4))
        assert cache.peek(key) is None

    def test_a_hit_does_not_refresh_the_model(self):
        """Equal keys mean equal arrays, so a hit hands the cached
        structure back as it is; its arrays are read-only, so nothing
        can refresh it in place."""
        cache = StructureCache()
        first = cache.get(make_chain_taskset())
        assert cache.get(make_chain_taskset()) is first
        assert cache.hits == 1

    def test_a_lookup_needs_a_key_and_a_miss_a_source(self):
        cache = StructureCache()
        with pytest.raises(ServiceError):
            cache.get()
        with pytest.raises(ServiceError):
            cache.get(fingerprint="nothing-to-build")
