"""Tests for state stores and partitioning."""

import zlib

import pytest
from hypothesis import given, strategies as st

from repro.net.packet import FlowKey
from repro.stm import PartitionSpace, StateStore, TOMBSTONE
from repro.stm.partition import _canonical


class TestStateStore:
    def test_get_default(self):
        store = StateStore()
        assert store.get("missing") is None
        assert store.get("missing", 7) == 7

    def test_apply_and_read(self):
        store = StateStore()
        store.apply("k", 1)
        assert store.get("k") == 1
        assert "k" in store
        assert len(store) == 1

    def test_tombstone_deletes(self):
        store = StateStore()
        store.apply("k", 1)
        store.apply("k", TOMBSTONE)
        assert "k" not in store
        assert len(store) == 0

    def test_tombstone_on_missing_key_is_noop(self):
        store = StateStore()
        store.apply("ghost", TOMBSTONE)
        assert len(store) == 0

    def test_tombstone_singleton(self):
        from repro.stm.store import _Tombstone
        assert _Tombstone() is TOMBSTONE

    def test_apply_many_ordered(self):
        store = StateStore()
        store.apply_many({"a": 1, "b": 2})
        assert store.get("a") == 1 and store.get("b") == 2
        assert store.writes_applied == 2

    def test_snapshot_is_deep(self):
        store = StateStore()
        store.apply("k", {"nested": [1, 2]})
        snap = store.snapshot()
        snap["k"]["nested"].append(3)
        assert store.get("k") == {"nested": [1, 2]}

    def test_load_replaces_contents(self):
        store = StateStore()
        store.apply("old", 1)
        store.load({"new": 2})
        assert "old" not in store
        assert store.get("new") == 2

    def test_equality_by_contents(self):
        a, b = StateStore("a"), StateStore("b")
        a.apply("k", 1)
        b.apply("k", 1)
        assert a == b
        b.apply("k", 2)
        assert a != b

    def test_fingerprint_order_independent(self):
        a, b = StateStore(), StateStore()
        a.apply("x", 1)
        a.apply("y", 2)
        b.apply("y", 2)
        b.apply("x", 1)
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_handles_unhashable_values(self):
        store = StateStore()
        store.apply("k", {"a": [1, {2}]})
        assert isinstance(store.fingerprint(), int)

    def test_state_bytes_scales_with_keys(self):
        store = StateStore()
        for i in range(10):
            store.apply(i, i)
        assert store.state_bytes(value_size=32) == 320


class TestPartitionSpace:
    def test_stable_mapping(self):
        space = PartitionSpace(16)
        assert space.partition_of("key") == space.partition_of("key")

    def test_consistent_across_instances(self):
        # Replicas build their own PartitionSpace; mappings must agree.
        assert (PartitionSpace(64).partition_of(("flow", 1, 2)) ==
                PartitionSpace(64).partition_of(("flow", 1, 2)))

    def test_range(self):
        space = PartitionSpace(8)
        for key in range(1000):
            assert 0 <= space.partition_of(key) < 8

    def test_tuple_and_str_keys_distinct_encoding(self):
        space = PartitionSpace(1 << 30)
        # ("ab",) and ("a","b") must not collide by construction.
        assert (space.partition_of(("ab",)) != space.partition_of(("a", "b")))

    def test_spreads_keys(self):
        space = PartitionSpace(64)
        buckets = {space.partition_of(("flow", i)) for i in range(1000)}
        assert len(buckets) > 48  # good dispersion

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            PartitionSpace(0)

    @given(st.one_of(st.integers(), st.text(),
                     st.tuples(st.integers(), st.text())))
    def test_deterministic_for_any_key(self, key):
        space = PartitionSpace(32)
        assert space.partition_of(key) == space.partition_of(key)

    def test_integers_beyond_128_bits(self):
        # Regression: 16-byte fixed-width encoding overflowed here.
        space = PartitionSpace(32)
        for key in (2 ** 127, -(2 ** 127) - 1, 2 ** 400):
            assert 0 <= space.partition_of(key) < 32
            assert space.partition_of(key) == space.partition_of(key)

    #: Keys that compare (and hash) equal yet encode differently sit
    #: next to each other, so a memo keyed on equality alone would
    #: hand one the other's partition.
    MIXED_KEYS = [
        1, 1.0, True, 0, 0.0, False, -1, 2 ** 127, -(2 ** 127) - 1, 2 ** 400,
        "1", b"1", "", b"", None,
        (1,), (1.0,), (True,), (), ("count", 0), ("count", 0.0),
        ("count", False), ("a", b"a"), ((1,), 2), ((1.0,), 2), ((True,), 2),
        (1, (1, (1.0,))), (1, (1, (1,))), (2 ** 127,), (None,),
        FlowKey(1, 2, 3, 4), FlowKey(1.0, 2, 3, 4), FlowKey(4, 3, 2, 1),
        ("fwd", FlowKey(1, 2, 3, 4)), ("fwd", FlowKey(1.0, 2, 3, 4)),
        frozenset({1}), frozenset({1.0}),
    ]

    @given(st.lists(st.sampled_from(MIXED_KEYS), max_size=60),
           st.sampled_from([1, 7, 64, 1 << 30]))
    def test_memo_equals_uncached_hash_in_any_call_order(self, keys, n):
        space = PartitionSpace(n)
        for key in keys:
            assert space.partition_of(key) == \
                zlib.crc32(_canonical(key)) % n, key

    def test_equality(self):
        assert PartitionSpace(8) == PartitionSpace(8)
        assert PartitionSpace(8) != PartitionSpace(16)
