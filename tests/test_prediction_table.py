"""Unit and property tests for the generic prediction table and slots."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prediction_table import (
    DIRECT_MAPPED,
    FULLY_ASSOCIATIVE_TABLE,
    PredictionTable,
    SlotList,
)
from repro.errors import ConfigurationError


class TestSlotList:
    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            SlotList(0)

    def test_mru_order(self):
        slots = SlotList(3)
        for value in (1, 2, 3):
            slots.add(value)
        assert slots.values() == [3, 2, 1]

    def test_lru_eviction(self):
        slots = SlotList(2)
        slots.add(1)
        slots.add(2)
        evicted = slots.add(3)
        assert evicted == 1
        assert slots.values() == [3, 2]

    def test_refresh_existing(self):
        slots = SlotList(2)
        slots.add(1)
        slots.add(2)
        assert slots.add(1) is None  # refresh, no eviction
        assert slots.values() == [1, 2]

    def test_contains_and_len(self):
        slots = SlotList(2)
        slots.add(5)
        assert 5 in slots
        assert len(slots) == 1


class TestPredictionTable:
    def test_labels(self):
        assert PredictionTable(256, DIRECT_MAPPED).label == "256,D"
        assert PredictionTable(256, 4).label == "256,4"
        assert PredictionTable(256, FULLY_ASSOCIATIVE_TABLE).label == "256,F"

    @pytest.mark.parametrize("rows,ways", [(0, 1), (256, -1), (256, 3)])
    def test_invalid(self, rows, ways):
        with pytest.raises(ConfigurationError):
            PredictionTable(rows, ways)

    def test_negative_keys_map_to_valid_sets(self):
        table = PredictionTable(8, DIRECT_MAPPED)
        assert 0 <= table.set_index(-5) < 8
        table.insert(-5, "payload")
        assert table.lookup(-5) == "payload"

    def test_tag_mismatch_returns_none(self):
        table = PredictionTable(8, DIRECT_MAPPED)
        table.insert(1, "one")
        # 9 maps to the same set but has a different tag.
        assert table.lookup(9) is None

    def test_direct_mapped_conflict_eviction(self):
        table = PredictionTable(8, DIRECT_MAPPED)
        table.insert(1, "one")
        evicted = table.insert(9, "nine")
        assert evicted == 1
        assert table.lookup(1) is None
        assert 1 not in table
        assert table.peek(9) == "nine"
        assert len(table) == 1

    def test_two_way_holds_conflicting_pair(self):
        table = PredictionTable(8, 2)  # 4 sets
        table.insert(1, "a")
        table.insert(5, "b")  # same set (1 % 4 == 5 % 4)
        assert table.lookup(1) == "a"
        assert table.lookup(5) == "b"
        # Third conflicting key evicts the set's LRU (1 was just used...
        # then 5; LRU afterwards is 1).
        table.insert(9, "c")
        assert table.lookup(1) is None

    def test_lookup_promotes_mru(self):
        table = PredictionTable(4, 2)  # 2 sets
        table.insert(0, "a")
        table.insert(2, "b")
        table.lookup(0)  # promote
        table.insert(4, "c")  # evicts LRU = 2
        assert table.lookup(2) is None
        assert table.lookup(0) == "a"

    def test_lookup_or_insert(self):
        table = PredictionTable(8)
        payload, allocated = table.lookup_or_insert(3, lambda: SlotList(2))
        assert allocated
        again, allocated_again = table.lookup_or_insert(3, lambda: SlotList(2))
        assert not allocated_again
        assert again is payload

    def test_flush(self):
        table = PredictionTable(8)
        table.insert(1, "x")
        assert table.flush() == 1
        assert len(table) == 0

    def test_lookup_misses_then_hits(self):
        table = PredictionTable(8)
        assert table.lookup(1) is None
        assert 1 not in table
        table.insert(1, "x")
        assert table.lookup(1) == "x"

    def test_items(self):
        table = PredictionTable(8)
        table.insert(1, "a")
        table.insert(2, "b")
        assert dict(table.items()) == {1: "a", 2: "b"}


@settings(max_examples=50, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=200),
    ways=st.sampled_from([1, 2, 4, 0]),
)
def test_table_matches_per_set_lru_model(keys, ways):
    """Property: each set is an LRU dict keyed by the full (tag) key."""
    rows = 8
    table = PredictionTable(rows, ways)
    effective_ways = rows if ways == 0 else ways
    num_sets = rows // effective_ways
    model: dict[int, list[int]] = {s: [] for s in range(num_sets)}  # LRU first

    for key in keys:
        set_index = key % num_sets
        bucket = model[set_index]
        expected = key in bucket
        payload = table.lookup(key)
        assert (payload is not None) == expected
        if expected:
            bucket.remove(key)
            bucket.append(key)
        else:
            table.insert(key, key)
            if len(bucket) >= effective_ways:
                bucket.pop(0)
            bucket.append(key)
    for set_index, bucket in model.items():
        for key in bucket:
            assert table.peek(key) == key
