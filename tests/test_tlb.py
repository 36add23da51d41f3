"""Unit and property tests for the set-associative LRU TLB."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.tlb.tlb import FULLY_ASSOCIATIVE, TLB


class TestConstruction:
    def test_fully_associative_default(self):
        tlb = TLB(entries=128)
        assert tlb.num_sets == 1
        assert tlb.ways == 128
        assert tlb.label == "128e-FA"

    def test_set_associative(self):
        tlb = TLB(entries=64, ways=2)
        assert tlb.num_sets == 32
        assert tlb.label == "64e-2w"

    @pytest.mark.parametrize("entries,ways", [(0, 1), (-1, 1), (64, -1), (64, 3)])
    def test_invalid(self, entries, ways):
        with pytest.raises(ConfigurationError):
            TLB(entries=entries, ways=ways)


class TestLRUSemantics:
    def test_miss_then_hit(self):
        tlb = TLB(entries=4)
        assert not tlb.probe(1)
        tlb.fill(1)
        assert tlb.probe(1)
        assert tlb.hits == 1
        assert tlb.misses == 1

    def test_lru_eviction_order(self):
        tlb = TLB(entries=2)
        assert tlb.access(1).evicted is None
        assert tlb.access(2).evicted is None
        # 1 is LRU; filling 3 evicts it.
        outcome = tlb.access(3)
        assert not outcome.hit
        assert outcome.evicted == 1

    def test_hit_promotes_to_mru(self):
        tlb = TLB(entries=2)
        tlb.access(1)
        tlb.access(2)
        tlb.access(1)  # promote 1; now 2 is LRU
        assert tlb.access(3).evicted == 2

    def test_set_isolation(self):
        tlb = TLB(entries=4, ways=2)  # 2 sets: even/odd pages
        tlb.access(0)
        tlb.access(2)
        tlb.access(4)  # evicts 0 (same set), odd set untouched
        assert 0 not in tlb
        tlb.access(1)
        assert 1 in tlb

    def test_contains_does_not_mutate(self):
        tlb = TLB(entries=2)
        tlb.access(1)
        tlb.access(2)
        assert 1 in tlb  # no promotion
        assert tlb.access(3).evicted == 1

    def test_flush(self):
        tlb = TLB(entries=4)
        for page in range(4):
            tlb.access(page)
        assert tlb.flush() == 4
        assert len(tlb) == 0
        assert not tlb.probe(0)

    def test_miss_rate(self):
        tlb = TLB(entries=4)
        tlb.access(1)
        tlb.access(1)
        assert tlb.miss_rate == pytest.approx(0.5)


class _ReferenceLRU:
    """Oracle: fully-associative LRU as an explicit recency list."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.order: list[int] = []  # LRU first

    def access(self, page: int) -> tuple[bool, int | None]:
        if page in self.order:
            self.order.remove(page)
            self.order.append(page)
            return True, None
        evicted = None
        if len(self.order) >= self.capacity:
            evicted = self.order.pop(0)
        self.order.append(page)
        return False, evicted


@settings(max_examples=60, deadline=None)
@given(
    pages=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=300),
    capacity=st.sampled_from([2, 4, 8]),
)
def test_tlb_matches_reference_lru(pages, capacity):
    """Property: the TLB behaves exactly like a textbook LRU list."""
    tlb = TLB(entries=capacity)
    oracle = _ReferenceLRU(capacity)
    for page in pages:
        outcome = tlb.access(page)
        expected_hit, expected_evicted = oracle.access(page)
        assert outcome.hit == expected_hit
        assert outcome.evicted == expected_evicted
    assert sorted(tlb.resident_pages()) == sorted(oracle.order)


@settings(max_examples=40, deadline=None)
@given(
    pages=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=200),
)
def test_set_associative_equals_per_set_lru(pages):
    """Property: a W-way TLB is an independent LRU per set."""
    tlb = TLB(entries=8, ways=2)
    oracles = {s: _ReferenceLRU(2) for s in range(4)}
    for page in pages:
        outcome = tlb.access(page)
        hit, evicted = oracles[page % 4].access(page)
        assert outcome.hit == hit
        assert outcome.evicted == evicted
