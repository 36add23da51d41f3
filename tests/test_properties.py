"""Cross-cutting property tests for the simulation contracts.

These pin the invariants the whole methodology rests on, beyond the
module-level tests:

- **RLE exactness** — re-encoding a trace's runs (splitting or merging
  consecutive same-page runs) never changes the TLB miss stream.
- **Oracle dominance** — no mechanism beats future knowledge under the
  same buffer and issue budget.
- **Rescale conservation** — page-size rescaling preserves reference
  counts and is the identity at 4 KiB.
- **Cycle-model sanity** — the no-prefetch baseline equals base cycles
  plus exposed penalties for any miss spacing.
- **Structure invariants** — the core state machines the engines rest
  on (:class:`PredictionTable`, :class:`TLB`, :class:`PrefetchBuffer`,
  the DP-2 key packing) hold their capacity and exact-LRU contracts
  under arbitrary seeded operation sequences.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance_pair import DistancePairPrefetcher, pack_distance_pair
from repro.core.prediction_table import PredictionTable
from repro.mem.trace import ReferenceTrace
from repro.prefetch.factory import PREFETCHER_NAMES, create_prefetcher
from repro.prefetch.null import NullPrefetcher
from repro.sim.config import TLBConfig
from repro.sim.cycle import CycleSimConfig, simulate_cycles
from repro.sim.oracle import replay_oracle
from repro.sim.sweep import rescale_trace
from repro.sim.two_phase import filter_tlb, replay_prefetcher
from repro.tlb.prefetch_buffer import PrefetchBuffer
from repro.tlb.tlb import TLB
from repro.cpu.costs import TimingParameters


@st.composite
def rle_traces(draw):
    n = draw(st.integers(min_value=1, max_value=80))
    pages = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
    counts = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    return ReferenceTrace([0] * n, pages, counts, name="rle")


def _split_runs(trace: ReferenceTrace, rng: np.random.Generator) -> ReferenceTrace:
    """Re-encode: randomly split runs with count > 1 into two runs."""
    pcs, pages, counts = [], [], []
    for pc, page, count in zip(
        trace.pcs.tolist(), trace.pages.tolist(), trace.counts.tolist()
    ):
        if count > 1 and rng.random() < 0.5:
            left = int(rng.integers(1, count))
            pcs += [pc, pc]
            pages += [page, page]
            counts += [left, count - left]
        else:
            pcs.append(pc)
            pages.append(page)
            counts.append(count)
    return ReferenceTrace(pcs, pages, counts, name=trace.name)


def _merge_runs(trace: ReferenceTrace) -> ReferenceTrace:
    """Re-encode: merge adjacent runs touching the same page."""
    pcs, pages, counts = [], [], []
    for pc, page, count in zip(
        trace.pcs.tolist(), trace.pages.tolist(), trace.counts.tolist()
    ):
        if pages and pages[-1] == page:
            counts[-1] += count
        else:
            pcs.append(pc)
            pages.append(page)
            counts.append(count)
    return ReferenceTrace(pcs, pages, counts, name=trace.name)


@settings(max_examples=50, deadline=None)
@given(trace=rle_traces(), seed=st.integers(0, 2**16))
def test_rle_reencoding_preserves_miss_stream(trace, seed):
    """The RLE contract: any equivalent run encoding of the same
    reference sequence yields the identical miss stream."""
    config = TLBConfig(entries=4)
    reference = filter_tlb(trace, config)
    split = filter_tlb(_split_runs(trace, np.random.default_rng(seed)), config)
    merged = filter_tlb(_merge_runs(trace), config)
    for other in (split, merged):
        assert other.pages.tolist() == reference.pages.tolist()
        assert other.evicted.tolist() == reference.evicted.tolist()
        assert other.total_references == reference.total_references


@settings(max_examples=30, deadline=None)
@given(trace=rle_traces(), mechanism=st.sampled_from(sorted(PREFETCHER_NAMES)))
def test_oracle_dominates_every_mechanism(trace, mechanism):
    miss_trace = filter_tlb(trace, TLBConfig(entries=4))
    ceiling = replay_oracle(
        miss_trace, lookahead=2, buffer_entries=4
    ).prediction_accuracy
    accuracy = replay_prefetcher(
        miss_trace,
        create_prefetcher(mechanism, rows=16),
        buffer_entries=4,
        max_prefetches_per_miss=2,
    ).prediction_accuracy
    assert accuracy <= ceiling + 1e-9


@settings(max_examples=50, deadline=None)
@given(trace=rle_traces(), shift=st.sampled_from([4096, 8192, 16384, 65536]))
def test_rescale_conserves_references(trace, shift):
    rescaled = rescale_trace(trace, shift)
    assert rescaled.total_references == trace.total_references
    if shift == 4096:
        assert rescaled is trace
    else:
        # Page mapping is the exact right shift.
        assert rescaled.pages.max() <= trace.pages.max()


@settings(max_examples=50, deadline=None)
@given(trace=rle_traces())
def test_rescaled_miss_count_never_increases(trace):
    """Bigger pages can only merge footprints: misses cannot grow."""
    config = TLBConfig(entries=4)
    base = filter_tlb(trace, config).num_misses
    bigger = filter_tlb(rescale_trace(trace, 8192), config).num_misses
    assert bigger <= base


@settings(max_examples=30, deadline=None)
@given(
    gaps=st.lists(st.integers(1, 400), min_size=1, max_size=40),
    exposure=st.sampled_from([1.0, 0.5, 2.0 / 3.0]),
)
def test_baseline_cycles_closed_form(gaps, exposure):
    """No-prefetch cycles = base + misses × exposed penalty, exactly,
    for any miss spacing and exposure factor."""
    from repro.mem.trace import MissTrace, NO_EVICTION

    ref_index = np.cumsum([0] + gaps[:-1]).astype(np.int64)
    n = len(gaps)
    miss_trace = MissTrace(
        pcs=np.zeros(n, dtype=np.int64),
        pages=np.arange(n, dtype=np.int64),
        evicted=np.full(n, NO_EVICTION, dtype=np.int64),
        ref_index=ref_index,
        total_references=int(ref_index[-1]) + 10,
        name="t",
    )
    timing = TimingParameters(
        issue_width=1, instructions_per_reference=1.0,
        stall_exposure=exposure, walk_contention=0.0,
    )
    stats = simulate_cycles(miss_trace, NullPrefetcher(), CycleSimConfig(timing=timing))
    expected = miss_trace.total_references * 1.0 + n * exposure * 100
    assert stats.total_cycles == pytest.approx(expected)


@settings(max_examples=25, deadline=None)
@given(trace=rle_traces())
def test_warmup_never_counts_more_hits_than_misses(trace):
    config = TLBConfig(entries=4)
    miss_trace = filter_tlb(trace, config, warmup_fraction=0.4)
    stats = replay_prefetcher(
        miss_trace, create_prefetcher("DP", rows=16), buffer_entries=4
    )
    assert stats.pb_hits <= stats.measured_misses
    assert stats.measured_misses <= stats.tlb_misses


# ---------------------------------------------------------------------------
# Core-structure invariants under randomized seeded operation sequences
# ---------------------------------------------------------------------------


@st.composite
def table_shapes(draw):
    rows = draw(st.sampled_from([4, 8, 16]))
    ways = draw(st.sampled_from([1, 2, 4, 0]))
    return rows, ways


@settings(max_examples=60, deadline=None)
@given(
    shape=table_shapes(),
    keys=st.lists(st.integers(-12, 12), min_size=1, max_size=120),
)
def test_prediction_table_capacity_and_exact_lru(shape, keys):
    """PredictionTable vs a transparent per-set LRU model.

    Invariants: occupancy never exceeds ``rows`` (nor ``ways`` per
    set), every resident key lives in the set it hashes to, and the
    per-set LRU order — observable through :meth:`items` — matches a
    list-based model replaying the same lookup_or_insert sequence.
    """
    rows, ways = shape
    table = PredictionTable(rows, ways)
    effective_ways = rows if ways == 0 else ways
    num_sets = rows // effective_ways
    model = [[] for _ in range(num_sets)]  # per-set key lists, LRU first

    for key in keys:
        payload, allocated = table.lookup_or_insert(key, lambda: object())
        model_set = model[key % num_sets]
        if key in model_set:
            assert not allocated
            model_set.remove(key)
            model_set.append(key)  # promote to MRU
        else:
            assert allocated
            if len(model_set) >= effective_ways:
                model_set.pop(0)  # evict LRU
            model_set.append(key)

        assert len(table) <= rows
        observed = [[] for _ in range(num_sets)]
        for resident_key, _ in table.items():
            observed[table.set_index(resident_key)].append(resident_key)
        assert observed == model
        for table_set in observed:
            assert len(table_set) <= effective_ways

    # The O(1) occupancy counter agrees with the model's resident keys.
    assert len(table) == sum(len(model_set) for model_set in model)


@settings(max_examples=60, deadline=None)
@given(
    entries=st.sampled_from([4, 8, 16]),
    ways=st.sampled_from([0, 2, 4]),
    pages=st.lists(st.integers(0, 40), min_size=1, max_size=150),
)
def test_tlb_set_associativity_bounds_and_lru(entries, ways, pages):
    """TLB occupancy bounds per set plus exact LRU vs a model."""
    tlb = TLB(entries=entries, ways=ways)
    effective_ways = entries if ways == 0 else ways
    num_sets = entries // effective_ways
    model = [[] for _ in range(num_sets)]

    for page in pages:
        access = tlb.access(page)
        model_set = model[page % num_sets]
        if access.hit:
            assert page in model_set
            model_set.remove(page)
            model_set.append(page)
            assert access.evicted is None
        else:
            assert page not in model_set
            if len(model_set) >= effective_ways:
                assert access.evicted == model_set.pop(0)
            else:
                assert access.evicted is None
            model_set.append(page)

        assert len(tlb) <= entries
        observed = [[] for _ in range(num_sets)]
        for resident in tlb.resident_pages():
            observed[tlb.set_index(resident)].append(resident)
        assert observed == model

    assert tlb.hits + tlb.misses == len(pages)


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.sampled_from([1, 2, 4, 16]),
    ops=st.lists(
        st.tuples(st.sampled_from(["lookup", "insert", "flush"]), st.integers(0, 25)),
        min_size=1,
        max_size=120,
    ),
)
def test_prefetch_buffer_never_exceeds_capacity(capacity, ops):
    """PrefetchBuffer under arbitrary op sequences: capacity bound,
    counter consistency, and the residency identity
    ``resident == inserted - hits - evicted_unused`` (flushes fold
    into ``evicted_unused``)."""
    buffer = PrefetchBuffer(capacity)
    insert_calls = 0
    for op, page in ops:
        if op == "lookup":
            was_resident = page in buffer
            hit = buffer.lookup_remove(page)
            assert hit == was_resident
            assert page not in buffer  # a hit removes the page
        elif op == "insert":
            insert_calls += 1
            evicted = buffer.insert(page)
            assert page in buffer
            if evicted is not None:
                assert evicted not in buffer
        else:
            dropped = buffer.flush()
            assert dropped <= capacity
            assert len(buffer) == 0
        assert len(buffer) <= capacity
        assert buffer.hits <= buffer.lookups
        assert buffer.inserted + buffer.refreshed == insert_calls
        assert len(buffer) == buffer.inserted - buffer.hits - buffer.evicted_unused


@settings(max_examples=120, deadline=None)
@given(
    first=st.integers(-(2**23), 2**23 - 1),
    second=st.integers(-(2**23), 2**23 - 1),
    other_first=st.integers(-(2**23), 2**23 - 1),
    other_second=st.integers(-(2**23), 2**23 - 1),
)
def test_distance_pair_key_packing_is_injective(first, second, other_first, other_second):
    """DP-2's packed key collides only for identical distance pairs."""
    if (first, second) != (other_first, other_second):
        assert pack_distance_pair(first, second) != pack_distance_pair(
            other_first, other_second
        )
    assert pack_distance_pair(first, second) == pack_distance_pair(first, second)


@settings(max_examples=40, deadline=None)
@given(
    pages=st.lists(st.integers(0, 30), min_size=1, max_size=120),
    rows=st.sampled_from([4, 16]),
    ways=st.sampled_from([1, 2, 0]),
    slots=st.integers(1, 3),
)
def test_distance_pair_prefetcher_table_invariants(pages, rows, ways, slots):
    """DistancePairPrefetcher under random miss streams: table occupancy
    and per-row slot counts stay bounded, and flush() empties on-chip
    state completely."""
    prefetcher = DistancePairPrefetcher(rows=rows, ways=ways, slots=slots)
    for page in pages:
        prefetches = prefetcher.on_miss(0, page, -1, False)
        assert len(prefetches) <= slots
        assert len(prefetcher.table) <= rows
        for _, row in prefetcher.table.items():
            assert len(row) <= slots
    prefetcher.flush()
    assert len(prefetcher.table) == 0
    assert prefetcher.on_miss(0, 5, -1, False) == []  # history gone too
