"""Snapshot round-trip fuzzing: every StateSnapshot, arbitrary state.

The satellite contract: for every mechanism family, ``snapshot ->
bytes -> restore`` into a fresh instance must reproduce *identical
behaviour on a continuation stream* — same prefetch decisions, same
counters, same final digest — for hypothesis-generated miss histories,
not just the curated traces. Plus the strict-restore failure modes:
configuration mismatches and cross-family restores raise
:class:`~repro.errors.CkptError` instead of silently corrupting state.
"""

import dataclasses
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckpt import (
    SNAPSHOT_KINDS,
    ReplaySession,
    StateSnapshot,
    restore_buffer,
    restore_prefetcher,
    restore_tlb,
    snapshot_buffer,
    snapshot_prefetcher,
    snapshot_tlb,
)
from repro.errors import CkptError
from repro.prefetch.adaptive_sequential import AdaptiveSequentialPrefetcher
from repro.prefetch.factory import create_prefetcher
from repro.run import MissStreamCache, Runner, RunSpec
from repro.tlb.prefetch_buffer import PrefetchBuffer
from repro.tlb.tlb import TLB

#: (name, params) for every snapshot-able family; tables kept tiny so
#: short fuzzed histories still cause evictions and LRU churn.
FAMILIES = [
    ("none", {}),
    ("SP", {}),
    ("SP-adaptive", {}),
    ("ASP", {"rows": 8, "ways": 2}),
    ("MP", {"rows": 8}),
    ("DP", {"rows": 8}),
    ("DP-PC", {"rows": 8, "ways": 2}),
    ("DP-2", {"rows": 8, "ways": 2}),
    ("RP", {}),
    ("RP", {"variant_three": 1}),
]

FAMILY_IDS = [
    f"{name}{''.join(f'-{k}{v}' for k, v in params.items())}"
    for name, params in FAMILIES
]

#: One miss event: (pc, page, evicted, pb_hit). Small page range keeps
#: revisits (and therefore table hits and RP re-links) frequent.
miss_events = st.tuples(
    st.integers(0, 6),
    st.integers(0, 30),
    st.integers(-1, 30),
    st.booleans(),
)

histories = st.lists(miss_events, max_size=60)


def _drive(prefetcher, events):
    """Feed events through on_miss, returning the decision trace."""
    return [
        prefetcher.on_miss(pc, page, evicted, pb_hit)
        for pc, page, evicted, pb_hit in events
    ]


@pytest.mark.parametrize(("name", "params"), FAMILIES, ids=FAMILY_IDS)
@given(history=histories, continuation=histories)
@settings(max_examples=40, deadline=None)
def test_restore_reproduces_behavior_on_continuation(
    name, params, history, continuation
):
    trained = create_prefetcher(name, **params)
    _drive(trained, history)

    blob = snapshot_prefetcher(trained).to_bytes()
    restored_into = create_prefetcher(name, **params)
    restore_prefetcher(StateSnapshot.from_bytes(blob), restored_into)

    # Identical state now...
    assert (
        snapshot_prefetcher(restored_into).digest()
        == snapshot_prefetcher(trained).digest()
    )
    # ...and identical behaviour from here on.
    assert _drive(restored_into, continuation) == _drive(trained, continuation)
    assert (
        snapshot_prefetcher(restored_into).digest()
        == snapshot_prefetcher(trained).digest()
    )
    assert restored_into.prefetches_issued == trained.prefetches_issued
    assert restored_into.overhead_ops_total == trained.overhead_ops_total
    assert restored_into.last_overhead_ops == trained.last_overhead_ops


@pytest.mark.parametrize(("name", "params"), FAMILIES, ids=FAMILY_IDS)
@given(history=histories)
@settings(max_examples=25, deadline=None)
def test_snapshot_bytes_round_trip_exactly(name, params, history):
    prefetcher = create_prefetcher(name, **params)
    _drive(prefetcher, history)
    snap = snapshot_prefetcher(prefetcher)
    recovered = StateSnapshot.from_bytes(snap.to_bytes())
    assert type(recovered) is type(snap)
    assert recovered == snap
    assert recovered.digest() == snap.digest()


@given(
    pages=st.lists(st.integers(0, 200), max_size=80),
    continuation=st.lists(st.integers(0, 200), max_size=40),
    entries=st.sampled_from([4, 8, 64]),
    ways=st.sampled_from([0, 2, 4]),
)
@settings(max_examples=40, deadline=None)
def test_tlb_snapshot_round_trip(pages, continuation, entries, ways):
    tlb = TLB(entries=entries, ways=ways)
    for page in pages:
        tlb.access(page)
    twin = TLB(entries=entries, ways=ways)
    restore_tlb(snapshot_tlb(tlb), twin)
    assert twin.resident_pages() == tlb.resident_pages()
    assert (twin.hits, twin.misses) == (tlb.hits, tlb.misses)
    for page in continuation:
        assert twin.access(page) == tlb.access(page)
    assert twin.resident_pages() == tlb.resident_pages()


@given(
    ops=st.lists(st.tuples(st.booleans(), st.integers(0, 40)), max_size=80),
    capacity=st.sampled_from([1, 4, 16]),
)
@settings(max_examples=40, deadline=None)
def test_buffer_snapshot_round_trip(ops, capacity):
    buffer = PrefetchBuffer(capacity)
    for is_insert, page in ops:
        if is_insert:
            buffer.insert(page)
        else:
            buffer.lookup_remove(page)
    twin = PrefetchBuffer(capacity)
    restore_buffer(snapshot_buffer(buffer), twin)
    assert twin.resident_pages() == buffer.resident_pages()
    for field in ("hits", "lookups", "inserted", "refreshed", "evicted_unused"):
        assert getattr(twin, field) == getattr(buffer, field)


#: case id (``kind:field``) -> (builder, captured config, the same
#: config with that one field changed).
CONFIG_MISMATCHES = {
    "mech.sp:degree": (partial(create_prefetcher, "SP"), {}, {"degree": 2}),
    **{
        f"mech.asp_seq:{field}": (AdaptiveSequentialPrefetcher, {}, {field: value})
        for field, value in (
            ("max_degree", 4),
            ("window", 32),
            ("raise_above", 0.7),
            ("lower_below", 0.1),
        )
    },
    "mech.asp:rows": (
        partial(create_prefetcher, "ASP"),
        {"rows": 8, "ways": 2},
        {"rows": 16, "ways": 2},
    ),
    "mech.asp:ways": (
        partial(create_prefetcher, "ASP"),
        {"rows": 8, "ways": 2},
        {"rows": 8, "ways": 4},
    ),
    **{
        f"{kind}:slots": (
            partial(create_prefetcher, name),
            {"rows": 8},
            {"rows": 8, "slots": 3},
        )
        for kind, name in (
            ("mech.mp", "MP"),
            ("mech.dp", "DP"),
            ("mech.dp_pc", "DP-PC"),
            ("mech.dp2", "DP-2"),
        )
    },
    "mech.rp:variant_three": (
        partial(create_prefetcher, "RP"),
        {},
        {"variant_three": True},
    ),
}


class TestStrictRestore:
    def _trained(self, name, **params):
        prefetcher = create_prefetcher(name, **params)
        for page in (3, 7, 12, 3, 9, 7):
            prefetcher.on_miss(0, page, -1, False)
        return prefetcher

    @staticmethod
    def _train(prefetcher):
        for page in (3, 7, 12, 3, 9, 7):
            prefetcher.on_miss(0, page, -1, False)
        return prefetcher

    @pytest.mark.parametrize("case", sorted(CONFIG_MISMATCHES))
    def test_every_configuration_field_is_strict(self, case):
        build, captured, changed = CONFIG_MISMATCHES[case]
        snap = snapshot_prefetcher(self._train(build(**captured)))
        with pytest.raises(CkptError, match="mismatch"):
            restore_prefetcher(snap, build(**changed))

    def test_mismatch_cases_cover_every_declared_field(self):
        declared = {
            f"{cls.kind}:{field}"
            for cls in SNAPSHOT_KINDS.values()
            for field in getattr(cls, "config", ())
        }
        assert declared <= set(CONFIG_MISMATCHES)

    @pytest.mark.parametrize("degree", [0, 9])
    def test_asp_seq_degree_outside_its_range_rejected(self, degree):
        snap = snapshot_prefetcher(AdaptiveSequentialPrefetcher(max_degree=8))
        corrupt = dataclasses.replace(snap, degree=degree)
        with pytest.raises(CkptError, match=r"degree .* outside \[1, 8\]"):
            restore_prefetcher(corrupt, AdaptiveSequentialPrefetcher(max_degree=8))

    def test_invalid_stride_state_rejected(self):
        snap = snapshot_prefetcher(self._trained("ASP", rows=8, ways=2))
        pairs = next(pairs for pairs in snap.table.sets if pairs)
        key, (prev_page, stride, _) = pairs[0]
        pairs[0] = [key, [prev_page, stride, 7]]
        with pytest.raises(CkptError, match="stride row"):
            restore_prefetcher(snap, create_prefetcher("ASP", rows=8, ways=2))

    def test_table_key_filed_under_the_wrong_set_rejected(self):
        snap = snapshot_prefetcher(self._trained("DP", rows=8, ways=2))
        sets = snap.table.sets
        home = next(index for index, pairs in enumerate(sets) if pairs)
        stray = next(
            index
            for index, pairs in enumerate(sets)
            if index != home and len(pairs) < snap.table.ways
        )
        sets[stray].append(sets[home].pop())
        with pytest.raises(CkptError, match="filed under set"):
            restore_prefetcher(snap, create_prefetcher("DP", rows=8, ways=2))

    def test_configuration_mismatch_rejected(self):
        snap = snapshot_prefetcher(self._trained("DP", rows=8))
        with pytest.raises(CkptError, match="mismatch"):
            restore_prefetcher(snap, create_prefetcher("DP", rows=16))

    def test_cross_family_restore_rejected(self):
        snap = snapshot_prefetcher(self._trained("DP", rows=8))
        with pytest.raises(CkptError):
            restore_prefetcher(snap, create_prefetcher("MP", rows=8))

    def test_tlb_shape_mismatch_rejected(self):
        tlb = TLB(entries=8, ways=2)
        tlb.access(5)
        with pytest.raises(CkptError, match="mismatch"):
            restore_tlb(snapshot_tlb(tlb), TLB(entries=16, ways=2))

    def test_buffer_capacity_mismatch_rejected(self):
        buffer = PrefetchBuffer(4)
        buffer.insert(9)
        with pytest.raises(CkptError, match="mismatch"):
            restore_buffer(snapshot_buffer(buffer), PrefetchBuffer(8))

    def test_wrong_kind_bytes_rejected_by_subclass(self):
        from repro.ckpt import TLBSnapshot

        blob = snapshot_prefetcher(self._trained("DP", rows=8)).to_bytes()
        with pytest.raises(CkptError, match="kind"):
            TLBSnapshot.from_bytes(blob)


@pytest.mark.parametrize("link", [1, 2], ids=["next", "prev"])
def test_rp_dangling_link_rejected_at_restore(link):
    """A PTE whose stack link names a page without a PTE is corrupt:
    restore refuses it rather than leaving the compiled kernel to fail
    on the missing page when it seeds its stack."""
    spec = RunSpec.of("galgel", "RP", scale=0.05)
    stream = Runner(cache=MissStreamCache()).miss_stream_for(spec)
    session = ReplaySession(stream, spec.build_prefetcher())
    session.advance(200)
    snap = session.snapshot()
    entry = next(entry for entry in snap.mechanism.entries if entry[link] is not None)
    entry[link] = 10**12
    with pytest.raises(CkptError, match="has no PTE"):
        restore_prefetcher(snap.mechanism, spec.build_prefetcher())
    with pytest.raises(CkptError, match="has no PTE"):
        ReplaySession.resume(snap, stream, spec.build_prefetcher())


def test_every_registered_kind_is_reachable():
    """The registry holds exactly the snapshot kinds the suite fuzzes."""
    assert set(SNAPSHOT_KINDS) == {
        "table", "tlb", "buffer", "session",
        "mech.none", "mech.sp", "mech.asp_seq", "mech.asp", "mech.mp",
        "mech.dp", "mech.dp_pc", "mech.dp2", "mech.rp",
    }
