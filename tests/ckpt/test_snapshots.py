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
    snapshot_buffer,
    snapshot_prefetcher,
)
from repro.errors import CkptError
from repro.prefetch.adaptive_sequential import AdaptiveSequentialPrefetcher
from repro.prefetch.factory import create_prefetcher
from repro.run import MissStreamCache, Runner, RunSpec
from repro.tlb.prefetch_buffer import PrefetchBuffer

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

    def test_buffer_capacity_mismatch_rejected(self):
        buffer = PrefetchBuffer(4)
        buffer.insert(9)
        with pytest.raises(CkptError, match="mismatch"):
            restore_buffer(snapshot_buffer(buffer), PrefetchBuffer(8))

    def test_wrong_kind_bytes_rejected_by_subclass(self):
        from repro.ckpt import BufferSnapshot

        blob = snapshot_prefetcher(self._trained("DP", rows=8)).to_bytes()
        with pytest.raises(CkptError, match="kind"):
            BufferSnapshot.from_bytes(blob)


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


# ---------------------------------------------------------------------------
# Corrupt snapshots: one case list, run here through the restores and in
# test_manager.py through ``CheckpointManager.resume`` from oracle-encoded
# blobs, so a check dropped from ``validate`` fails both.

#: (mechanism, params) of the sessions the corruptions start from.
CORRUPT_SPECS = {
    "SP": ("SP", {}),
    "ASP-seq": ("SP-adaptive", {}),
    "ASP": ("ASP", {"rows": 8, "ways": 2}),
    "MP": ("MP", {"rows": 8}),
    "DP": ("DP", {"rows": 8, "ways": 2}),
    "DP-PC": ("DP-PC", {"rows": 8}),
    "DP-2": ("DP-2", {"rows": 8}),
    "RP": ("RP", {}),
}


def _changed(field):
    def corrupt(snap):
        value = getattr(snap.mechanism, field)
        new = (not value) if isinstance(value, bool) else value + 1
        snap.mechanism = dataclasses.replace(snap.mechanism, **{field: new})

    return corrupt


def _table(snap):
    return snap.mechanism.table


def _reshape(snap):
    table = _table(snap)
    snap.mechanism.table = dataclasses.replace(table, rows=table.rows * 2)


def _extra_set(snap):
    _table(snap).sets.append([])


def _overflow_set(snap):
    table = _table(snap)
    num_sets = table.rows // table.ways
    pairs = next(pairs for pairs in table.sets if pairs)
    key, payload = pairs[0]
    while len(pairs) <= table.ways:
        key += num_sets * 1000
        pairs.append([key, list(payload)])


def _misfile(snap):
    sets = _table(snap).sets
    home = next(index for index, pairs in enumerate(sets) if pairs)
    sets[(home + 1) % len(sets)].append(sets[home].pop())


def _overfill_row(snap):
    pairs = next(pairs for pairs in _table(snap).sets if pairs)
    pairs[0][1] = list(range(snap.mechanism.slots + 1))


def _stride_state(snap):
    pairs = next(pairs for pairs in _table(snap).sets if pairs)
    pairs[0][1] = pairs[0][1][:2] + [7]


def _degree(value):
    def corrupt(snap):
        snap.mechanism.degree = value(snap.mechanism)

    return corrupt


def _duplicate_pte(snap):
    snap.mechanism.entries.append(list(snap.mechanism.entries[0]))


def _malformed_pte(snap):
    snap.mechanism.entries[0] = snap.mechanism.entries[0][:3]


def _dangling(link):
    def corrupt(snap):
        entry = next(e for e in snap.mechanism.entries if e[link] is not None)
        entry[link] = 10**12

    return corrupt


def _homeless_top(snap):
    snap.mechanism.top = 10**12


def _foreign_family(snap):
    counters = {name: getattr(snap.mechanism, name) for name in (
        "last_overhead_ops", "prefetches_issued", "overhead_ops_total")}
    snap.mechanism = SNAPSHOT_KINDS["mech.none"](**counters)


def _buffer_capacity(snap):
    snap.buffer.capacity += 1


def _overfull_buffer(snap):
    buffer = snap.buffer
    buffer.pages = buffer.pages + [10**9 + i for i in range(buffer.capacity + 1)]


#: case id -> (CORRUPT_SPECS key, corrupt(session snapshot) in place,
#: the error it must raise). Every configuration field declared by any
#: family has a ``<kind>:<field>`` case.
CORRUPTIONS = {
    "mech.sp:degree": ("SP", _changed("degree"), "configuration mismatch"),
    **{
        f"mech.asp_seq:{field}": ("ASP-seq", _changed(field), "configuration mismatch")
        for field in ("max_degree", "window", "raise_above", "lower_below")
    },
    **{
        f"{kind}:slots": (name, _changed("slots"), "configuration mismatch")
        for kind, name in (
            ("mech.mp", "MP"), ("mech.dp", "DP"), ("mech.dp_pc", "DP-PC"), ("mech.dp2", "DP-2")
        )
    },
    "mech.rp:variant_three": ("RP", _changed("variant_three"), "configuration mismatch"),
    "family": ("DP", _foreign_family, "kind mismatch"),
    "table:shape": ("ASP", _reshape, "table shape mismatch"),
    "table:set count": ("DP", _extra_set, "sets for"),
    "table:set overflow": ("ASP", _overflow_set, r"holds \d+ rows"),
    "table:wrong set": ("DP", _misfile, "filed under set"),
    "slots:overflow": ("DP", _overfill_row, "slot values for capacity"),
    "stride:state": ("ASP", _stride_state, "stride row"),
    "asp_seq:degree low": ("ASP-seq", _degree(lambda m: 0), r"degree .* outside"),
    "asp_seq:degree high": (
        "ASP-seq", _degree(lambda m: m.max_degree + 1), r"degree .* outside"
    ),
    "rp:duplicate": ("RP", _duplicate_pte, "duplicate PTE"),
    "rp:malformed": ("RP", _malformed_pte, "malformed PTE"),
    "rp:next": ("RP", _dangling(1), "has no PTE"),
    "rp:prev": ("RP", _dangling(2), "has no PTE"),
    "rp:top": ("RP", _homeless_top, "stack top"),
    "buffer:capacity": ("MP", _buffer_capacity, "capacity"),
    "buffer:overfull": ("MP", _overfull_buffer, "pages for capacity"),
}


def corrupt_session(runner, case):
    """``(spec, snapshot)``: a 300-entry session of the case's spec with
    the case's corruption applied to its (materialized) snapshot."""
    name, params = CORRUPT_SPECS[CORRUPTIONS[case][0]]
    spec = RunSpec.of("galgel", name, scale=0.05, **params)
    session = ReplaySession(runner.miss_stream_for(spec), spec.build_prefetcher())
    session.advance(300)
    snap = StateSnapshot.from_bytes(session.snapshot().to_bytes())
    CORRUPTIONS[case][1](snap)
    return spec, snap


@pytest.fixture(scope="module")
def corrupt_runner():
    return Runner(cache=MissStreamCache())


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_every_corruption_fails_the_restores(corrupt_runner, case):
    spec, snap = corrupt_session(corrupt_runner, case)
    with pytest.raises(CkptError, match=CORRUPTIONS[case][2]):
        restore_prefetcher(snap.mechanism, spec.build_prefetcher())
        restore_buffer(snap.buffer, PrefetchBuffer(spec.buffer_entries))


def test_corruptions_cover_every_declared_field():
    declared = {
        f"{cls.kind}:{field}"
        for cls in SNAPSHOT_KINDS.values()
        for field in getattr(cls, "config", ())
    }
    assert declared <= set(CORRUPTIONS)


def test_rp_restore_links_share_the_pages_objects():
    """A restored page table holds each page once: links resolve to the
    linked PTE's own page, not to the decoder's fresh ints."""
    trained = create_prefetcher("RP")
    # Pages past CPython's small-int cache, with evictions to stack.
    _drive(trained, [(0, 1000 + i * 7 % 37, 1000 + i * 5 % 37, False) for i in range(200)])
    snap = StateSnapshot.from_bytes(snapshot_prefetcher(trained).to_bytes())
    restored = create_prefetcher("RP")
    restore_prefetcher(snap, restored)
    ptes = restored.page_table._entries
    links = [link for pte in ptes.values() for link in (pte.next, pte.prev) if link is not None]
    assert links and all(link is ptes[link].page for link in links)


def test_every_registered_kind_is_reachable():
    """The registry holds exactly the snapshot kinds the suite fuzzes."""
    assert set(SNAPSHOT_KINDS) == {
        "table", "buffer", "session",
        "mech.none", "mech.sp", "mech.asp_seq", "mech.asp", "mech.mp",
        "mech.dp", "mech.dp_pc", "mech.dp2", "mech.rp",
    }
