"""``StateSnapshot`` dataclasses for every piece of mechanism state.

A snapshot is a frozen-in-amber copy of one simulation structure —
prediction table, TLB, prefetch buffer, or a whole prefetcher — as
plain codec values (ints, floats, strings, lists), serialized through
:mod:`repro.ckpt.codec` with stable field ordering so that *identical
logical state always yields an identical digest*. That invariant is
load-bearing: checkpoints are content-addressed by digest, and resume
continuations are keyed by ``(spec_key, stream_offset, state_digest)``,
so the reference engine and the compiled engine must agree byte-for-byte
on the snapshot of any state they both can reach.

Two canonicalization rules make cross-engine agreement possible:

1. **Behaviour-bearing state only.** Diagnostic counters that influence
   no simulation decision and no reported statistic —
   ``PredictionTable.lookups/tag_hits/row_evictions``,
   ``RecencyStack.pointer_writes`` — are *excluded* from snapshots, and
   restore zeroes them. (The :class:`~repro.prefetch.base.Prefetcher`
   issue/overhead counters and the buffer/TLB counters *are* captured:
   they feed delta-based statistics.)
2. **Canonical element order.** Recency-stack page-table entries are
   stored sorted by page number: dict insertion order never affects
   RP's behaviour, but it would otherwise differ between engines.

Restores are strict: applying a snapshot to a mechanism whose
configuration (rows, ways, slots, degree bounds, ...) differs from the
captured one raises :class:`~repro.errors.CkptError` rather than
silently truncating state.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass
from typing import ClassVar

from ..core.prediction_table import PredictionTable, SlotList
from ..errors import CkptError
from ..prefetch.adaptive_sequential import AdaptiveSequentialPrefetcher
from ..prefetch.base import Prefetcher
from ..prefetch.markov import MarkovPrefetcher
from ..prefetch.null import NullPrefetcher
from ..prefetch.recency import RecencyPrefetcher
from ..prefetch.sequential import SequentialPrefetcher
from ..prefetch.stride import ArbitraryStridePrefetcher, StrideEntry, StrideState
from ..tlb.page_table import PageTableEntry
from ..tlb.prefetch_buffer import PrefetchBuffer
from ..tlb.tlb import TLB
from .codec import blob_digest, decode_blob, encode_blob

from ..core.distance import DistancePrefetcher
from ..core.distance_pair import DistancePairPrefetcher
from ..core.pc_distance import PCDistancePrefetcher

#: kind -> snapshot class, populated by ``__init_subclass__``.
SNAPSHOT_KINDS: dict[str, type["StateSnapshot"]] = {}

_NESTED_MARKER = "__kind__"


def _encode_field(value):
    if isinstance(value, StateSnapshot):
        nested = {_NESTED_MARKER: value.kind}
        nested.update(value.to_payload())
        return nested
    if isinstance(value, (list, tuple)):
        return [_encode_field(item) for item in value]
    return value


def _decode_field(value):
    if isinstance(value, dict):
        kind = value.get(_NESTED_MARKER)
        cls = SNAPSHOT_KINDS.get(kind)
        if cls is None:
            raise CkptError(f"corrupt snapshot: unknown nested kind {kind!r}")
        payload = {k: v for k, v in value.items() if k != _NESTED_MARKER}
        return cls.from_payload(payload)
    if isinstance(value, list):
        return [_decode_field(item) for item in value]
    return value


class StateSnapshot:
    """Base of all snapshot dataclasses: payload <-> bytes plumbing.

    Subclasses are dataclasses declaring a unique ``kind`` string; the
    payload is the ordered mapping of dataclass fields (nested
    snapshots encode recursively), which the codec serializes
    deterministically.
    """

    kind: ClassVar[str] = ""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.kind:
            existing = SNAPSHOT_KINDS.get(cls.kind)
            if existing is not None and existing is not cls:
                raise CkptError(f"duplicate snapshot kind {cls.kind!r}")
            SNAPSHOT_KINDS[cls.kind] = cls

    def to_payload(self) -> dict:
        """Ordered field-name -> codec-value mapping of this snapshot."""
        return {
            field.name: _encode_field(getattr(self, field.name))
            for field in dataclasses.fields(self)
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "StateSnapshot":
        """Rebuild a snapshot from :meth:`to_payload` output."""
        if not isinstance(payload, dict):
            raise CkptError(f"corrupt snapshot: {cls.kind!r} payload is not a map")
        names = [field.name for field in dataclasses.fields(cls)]
        if list(payload) != names:
            raise CkptError(
                f"corrupt snapshot: {cls.kind!r} fields {sorted(payload)} "
                f"do not match schema {sorted(names)}"
            )
        return cls(**{name: _decode_field(payload[name]) for name in names})

    def to_bytes(self) -> bytes:
        """Serialize as a self-describing ``repro.ckpt/v1`` blob."""
        return encode_blob(self.kind, self.to_payload())

    @classmethod
    def from_bytes(cls, blob: bytes) -> "StateSnapshot":
        """Parse a blob; on the base class, dispatch by embedded kind.

        Calling this on a concrete subclass additionally demands the
        blob's kind match that subclass.
        """
        expect = cls.kind or None
        kind, payload = decode_blob(blob, expect_kind=expect)
        target = SNAPSHOT_KINDS.get(kind)
        if target is None:
            raise CkptError(f"unknown snapshot kind {kind!r}")
        return target.from_payload(payload)

    def digest(self) -> str:
        """Content digest of the serialized snapshot (checkpoint address)."""
        return blob_digest(self.to_bytes())


# ---------------------------------------------------------------------------
# Core structures: prediction table, TLB, prefetch buffer.


@dataclass
class TableSnapshot(StateSnapshot):
    """A :class:`PredictionTable`'s full contents.

    ``sets`` holds one list per set, each a list of ``[key, payload]``
    pairs in LRU -> MRU order; ``payload`` is a list of ints whose
    meaning the owning mechanism defines (slot values, or a stride
    triple). Diagnostic counters are deliberately absent.
    """

    kind: ClassVar[str] = "table"

    rows: int
    ways: int
    sets: list


def snapshot_table(table: PredictionTable, encode) -> TableSnapshot:
    """Capture ``table``; ``encode(payload) -> list[int]`` per row."""
    return TableSnapshot(
        rows=table.rows,
        ways=table.ways,
        sets=[
            [[key, encode(payload)] for key, payload in table_set.items()]
            for table_set in table._sets
        ],
    )


def restore_table(snap: TableSnapshot, table: PredictionTable, decode) -> None:
    """Overwrite ``table`` with ``snap``; ``decode(list[int]) -> payload``.

    Zeroes the table's diagnostic counters (they are not snapshotted).
    """
    if snap.rows != table.rows or snap.ways != table.ways:
        raise CkptError(
            f"table shape mismatch: snapshot is {snap.rows}r/{snap.ways}w, "
            f"live table is {table.rows}r/{table.ways}w"
        )
    if len(snap.sets) != table.num_sets:
        raise CkptError(
            f"corrupt table snapshot: {len(snap.sets)} sets for "
            f"{table.num_sets}-set table"
        )
    for index, pairs in enumerate(snap.sets):
        if len(pairs) > table.ways:
            raise CkptError(
                f"corrupt table snapshot: set {index} holds {len(pairs)} "
                f"rows, associativity is {table.ways}"
            )
        table_set = table._sets[index]
        table_set.clear()
        for key, payload in pairs:
            if key % table.num_sets != index:
                raise CkptError(
                    f"corrupt table snapshot: key {key} filed under set "
                    f"{index}, maps to set {key % table.num_sets}"
                )
            table_set[key] = decode(payload)
    # The sets were filled behind the table's back; re-derive its O(1)
    # occupancy counter from what the snapshot installed.
    table._occupied = sum(len(s) for s in table._sets)
    table.lookups = 0
    table.tag_hits = 0
    table.row_evictions = 0


def _encode_slots(entry: SlotList) -> list:
    return entry.values()


def _slot_decoder(capacity: int):
    def decode(values: list) -> SlotList:
        if len(values) > capacity:
            raise CkptError(
                f"corrupt snapshot: {len(values)} slot values for "
                f"capacity-{capacity} row"
            )
        row = SlotList(capacity)
        row._slots = list(values)
        return row

    return decode


def _encode_stride(entry: StrideEntry) -> list:
    return [entry.prev_page, entry.stride, int(entry.state)]


def _decode_stride(values: list) -> StrideEntry:
    try:
        state = StrideState(values[2])
    except (ValueError, IndexError) as error:
        raise CkptError(f"corrupt stride row {values!r}: {error}") from error
    return StrideEntry(prev_page=values[0], stride=values[1], state=state)


@dataclass
class TLBSnapshot(StateSnapshot):
    """A :class:`TLB`'s resident pages (per set, LRU -> MRU) and counters."""

    kind: ClassVar[str] = "tlb"

    entries: int
    ways: int
    hits: int
    misses: int
    sets: list


def snapshot_tlb(tlb: TLB) -> TLBSnapshot:
    """Capture a TLB's contents, LRU order, and hit/miss counters."""
    return TLBSnapshot(
        entries=tlb.entries,
        ways=tlb.ways,
        hits=tlb.hits,
        misses=tlb.misses,
        sets=[list(tlb_set) for tlb_set in tlb._sets],
    )


def restore_tlb(snap: TLBSnapshot, tlb: TLB) -> None:
    """Overwrite ``tlb`` with ``snap`` (contents and counters)."""
    if snap.entries != tlb.entries or snap.ways != tlb.ways:
        raise CkptError(
            f"TLB shape mismatch: snapshot is {snap.entries}e/{snap.ways}w, "
            f"live TLB is {tlb.entries}e/{tlb.ways}w"
        )
    if len(snap.sets) != tlb.num_sets:
        raise CkptError(
            f"corrupt TLB snapshot: {len(snap.sets)} sets for "
            f"{tlb.num_sets}-set TLB"
        )
    for index, pages in enumerate(snap.sets):
        if len(pages) > tlb.ways:
            raise CkptError(
                f"corrupt TLB snapshot: set {index} holds {len(pages)} "
                f"pages, associativity is {tlb.ways}"
            )
        tlb_set = tlb._sets[index]
        tlb_set.clear()
        for page in pages:
            if page % tlb.num_sets != index:
                raise CkptError(
                    f"corrupt TLB snapshot: page {page} filed under set "
                    f"{index}, maps to set {page % tlb.num_sets}"
                )
            tlb_set[page] = None
    tlb.hits = snap.hits
    tlb.misses = snap.misses


@dataclass
class BufferSnapshot(StateSnapshot):
    """A :class:`PrefetchBuffer`'s pages (LRU first) and counters."""

    kind: ClassVar[str] = "buffer"

    capacity: int
    hits: int
    lookups: int
    inserted: int
    refreshed: int
    evicted_unused: int
    pages: list


def snapshot_buffer(buffer: PrefetchBuffer) -> BufferSnapshot:
    """Capture a prefetch buffer's contents and cumulative counters."""
    return BufferSnapshot(
        capacity=buffer.capacity,
        hits=buffer.hits,
        lookups=buffer.lookups,
        inserted=buffer.inserted,
        refreshed=buffer.refreshed,
        evicted_unused=buffer.evicted_unused,
        pages=buffer.resident_pages(),
    )


def restore_buffer(snap: BufferSnapshot, buffer: PrefetchBuffer) -> None:
    """Overwrite ``buffer`` with ``snap`` (contents and counters)."""
    if snap.capacity != buffer.capacity:
        raise CkptError(
            f"buffer capacity mismatch: snapshot is {snap.capacity}, "
            f"live buffer is {buffer.capacity}"
        )
    if len(snap.pages) > buffer.capacity:
        raise CkptError(
            f"corrupt buffer snapshot: {len(snap.pages)} pages for "
            f"capacity {snap.capacity}"
        )
    buffer._entries = OrderedDict((page, None) for page in snap.pages)
    buffer.hits = snap.hits
    buffer.lookups = snap.lookups
    buffer.inserted = snap.inserted
    buffer.refreshed = snap.refreshed
    buffer.evicted_unused = snap.evicted_unused




# ---------------------------------------------------------------------------
# Mechanism snapshots: one declared dataclass per prefetcher family. Every
# one carries the base Prefetcher issue/overhead counters — those feed the
# engines' delta-based statistics, so they are behaviour-bearing.

#: The :class:`Prefetcher` accounting counters, captured for every family.
_COUNTERS = ("last_overhead_ops", "prefetches_issued", "overhead_ops_total")

#: Table row codecs by name: ``(encode, decoder for a prefetcher)``.
_ROW_CODECS = {
    "slots": (_encode_slots, lambda prefetcher: _slot_decoder(prefetcher.slots)),
    "stride": (_encode_stride, lambda prefetcher: _decode_stride),
}

@dataclass
class MechanismSnapshot(StateSnapshot):
    """Shared base: the :class:`Prefetcher` accounting counters.

    A family subclass declares what it captures instead of coding it:

    - ``mechanism`` — the exact prefetcher class it snapshots;
    - ``config`` — configuration fields, read from the instance
      attribute of the same name, that must match on restore;
    - ``live`` — live-state fields, each mapped to the instance
      attribute that holds it (``prev_page`` ↔ ``_prev_page``);
    - ``row_codec`` — the ``table`` field's row payloads: ``"slots"``
      (slot lists) or ``"stride"`` (stride triples); ``None`` without
      a table.

    :func:`snapshot_prefetcher` and :func:`restore_prefetcher` walk
    that declaration; :meth:`_capture` and :meth:`_restore` hold the
    little a family cannot declare.
    """

    mechanism: ClassVar[type]
    config: ClassVar[tuple[str, ...]] = ()
    live: ClassVar[dict[str, str]] = {}
    row_codec: ClassVar[str | None] = None

    last_overhead_ops: int
    prefetches_issued: int
    overhead_ops_total: int

    @classmethod
    def _capture(cls, prefetcher: Prefetcher) -> dict:
        """Fields beyond the declaration (none by default)."""
        return {}

    def _restore(self, prefetcher: Prefetcher) -> None:
        """Checks and state beyond the declaration (none by default).

        Runs after the configuration check and before the table and
        the live fields are written.
        """


@dataclass
class NullSnapshot(MechanismSnapshot):
    """``NullPrefetcher`` — counters only (it never issues anything)."""

    kind: ClassVar[str] = "mech.none"
    mechanism = NullPrefetcher


@dataclass
class SequentialSnapshot(MechanismSnapshot):
    """``SP`` — stateless beyond its configured degree."""

    kind: ClassVar[str] = "mech.sp"
    mechanism = SequentialPrefetcher
    config = ("degree",)

    degree: int


@dataclass
class AdaptiveSequentialSnapshot(MechanismSnapshot):
    """``ASP-seq`` — adaptation counters plus configuration bounds."""

    kind: ClassVar[str] = "mech.asp_seq"
    mechanism = AdaptiveSequentialPrefetcher
    config = ("max_degree", "window", "raise_above", "lower_below")
    live = {
        "degree": "degree",
        "window_misses": "_window_misses",
        "window_hits": "_window_hits",
    }

    max_degree: int
    window: int
    raise_above: float
    lower_below: float
    degree: int
    window_misses: int
    window_hits: int

    def _restore(self, prefetcher: Prefetcher) -> None:
        if not 1 <= self.degree <= self.max_degree:
            raise CkptError(
                f"corrupt ASP-seq snapshot: degree {self.degree} outside "
                f"[1, {self.max_degree}]"
            )


@dataclass
class StrideSnapshot(MechanismSnapshot):
    """``ASP`` — the Chen & Baer RPT contents."""

    kind: ClassVar[str] = "mech.asp"
    mechanism = ArbitraryStridePrefetcher
    row_codec = "stride"

    table: TableSnapshot


@dataclass
class MarkovSnapshot(MechanismSnapshot):
    """``MP`` — successor table plus the previous-miss register."""

    kind: ClassVar[str] = "mech.mp"
    mechanism = MarkovPrefetcher
    config = ("slots",)
    live = {"prev_page": "_prev_page"}
    row_codec = "slots"

    slots: int
    prev_page: int | None
    table: TableSnapshot


@dataclass
class DistanceSnapshot(MechanismSnapshot):
    """``DP`` — distance table plus prev-page/prev-distance registers."""

    kind: ClassVar[str] = "mech.dp"
    mechanism = DistancePrefetcher
    config = ("slots",)
    live = {"prev_page": "_prev_page", "prev_distance": "_prev_distance"}
    row_codec = "slots"

    slots: int
    prev_page: int | None
    prev_distance: int | None
    table: TableSnapshot


@dataclass
class PCDistanceSnapshot(MechanismSnapshot):
    """``DP-PC`` — (PC, distance)-keyed table plus history registers."""

    kind: ClassVar[str] = "mech.dp_pc"
    mechanism = PCDistancePrefetcher
    config = ("slots",)
    live = {"prev_page": "_prev_page", "prev_key": "_prev_key"}
    row_codec = "slots"

    slots: int
    prev_page: int | None
    prev_key: int | None
    table: TableSnapshot


@dataclass
class DistancePairSnapshot(MechanismSnapshot):
    """``DP-2`` — distance-pair-keyed table plus history registers."""

    kind: ClassVar[str] = "mech.dp2"
    mechanism = DistancePairPrefetcher
    config = ("slots",)
    live = {
        "prev_page": "_prev_page",
        "prev_distance": "_prev_distance",
        "prev_key": "_prev_key",
    }
    row_codec = "slots"

    slots: int
    prev_page: int | None
    prev_distance: int | None
    prev_key: int | None
    table: TableSnapshot


@dataclass
class RecencySnapshot(MechanismSnapshot):
    """``RP`` — every PTE's stack linkage, in canonical (sorted) order.

    ``entries`` is ``[page, next, prev, on_stack]`` per PTE, sorted by
    page number: page-table dict order never affects RP's behaviour,
    and sorting makes the digest independent of which engine (or which
    chunking of the stream) produced the state.
    """

    kind: ClassVar[str] = "mech.rp"
    mechanism = RecencyPrefetcher
    config = ("variant_three",)

    variant_three: bool
    top: int | None
    entries: list

    @classmethod
    def _capture(cls, prefetcher: RecencyPrefetcher) -> dict:
        ptes = sorted(prefetcher.page_table._entries.values(), key=lambda pte: pte.page)
        return {
            "top": prefetcher.stack.top,
            "entries": [[pte.page, pte.next, pte.prev, pte.on_stack] for pte in ptes],
        }

    def _restore(self, prefetcher: RecencyPrefetcher) -> None:
        table: dict[int, PageTableEntry] = {}
        for record in self.entries:
            if len(record) != 4:
                raise CkptError(f"corrupt RP snapshot: malformed PTE {record!r}")
            page, below, above, on_stack = record
            if page in table:
                raise CkptError(f"corrupt RP snapshot: duplicate PTE for page {page}")
            table[page] = PageTableEntry(
                page, next=below, prev=above, on_stack=bool(on_stack)
            )
        # Every link must land on a PTE: the stack is walked through them.
        if self.top is not None and self.top not in table:
            raise CkptError(f"corrupt RP snapshot: stack top {self.top} has no PTE")
        for pte in table.values():
            for target in (pte.next, pte.prev):
                if target is not None and target not in table:
                    raise CkptError(
                        f"corrupt RP snapshot: page {pte.page} links to "
                        f"{target}, which has no PTE"
                    )
        prefetcher.page_table._entries = table
        prefetcher.stack._top = self.top
        prefetcher.stack.pointer_writes = 0


#: Exact mechanism class -> the snapshot family declaring it.
_MECHANISMS: dict[type, type[MechanismSnapshot]] = {
    cls.mechanism: cls
    for cls in SNAPSHOT_KINDS.values()
    if issubclass(cls, MechanismSnapshot)
}


def _family(prefetcher: Prefetcher) -> type[MechanismSnapshot]:
    # Exact type (mirroring the compiled engine's support check): a
    # subclass with extra state must declare its own family.
    family = _MECHANISMS.get(type(prefetcher))
    if family is None:
        raise CkptError(f"no snapshot support for {type(prefetcher).__name__}")
    return family


def snapshot_prefetcher(prefetcher: Prefetcher) -> MechanismSnapshot:
    """Capture any supported mechanism's full behaviour-bearing state."""
    family = _family(prefetcher)
    fields = {name: getattr(prefetcher, name) for name in _COUNTERS + family.config}
    for name, attribute in family.live.items():
        fields[name] = getattr(prefetcher, attribute)
    if family.row_codec is not None:
        encode, _ = _ROW_CODECS[family.row_codec]
        fields["table"] = snapshot_table(prefetcher.table, encode)
    return family(**fields, **family._capture(prefetcher))


def restore_prefetcher(snap: MechanismSnapshot, prefetcher: Prefetcher) -> None:
    """Overwrite ``prefetcher``'s state with ``snap``.

    The snapshot kind must match the instance's exact type, and the
    captured configuration must match the instance's; mismatches raise
    :class:`~repro.errors.CkptError`. Diagnostic counters excluded from
    snapshots (table lookup/hit/eviction tallies, RP pointer-write
    tally) are zeroed.
    """
    family = _family(prefetcher)
    if type(snap) is not family:
        raise CkptError(
            f"snapshot kind mismatch: {type(snap).__name__} cannot restore "
            f"a {type(prefetcher).__name__}"
        )
    for name in family.config:
        stored, configured = getattr(snap, name), getattr(prefetcher, name)
        if stored != configured:
            raise CkptError(
                f"{snap.kind} configuration mismatch: snapshot {name}={stored!r}, "
                f"instance {name}={configured!r}"
            )
    snap._restore(prefetcher)
    if family.row_codec is not None:
        _, decoder = _ROW_CODECS[family.row_codec]
        restore_table(snap.table, prefetcher.table, decoder(prefetcher))
    for name in _COUNTERS:
        setattr(prefetcher, name, getattr(snap, name))
    for name, attribute in family.live.items():
        setattr(prefetcher, attribute, getattr(snap, name))
