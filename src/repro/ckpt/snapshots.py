"""``StateSnapshot`` dataclasses for every piece of mechanism state.

A snapshot is a frozen-in-amber copy of one simulation structure —
prediction table, prefetch buffer, or a whole prefetcher — as
plain codec values (ints, floats, strings, lists), serialized through
:mod:`repro.ckpt.codec` with stable field ordering so that *identical
logical state always yields an identical digest*. That invariant is
load-bearing: a bookmark (one ``ckpt`` entry under its ``cont:`` or
``sess:`` key) checks its state against the ``state_digest`` it
records, and ``/streams`` reports that digest, so the reference engine
and the compiled engine must agree byte-for-byte on the snapshot of
any state they both can reach.

Two canonicalization rules make cross-engine agreement possible:

1. **Behaviour-bearing state only.** Diagnostic counters that influence
   no simulation decision and no reported statistic —
   ``PredictionTable.lookups/tag_hits/row_evictions``,
   ``RecencyStack.pointer_writes`` — are *excluded* from snapshots, and
   restore zeroes them. (The :class:`~repro.prefetch.base.Prefetcher`
   issue/overhead counters and the buffer counters *are* captured:
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
from .codec import blob_digest, encode_blob, read_blob

from ..core.distance import DistancePrefetcher
from ..core.distance_pair import DistancePairPrefetcher
from ..core.pc_distance import PCDistancePrefetcher

#: kind -> snapshot class, populated by ``__init_subclass__``.
SNAPSHOT_KINDS: dict[str, type["StateSnapshot"]] = {}

_NESTED_MARKER = "__kind__"


def _encode_field(value):
    # Snapshots nest only as whole fields, never inside lists.
    if isinstance(value, StateSnapshot):
        nested = {_NESTED_MARKER: value.kind}
        nested.update(value.to_payload())
        return nested
    return value


def _decode_field(value):
    if isinstance(value, dict):
        kind = value.get(_NESTED_MARKER)
        cls = SNAPSHOT_KINDS.get(kind)
        if cls is None:
            raise CkptError(f"corrupt snapshot: unknown nested kind {kind!r}")
        payload = {k: v for k, v in value.items() if k != _NESTED_MARKER}
        return cls.from_payload(payload)
    return value


class StateSnapshot:
    """Base of all snapshot dataclasses: payload <-> bytes plumbing.

    Subclasses are dataclasses declaring a unique ``kind`` string; the
    payload is the ordered mapping of dataclass fields (nested
    snapshots encode recursively), which the codec serializes
    deterministically. Fields take no defaults: a snapshot made by
    :meth:`written` reads every field from its blob on first access.
    """

    kind: ClassVar[str] = ""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.kind:
            existing = SNAPSHOT_KINDS.get(cls.kind)
            if existing is not None and existing is not cls:
                raise CkptError(f"duplicate snapshot kind {cls.kind!r}")
            SNAPSHOT_KINDS[cls.kind] = cls

    @classmethod
    def written(cls, blob: bytes) -> "StateSnapshot":
        """The snapshot a writer encoded as ``blob``.

        :meth:`to_bytes` hands ``blob`` back untouched. The fields are
        decoded from it the first time one is read, and from then on
        the snapshot is a plain one: its bytes are re-encoded from its
        (possibly mutated) fields.
        """
        snap = cls.__new__(cls)
        snap.__dict__["_blob"] = blob
        return snap

    def __getattr__(self, name: str):
        # Reached only for names the instance lacks: the fields of a
        # snapshot made by ``written``, until its blob is decoded.
        fields = getattr(type(self), "__dataclass_fields__", {})
        blob = self.__dict__.get("_blob") if name in fields else None
        if blob is None:
            raise AttributeError(name)
        decoded = type(self).from_payload(read_blob(blob, self.kind)[1])
        self.__dict__.update(decoded.__dict__)
        self.__dict__.pop("_blob", None)
        return self.__dict__[name]

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
        blob = self.__dict__.get("_blob")
        if blob is None:
            blob = encode_blob(self.kind, self.to_payload())
        return blob

    @classmethod
    def from_bytes(cls, blob: bytes) -> "StateSnapshot":
        """Parse a blob; on the base class, dispatch by embedded kind.

        Calling this on a concrete subclass additionally demands the
        blob's kind match that subclass.
        """
        expect = cls.kind or None
        kind, payload = read_blob(blob, expect_kind=expect)
        target = SNAPSHOT_KINDS.get(kind)
        if target is None:
            raise CkptError(f"unknown snapshot kind {kind!r}")
        return target.from_payload(payload)

    def digest(self) -> str:
        """Content digest of the serialized snapshot (checkpoint address)."""
        return blob_digest(self.to_bytes())


# ---------------------------------------------------------------------------
# Core structures: prediction table, prefetch buffer.


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


def _check_table(snap: TableSnapshot, table: PredictionTable, check_row) -> None:
    """A table snapshot's shape, sets and rows (``check_row(payload)``)
    against the live table."""
    if snap.rows != table.rows or snap.ways != table.ways:
        raise CkptError(
            f"table shape mismatch: snapshot is {snap.rows}r/{snap.ways}w, "
            f"live table is {table.rows}r/{table.ways}w"
        )
    num_sets = table.num_sets
    if len(snap.sets) != num_sets:
        raise CkptError(
            f"corrupt table snapshot: {len(snap.sets)} sets for "
            f"{num_sets}-set table"
        )
    for index, pairs in enumerate(snap.sets):
        if len(pairs) > table.ways:
            raise CkptError(
                f"corrupt table snapshot: set {index} holds {len(pairs)} "
                f"rows, associativity is {table.ways}"
            )
        for key, payload in pairs:
            if key % num_sets != index:
                raise CkptError(
                    f"corrupt table snapshot: key {key} filed under set "
                    f"{index}, maps to set {key % num_sets}"
                )
            check_row(payload)


def _restore_table(snap: TableSnapshot, table: PredictionTable, decode) -> None:
    """Overwrite ``table`` with a validated ``snap``; ``decode(list[int])
    -> payload``. Zeroes the diagnostic counters (not snapshotted)."""
    for table_set, pairs in zip(table._sets, snap.sets):
        table_set.clear()
        for key, payload in pairs:
            table_set[key] = decode(payload)
    # The sets were filled behind the table's back; re-derive its O(1)
    # occupancy counter from what the snapshot installed.
    table._occupied = sum(len(s) for s in table._sets)
    table.lookups = 0
    table.tag_hits = 0
    table.row_evictions = 0


def _encode_slots(entry: SlotList) -> list:
    return entry.values()


def _check_slots(values: list, snap: "MechanismSnapshot") -> None:
    if len(values) > snap.slots:
        raise CkptError(
            f"corrupt snapshot: {len(values)} slot values for "
            f"capacity-{snap.slots} row"
        )


def _decode_slots(values: list, snap: "MechanismSnapshot") -> SlotList:
    row = SlotList(snap.slots)
    row._slots = list(values)
    return row


def _encode_stride(entry: StrideEntry) -> list:
    return [entry.prev_page, entry.stride, int(entry.state)]


def _check_stride(values: list, snap: "MechanismSnapshot") -> None:
    try:
        StrideState(values[2])
    except (ValueError, IndexError) as error:
        raise CkptError(f"corrupt stride row {values!r}: {error}") from error
    if len(values) != 3:
        raise CkptError(f"corrupt stride row {values!r}: not a triple")


def _decode_stride(values: list, snap: "MechanismSnapshot") -> StrideEntry:
    return StrideEntry(prev_page=values[0], stride=values[1], state=StrideState(values[2]))


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
    validate(snap, buffer.capacity)
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

#: Table row codecs by name: ``(encode, check, decode)``. ``check`` and
#: ``decode`` take a row's values and the (validated) snapshot.
_ROW_CODECS = {
    "slots": (_encode_slots, _check_slots, _decode_slots),
    "stride": (_encode_stride, _check_stride, _decode_stride),
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

    :func:`snapshot_prefetcher`, :func:`validate` and
    :func:`restore_prefetcher` walk that declaration; :meth:`_capture`,
    :meth:`_check` and :meth:`_restore` hold the little a family cannot
    declare. The declaration is also the compiled engine's family table
    (:mod:`repro.sim.batchpath`): :func:`family_of` picks the family, a
    configuration is planned as the table's rows and ways followed by
    the ``config`` fields, ``row_codec`` says whether there is a table,
    and the generated loop keeps each ``live`` field in a register of
    the same name.
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

    def _check(self) -> None:
        """Checks beyond the declaration (none by default); part of
        :func:`validate`, after the configuration check."""

    def _restore(self, prefetcher: Prefetcher) -> None:
        """State beyond the declaration (none by default), written after
        :func:`validate` and before the table and the live fields."""


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

    def _check(self) -> None:
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

    def _check(self) -> None:
        for record in self.entries:
            if len(record) != 4:
                raise CkptError(f"corrupt RP snapshot: malformed PTE {record!r}")
        pages = {record[0] for record in self.entries}
        if len(pages) != len(self.entries):
            seen = set()
            for page, *_ in self.entries:
                if page in seen:
                    raise CkptError(f"corrupt RP snapshot: duplicate PTE for page {page}")
                seen.add(page)
        # Every link must land on a PTE: the stack is walked through them.
        if self.top is not None and self.top not in pages:
            raise CkptError(f"corrupt RP snapshot: stack top {self.top} has no PTE")
        pages.add(None)
        for page, below, above, _ in self.entries:
            if below not in pages or above not in pages:
                target = below if below not in pages else above
                raise CkptError(
                    f"corrupt RP snapshot: page {page} links to "
                    f"{target}, which has no PTE"
                )

    def _restore(self, prefetcher: RecencyPrefetcher) -> None:
        # Links resolve to the linked PTE's own page object: a decoded
        # snapshot holds a fresh int per occurrence, and an instance
        # kept alive should hold each page once, as a live one does.
        pages = {record[0]: record[0] for record in self.entries}
        prefetcher.page_table._entries = {
            page: PageTableEntry(
                page, next=pages.get(below), prev=pages.get(above), on_stack=bool(on_stack)
            )
            for page, below, above, on_stack in self.entries
        }
        prefetcher.stack._top = self.top
        prefetcher.stack.pointer_writes = 0


#: Exact mechanism class -> the snapshot family declaring it.
_MECHANISMS: dict[type, type[MechanismSnapshot]] = {
    cls.mechanism: cls
    for cls in SNAPSHOT_KINDS.values()
    if issubclass(cls, MechanismSnapshot)
}


def family_of(prefetcher: Prefetcher) -> type[MechanismSnapshot] | None:
    """The snapshot family declaring ``prefetcher``'s class, if any.

    Dispatch is on exact type: a subclass may carry state or behaviour
    its parent's declaration does not describe, so it must declare its
    own family (until then it has no snapshots and no compiled loop).
    """
    return _MECHANISMS.get(type(prefetcher))


def _family(prefetcher: Prefetcher) -> type[MechanismSnapshot]:
    family = family_of(prefetcher)
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
        encode, _, _ = _ROW_CODECS[family.row_codec]
        fields["table"] = snapshot_table(prefetcher.table, encode)
    return family(**fields, **family._capture(prefetcher))


def validate(snap: MechanismSnapshot | BufferSnapshot, against) -> None:
    """Every check a snapshot passes before it becomes live state.

    A mechanism snapshot is checked ``against`` the instance whose
    configuration it must carry: its kind must match the instance's
    exact type and each declared configuration field its value; then
    the family's own checks (ASP-seq's degree range, RP's page-table
    links), and a table's shape, sets and rows (slot counts, stride
    states). A buffer snapshot is checked ``against`` the live buffer's
    capacity: equal, and not overfull. Raises
    :class:`~repro.errors.CkptError` on the first failure.

    :func:`restore_prefetcher`, :func:`restore_buffer` and
    :meth:`~repro.ckpt.ReplaySession.resume` (which seeds a compiled
    kernel straight from the snapshot) all validate here.
    """
    if isinstance(snap, BufferSnapshot):
        if snap.capacity != against:
            raise CkptError(
                f"buffer capacity mismatch: snapshot is {snap.capacity}, "
                f"live buffer is {against}"
            )
        if len(snap.pages) > against:
            raise CkptError(
                f"corrupt buffer snapshot: {len(snap.pages)} pages for "
                f"capacity {snap.capacity}"
            )
        return
    family = _family(against)
    if type(snap) is not family:
        raise CkptError(
            f"snapshot kind mismatch: {type(snap).__name__} cannot restore "
            f"a {type(against).__name__}"
        )
    for name in family.config:
        stored, configured = getattr(snap, name), getattr(against, name)
        if stored != configured:
            raise CkptError(
                f"{snap.kind} configuration mismatch: snapshot {name}={stored!r}, "
                f"instance {name}={configured!r}"
            )
    snap._check()
    if family.row_codec is not None:
        _, check, _ = _ROW_CODECS[family.row_codec]
        _check_table(snap.table, against.table, lambda payload: check(payload, snap))


def restore_prefetcher(snap: MechanismSnapshot, prefetcher: Prefetcher) -> None:
    """Overwrite ``prefetcher``'s state with ``snap``, once :func:`validate` passes.

    Diagnostic counters excluded from snapshots (table
    lookup/hit/eviction tallies, RP pointer-write tally) are zeroed.
    """
    validate(snap, prefetcher)
    family = type(snap)
    snap._restore(prefetcher)
    if family.row_codec is not None:
        _, _, decode = _ROW_CODECS[family.row_codec]
        _restore_table(snap.table, prefetcher.table, lambda payload: decode(payload, snap))
    for name in _COUNTERS:
        setattr(prefetcher, name, getattr(snap, name))
    for name, attribute in family.live.items():
        setattr(prefetcher, attribute, getattr(snap, name))
