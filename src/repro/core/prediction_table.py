"""The generic on-chip prediction table of the paper's Section 2.

ASP, MP and DP all keep their state in a table with ``r`` rows, an
associativity (direct-mapped, 2-way, 4-way or fully associative — the
paper's D/2/4/F labels), a tag per row for lookup, and — for MP and DP —
``s`` prediction slots per row kept in LRU order.

The table is generic over the row payload:

- MP rows hold a :class:`SlotList` of predicted *pages*.
- DP rows hold a :class:`SlotList` of predicted *distances*.
- ASP rows hold a ``(previous page, stride, state)`` tuple (one slot, by
  definition of the mechanism).

MP, DP and DP's two Section 4 extensions walk their slot-list table the
same way on every miss; :class:`SlotTablePrefetcher` is that one walk,
and each mechanism states only the key its table is indexed by.

Keys may be negative (DP indexes by distance, which is signed); the
row-index hash uses Python's non-negative ``%`` so any integer key maps
to a valid set.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from collections.abc import Callable, Iterator
from typing import Generic, TypeVar

from repro.errors import ConfigurationError
from repro.prefetch.base import HardwareDescription, Prefetcher

#: Associativity value selecting one row per set.
DIRECT_MAPPED = 1
#: Associativity value selecting a single set spanning all rows.
FULLY_ASSOCIATIVE_TABLE = 0

PayloadT = TypeVar("PayloadT")


class SlotList:
    """Up to ``s`` prediction values in LRU order (MRU first).

    MP keeps the next pages seen after a page; DP keeps the next
    distances seen after a distance. Adding a value already present
    refreshes its recency; adding to a full list evicts the LRU value
    (the paper: "If all the slots are occupied, then we evict one based
    on LRU policy").
    """

    __slots__ = ("_slots", "capacity")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"slot capacity must be > 0, got {capacity}")
        self.capacity = capacity
        self._slots: list[int] = []

    def add(self, value: int) -> int | None:
        """Record ``value`` as the most recent successor; return eviction."""
        slots = self._slots
        try:
            slots.remove(value)
        except ValueError:
            pass
        slots.insert(0, value)
        if len(slots) > self.capacity:
            return slots.pop()
        return None

    def values(self) -> list[int]:
        """Current predictions, most recently confirmed first."""
        return list(self._slots)

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, value: int) -> bool:
        return value in self._slots

    def __repr__(self) -> str:
        return f"SlotList({self._slots}, capacity={self.capacity})"


class PredictionTable(Generic[PayloadT]):
    """Set-associative, tagged prediction table with LRU row replacement.

    Args:
        rows: total rows ``r`` (the paper sweeps 32..1024).
        ways: row associativity; :data:`DIRECT_MAPPED` (1) by default,
            :data:`FULLY_ASSOCIATIVE_TABLE` (0) for one set of ``r`` ways.

    Each set maps ``key -> payload`` in an :class:`OrderedDict` whose
    order is the set's LRU order. The *full key* serves as the tag: a
    lookup only matches the exact key, as tag comparison would ensure in
    hardware.
    """

    def __init__(self, rows: int, ways: int = DIRECT_MAPPED) -> None:
        if rows <= 0:
            raise ConfigurationError(f"rows must be > 0, got {rows}")
        if ways < 0:
            raise ConfigurationError(f"ways must be >= 0, got {ways}")
        if ways == FULLY_ASSOCIATIVE_TABLE:
            ways = rows
        if rows % ways:
            raise ConfigurationError(f"rows ({rows}) must be a multiple of ways ({ways})")
        self.rows = rows
        self.ways = ways
        self.num_sets = rows // ways
        self._sets: list[OrderedDict[int, PayloadT]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        # Maintained incrementally so ``len(table)`` — and through it
        # every freshness probe — is O(1) instead of a sum over what
        # can be a thousand sets.
        self._occupied = 0

    @property
    def assoc_label(self) -> str:
        """The paper's associativity label: ``D``, ``2``, ``4`` or ``F``."""
        if self.ways == 1:
            return "D"
        if self.ways == self.rows:
            return "F"
        return str(self.ways)

    @property
    def label(self) -> str:
        """Configuration label matching the paper's legends, e.g. ``256,D``."""
        return f"{self.rows},{self.assoc_label}"

    def set_index(self, key: int) -> int:
        """Set a key maps to (non-negative even for negative keys).

        Kept as a test oracle: ``test_properties`` and
        ``test_prediction_table`` check residency per set with it.
        """
        return key % self.num_sets

    def lookup(self, key: int) -> PayloadT | None:
        """Return the payload tagged ``key``, promoting it to MRU."""
        table_set = self._sets[key % self.num_sets]
        payload = table_set.get(key)
        if payload is not None:
            table_set.move_to_end(key)
        return payload

    def peek(self, key: int) -> PayloadT | None:
        """Like :meth:`lookup` but without LRU promotion.

        Kept as a test oracle: ``test_prediction_table``,
        ``test_distance`` and ``test_stride`` inspect rows with it
        without disturbing the LRU order they check.
        """
        return self._sets[key % self.num_sets].get(key)

    def insert(self, key: int, payload: PayloadT) -> int | None:
        """Install ``payload`` under ``key``; return any evicted key.

        Inserting an existing key replaces its payload and promotes it.
        """
        table_set = self._sets[key % self.num_sets]
        evicted = None
        if key in table_set:
            table_set.move_to_end(key)
        elif len(table_set) >= self.ways:
            evicted, _ = table_set.popitem(last=False)
        else:
            self._occupied += 1
        table_set[key] = payload
        return evicted

    def lookup_or_insert(
        self, key: int, factory: Callable[[], PayloadT]
    ) -> tuple[PayloadT, bool]:
        """Fetch the row for ``key``, allocating via ``factory`` if absent.

        Returns ``(payload, allocated)`` where ``allocated`` is True when
        a new row was created (possibly evicting an LRU row).
        """
        payload = self.lookup(key)
        if payload is not None:
            return payload, False
        payload = factory()
        self.insert(key, payload)
        return payload, True

    def __contains__(self, key: int) -> bool:
        return key in self._sets[key % self.num_sets]

    def __len__(self) -> int:
        return self._occupied

    def items(self) -> Iterator[tuple[int, PayloadT]]:
        """All ``(key, payload)`` pairs (set order; LRU first per set)."""
        for table_set in self._sets:
            yield from table_set.items()

    def flush(self) -> int:
        """Drop every row (context switch); returns rows dropped."""
        dropped = len(self)
        for table_set in self._sets:
            table_set.clear()
        self._occupied = 0
        return dropped

    def __repr__(self) -> str:
        return f"PredictionTable({self.label}, occupied={len(self)}/{self.rows})"


class SlotTablePrefetcher(Prefetcher):
    """The table walk MP and the DP family share (the paper's Table 1).

    An ``r``-row table of ``s``-slot rows. On a miss the walk looks the
    miss's key up; a hit issues the row's targets, a miss allocates an
    empty row. Then it records the miss's value in the previous key's
    row (MRU first). The targets are read before that update, so when
    the key repeats one miss reads and updates the same row.

    A subclass states only its key rule (:meth:`_keys`), the history
    registers that rule keeps (``registers``, each ``None`` until
    trained; the snapshot declarations name them), its two Table 1
    strings and, if a slot value is not a distance, its targets.

    Args:
        rows: table rows ``r`` (the paper sweeps 32..1024).
        ways: associativity (1 = direct mapped — the paper's default —
            2/4-way, or 0 = fully associative).
        slots: predictions ``s`` per row (2 in the paper's Table 1).
    """

    #: History registers, all ``None`` after construction and flush.
    registers: tuple[str, ...] = ("_prev_page",)
    _prev_page: int | None
    #: Table 1: a row's contents (``{slots}`` is ``s``) and its index.
    row_contents: str = "?"
    index_source: str = "?"

    def __init__(self, rows: int = 256, ways: int = 1, slots: int = 2) -> None:
        super().__init__()
        self.table: PredictionTable[SlotList] = PredictionTable(rows, ways)
        self.slots = slots
        for register in self.registers:
            setattr(self, register, None)

    def _new_row(self) -> SlotList:
        return SlotList(self.slots)

    @abc.abstractmethod
    def _keys(self, pc: int, page: int) -> tuple[int, int | None, int] | None:
        """Advance the registers past this miss and key it.

        Returns ``(key, previous key, value)``: the row to look up, the
        row that learns ``value`` (``None`` for no update), and the
        value. ``None`` when the history cannot key this miss yet.
        """

    def _distance(self, page: int) -> int | None:
        """Shift ``page`` into ``_prev_page``; the distance it moved."""
        prev_page = self._prev_page
        self._prev_page = page
        return None if prev_page is None else page - prev_page

    def _targets(self, page: int, values: list[int]) -> list[int]:
        """Pages a hit row predicts: ``page + v`` for each slot distance
        ``v``, when that page exists."""
        return [target for value in values if (target := page + value) >= 0]

    def on_miss(self, pc: int, page: int, evicted: int, pb_hit: bool) -> list[int]:
        keys = self._keys(pc, page)
        if keys is None:
            return self.account([])
        key, prev_key, value = keys
        entry, allocated = self.table.lookup_or_insert(key, self._new_row)
        prefetches = [] if allocated else self._targets(page, entry.values())
        if prev_key is not None:
            prev_entry, _ = self.table.lookup_or_insert(prev_key, self._new_row)
            prev_entry.add(value)
        return self.account(prefetches)

    def flush(self) -> None:
        self.table.flush()
        for register in self.registers:
            setattr(self, register, None)

    def has_prediction_state(self) -> bool:
        return len(self.table) > 0 or any(
            getattr(self, register) is not None for register in self.registers
        )

    @property
    def label(self) -> str:
        return f"{self.name},{self.table.rows},{self.table.assoc_label}"

    def describe_hardware(self) -> HardwareDescription:
        return HardwareDescription(
            name=self.name,
            rows="r",
            row_contents=self.row_contents.format(slots=self.slots),
            location="On-Chip",
            index_source=self.index_source,
            memory_ops_per_miss=0,
            max_prefetches=str(self.slots),
        )
