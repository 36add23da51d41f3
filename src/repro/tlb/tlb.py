"""A set-associative, true-LRU translation lookaside buffer.

The paper's evaluations use 64/128/256-entry TLBs that are 2-way,
4-way, or fully associative, with a 128-entry fully-associative TLB as
the representative configuration. LRU is exact (not pseudo-LRU): each
set keeps its entries in recency order.

Implementation note: each set is an :class:`collections.OrderedDict`
mapping page -> None. ``move_to_end`` and ``popitem(last=False)`` give
O(1) MRU promotion and LRU eviction with C-speed constants, which keeps
the online MMU (:mod:`repro.tlb.mmu`) cheap per access. The two-phase
filter does not run this class: it computes the same miss stream from
reuse positions (:func:`repro.sim.two_phase.filter_tlb`), and this TLB
is the oracle it is tested against.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from numbers import Integral

from repro.errors import ConfigurationError

#: Pass as ``ways`` to request a fully-associative TLB.
FULLY_ASSOCIATIVE = 0


def check_shape(entries: int, ways: int) -> int:
    """Validate a TLB shape and return its ways per set.

    ``entries`` must be an integer > 0 and ``ways`` an integer >= 0
    (:data:`FULLY_ASSOCIATIVE` for one set) that divides it; booleans
    are not integers here.
    """
    if isinstance(entries, bool) or not isinstance(entries, Integral) or entries <= 0:
        raise ConfigurationError(f"TLB entries must be > 0, got {entries!r}")
    if isinstance(ways, bool) or not isinstance(ways, Integral) or ways < 0:
        raise ConfigurationError(f"ways must be >= 0, got {ways!r}")
    if ways == FULLY_ASSOCIATIVE:
        return int(entries)
    if entries % ways:
        raise ConfigurationError(
            f"entries ({entries}) must be a multiple of ways ({ways})"
        )
    return int(ways)


@dataclass(frozen=True, slots=True)
class TLBAccess:
    """Outcome of a single TLB access.

    Attributes:
        hit: whether the page was already resident.
        evicted: page evicted to make room on a miss, or ``None`` if the
            access hit or a free entry was available.
    """

    hit: bool
    evicted: int | None = None


class TLB:
    """Set-associative TLB with exact LRU replacement.

    Args:
        entries: total number of entries (e.g. 64, 128, 256).
        ways: associativity; :data:`FULLY_ASSOCIATIVE` (0) makes the
            whole TLB one set.

    The TLB stores only page numbers: the simulation never needs real
    physical frames, and translation payloads would change no decision
    any studied mechanism makes.
    """

    def __init__(self, entries: int = 128, ways: int = FULLY_ASSOCIATIVE) -> None:
        ways = check_shape(entries, ways)
        self.entries = entries
        self.ways = ways
        self.num_sets = entries // ways
        self._sets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.hits = 0
        self.misses = 0

    @property
    def label(self) -> str:
        """Short configuration label, e.g. ``128e-FA`` or ``64e-2w``."""
        assoc = "FA" if self.ways == self.entries else f"{self.ways}w"
        return f"{self.entries}e-{assoc}"

    def set_index(self, page: int) -> int:
        """Return the set a page maps to."""
        return page % self.num_sets

    def probe(self, page: int) -> bool:
        """Look up ``page`` without filling; promotes to MRU on a hit."""
        tlb_set = self._sets[page % self.num_sets]
        if page in tlb_set:
            tlb_set.move_to_end(page)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, page: int) -> int | None:
        """Insert ``page`` (assumed absent), returning any evicted page."""
        tlb_set = self._sets[page % self.num_sets]
        evicted = None
        if len(tlb_set) >= self.ways:
            evicted, _ = tlb_set.popitem(last=False)
        tlb_set[page] = None
        return evicted

    def access(self, page: int) -> TLBAccess:
        """Combined probe-and-fill: the common demand-access path.

        On a hit the entry is promoted to MRU; on a miss the page is
        filled (as either a demand fetch or a prefetch-buffer promotion
        would do — both fill identically, which is why the miss stream
        is prefetcher-invariant).
        """
        if self.probe(page):
            return TLBAccess(hit=True)
        return TLBAccess(hit=False, evicted=self.fill(page))

    def __contains__(self, page: int) -> bool:
        """Non-mutating residency check (no LRU update, no stats)."""
        return page in self._sets[page % self.num_sets]

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def resident_pages(self) -> list[int]:
        """All resident pages, set by set, LRU -> MRU within each set."""
        pages: list[int] = []
        for tlb_set in self._sets:
            pages.extend(tlb_set)
        return pages

    def flush(self) -> int:
        """Invalidate everything (context switch); returns entries dropped."""
        dropped = len(self)
        for tlb_set in self._sets:
            tlb_set.clear()
        return dropped

    @property
    def miss_rate(self) -> float:
        """Misses per access so far."""
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    def reset_stats(self) -> None:
        """Zero the hit/miss counters without touching contents."""
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:
        return f"TLB({self.label}, resident={len(self)}, miss_rate={self.miss_rate:.4f})"
