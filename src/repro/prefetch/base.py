"""Common interface of all TLB prefetch mechanisms.

Every mechanism observes exactly one event: a TLB miss. The paper
(Section 2) deliberately places all prefetch logic after the TLB, so a
mechanism sees ``(pc, missed page, evicted page)`` per miss plus whether
the miss was satisfied by the prefetch buffer, and answers with the list
of pages to prefetch. The simulation engine owns the prefetch buffer;
mechanisms never touch it directly.

Per-miss *overhead* memory operations (pointer maintenance in RP) are
reported through :attr:`Prefetcher.last_overhead_ops` so the functional
engine stays allocation-free in its hot loop while the cycle engine can
charge the traffic.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

#: Sentinel in the ``evicted`` argument meaning "nothing was evicted".
NO_EVICTION = -1


@dataclass(frozen=True)
class HardwareDescription:
    """Static hardware properties of a mechanism — the paper's Table 1.

    Attributes:
        name: short mechanism name (``ASP``, ``MP``, ``RP``, ``DP``...).
        rows: description of row count (``r`` or "No. of PTEs").
        row_contents: what one row stores.
        location: ``On-Chip`` or ``In Memory``.
        index_source: what the table is indexed by.
        memory_ops_per_miss: non-prefetch memory operations per miss.
        max_prefetches: most prefetches a single miss can trigger.
    """

    name: str
    rows: str
    row_contents: str
    location: str
    index_source: str
    memory_ops_per_miss: int
    max_prefetches: str


class Prefetcher(abc.ABC):
    """Abstract TLB prefetch mechanism driven by the miss stream.

    Subclasses implement :meth:`on_miss` and :meth:`describe_hardware`,
    and call ``super().__init__()``.

    Attributes:
        last_overhead_ops: overhead (non-prefetch) memory operations the
            most recent :meth:`on_miss` performed; 0 for all on-chip
            mechanisms, up to 4 for RP.
        prefetches_issued: cumulative pages returned for prefetch.
        overhead_ops_total: cumulative overhead memory operations.
    """

    #: Short mechanism name; subclasses override.
    name: str = "?"

    def __init__(self) -> None:
        self.last_overhead_ops = 0
        self.prefetches_issued = 0
        self.overhead_ops_total = 0

    @abc.abstractmethod
    def on_miss(self, pc: int, page: int, evicted: int, pb_hit: bool) -> list[int]:
        """React to a TLB miss; return the pages to prefetch.

        Args:
            pc: program counter of the missing reference.
            page: virtual page that missed in the TLB.
            evicted: page the TLB evicted for this fill, or
                :data:`NO_EVICTION`.
            pb_hit: True when the miss was satisfied from the prefetch
                buffer (a correct earlier prediction) — the trigger for
                tagged-sequential re-prefetch and for adaptivity.

        Returns:
            Pages to bring into the prefetch buffer, highest priority
            first. The engine truncates to the mechanism's slot bound.
        """

    @abc.abstractmethod
    def describe_hardware(self) -> HardwareDescription:
        """Static hardware properties for the Table 1 comparison."""

    def account(self, prefetches: list[int], overhead_ops: int = 0) -> list[int]:
        """Record issue statistics; subclasses call this before returning."""
        self.last_overhead_ops = overhead_ops
        self.overhead_ops_total += overhead_ops
        self.prefetches_issued += len(prefetches)
        return prefetches

    def flush(self) -> None:
        """Drop on-chip prediction state (context switch). Default no-op."""

    def has_prediction_state(self) -> bool:
        """Whether the instance has learned anything since construction.

        Stateful subclasses override this to report *any* trained
        state — tables, history registers, adaptation counters — not
        just statistics. The one-pass batch replay
        (:func:`repro.sim.batchpath.replay_batch`) builds mechanism
        state from scratch, so it only accepts instances where this is
        False.
        """
        return False

    def reset_stats(self) -> None:
        """Zero cumulative counters without touching prediction state."""
        self.last_overhead_ops = 0
        self.prefetches_issued = 0
        self.overhead_ops_total = 0

    @property
    def label(self) -> str:
        """Display label; subclasses append their configuration."""
        return self.name

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.label})"
