"""The run-length-encoded memory reference unit.

Traces are stored as runs rather than individual references. A run
``(pc, page, count)`` means: the instruction at ``pc`` (and its
neighbours) issued ``count`` consecutive data references that all fall
in virtual page ``page``.

Run-length encoding is *exact* for TLB simulation with LRU replacement:
after the first access of a run the page is the most-recently-used entry
of its set, so the remaining ``count - 1`` accesses hit and do not
change the replacement state. The TLB filter therefore performs one
lookup per run while accounting ``count`` references, which is what
makes simulating multi-million-reference workloads tractable in Python
(the paper simulates one billion instructions per SPEC app; the
``scale`` argument of :func:`repro.workloads.registry.get_trace` sizes
ours).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TraceError


@dataclass(frozen=True, slots=True)
class ReferenceRun:
    """``count`` back-to-back references from ``pc`` to virtual ``page``.

    Attributes:
        pc: synthetic program-counter value of the referencing
            instruction. ASP indexes its prediction table by this.
        page: 4 KiB virtual page number referenced.
        count: number of consecutive references in the run (>= 1).
    """

    pc: int
    page: int
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise TraceError(f"run count must be >= 1, got {self.count}")
        if self.page < 0:
            raise TraceError(f"page must be >= 0, got {self.page}")
        if self.pc < 0:
            raise TraceError(f"pc must be >= 0, got {self.pc}")
