"""Two-phase fast simulation: TLB filter once, replay misses per scheme.

The paper's organization makes prefetching invisible to the TLB: a
prefetch-buffer hit inserts the entry into the TLB exactly as a demand
fetch would, so TLB contents — and therefore the miss stream — are
identical under every mechanism (and under none). That invariance lets
us split simulation into:

1. :func:`filter_tlb` — run the reference trace through the TLB once
   per (workload, TLB shape) and record every miss with its PC, evicted
   page, and position; and
2. :func:`replay_prefetcher` — drive each mechanism + prefetch buffer
   over that recorded miss stream.

With ~20 mechanism configurations per workload (the Figure 7 sweep)
this saves ~95% of simulation work. ``tests/test_two_phase``
property-tests that both paths report identical statistics.

These are the low-level building blocks; batch execution — with the
miss streams cached process-wide and replays optionally fanned out to
worker processes — goes through :class:`repro.run.Runner`.
"""

from __future__ import annotations

import numpy as np

from repro.mem.trace import NO_EVICTION, MissTrace, ReferenceTrace
from repro.prefetch.base import Prefetcher
from repro.sim.config import SimulationConfig, TLBConfig
from repro.sim.stats import PrefetchRunStats
from repro.tlb.prefetch_buffer import PrefetchBuffer


def filter_tlb(
    trace: ReferenceTrace,
    tlb_config: TLBConfig | None = None,
    warmup_fraction: float = 0.0,
) -> MissTrace:
    """Phase 1: produce the TLB miss stream for a reference trace.

    Args:
        trace: RLE page reference stream.
        tlb_config: TLB shape (paper default: 128-entry fully assoc.).
        warmup_fraction: leading fraction of references whose misses
            are flagged as warm-up (they still train mechanisms during
            replay but are excluded from accuracy).
    """
    tlb_config = tlb_config or TLBConfig()
    tlb = tlb_config.build()

    miss_pcs: list[int] = []
    miss_pages: list[int] = []
    miss_evicted: list[int] = []
    miss_ref_index: list[int] = []

    references_seen = 0
    pcs, pages, counts = trace.as_lists()
    # Local bindings keep the hot loop free of attribute lookups.
    probe = tlb.probe
    fill = tlb.fill
    for pc, page, count in zip(pcs, pages, counts):
        if not probe(page):
            evicted = fill(page)
            miss_pcs.append(pc)
            miss_pages.append(page)
            miss_evicted.append(NO_EVICTION if evicted is None else evicted)
            miss_ref_index.append(references_seen)
        references_seen += count

    warmup_limit = int(trace.total_references * warmup_fraction)
    warmup_misses = int(np.searchsorted(np.asarray(miss_ref_index), warmup_limit))
    return MissTrace(
        pcs=np.asarray(miss_pcs, dtype=np.int64),
        pages=np.asarray(miss_pages, dtype=np.int64),
        evicted=np.asarray(miss_evicted, dtype=np.int64),
        ref_index=np.asarray(miss_ref_index, dtype=np.int64),
        total_references=trace.total_references,
        warmup_misses=warmup_misses,
        name=trace.name,
        tlb_label=tlb.label,
    )


def replay_stats(
    miss_trace: MissTrace,
    label: str,
    counters: tuple[int, int, int, int, int, int],
    issued_before: int = 0,
    overhead_before: int = 0,
) -> PrefetchRunStats:
    """One run's statistics from a replay's counters.

    ``counters`` is ``(pb_hits, prefetches_issued, overhead_ops_total,
    inserted, refreshed, evicted_unused)``. Mechanism counters are
    cumulative over an instance's lifetime, so the values they held
    before this run are subtracted: a reused (pre-trained) instance
    reports only this run's activity.
    """
    pb_hits, issued, overhead, inserted, refreshed, evicted_unused = counters
    return PrefetchRunStats(
        workload=miss_trace.name,
        mechanism=label,
        tlb_label=miss_trace.tlb_label,
        total_references=miss_trace.total_references,
        tlb_misses=miss_trace.num_misses,
        measured_misses=miss_trace.measured_misses,
        pb_hits=pb_hits,
        prefetches_issued=issued - issued_before,
        buffer_inserted=inserted,
        buffer_refreshed=refreshed,
        buffer_evicted_unused=evicted_unused,
        overhead_memory_ops=overhead - overhead_before,
        # A prefetch already buffered is coalesced, costing no new fetch.
        prefetch_fetch_ops=inserted,
    )


class ReplayWindow:
    """Phase 2 over live objects, one window of the miss stream at a time.

    Holds a mechanism and a prefetch buffer; :meth:`run` replays entries
    ``[start, stop)``. The warm-up boundary is compared with the
    *global* index, so any chunking of a stream adds up to the one-shot
    replay. This is the reference engine's per-miss body, shared by
    :func:`replay_prefetcher` and by suspendable sessions over
    mechanisms the compiled engine has no loop for.
    """

    def __init__(
        self,
        miss_trace: MissTrace,
        prefetcher: Prefetcher,
        buffer: PrefetchBuffer,
        max_prefetches_per_miss: int = 0,
        pb_hits: int = 0,
    ) -> None:
        self.miss_trace = miss_trace
        self.prefetcher = prefetcher
        self.buffer = buffer
        self.max_prefetches_per_miss = max_prefetches_per_miss
        #: Measured (post-warm-up) prefetch-buffer hits so far.
        self.pb_hits = pb_hits

    def run(self, start: int, stop: int) -> None:
        """Probe the buffer (removing on hit), inform the mechanism,
        insert its prefetches — for every miss in ``[start, stop)``."""
        pcs, pages, evicted, _ = self.miss_trace.as_lists()
        warmup = self.miss_trace.warmup_misses
        clamp = self.max_prefetches_per_miss
        pb_hits = self.pb_hits
        lookup_remove = self.buffer.lookup_remove
        insert = self.buffer.insert
        on_miss = self.prefetcher.on_miss
        for index in range(start, stop):
            page = pages[index]
            pb_hit = lookup_remove(page)
            if pb_hit and index >= warmup:
                pb_hits += 1
            prefetches = on_miss(pcs[index], page, evicted[index], pb_hit)
            if clamp and len(prefetches) > clamp:
                prefetches = prefetches[:clamp]
            for target in prefetches:
                insert(target)
        self.pb_hits = pb_hits

    def counters(self) -> tuple[int, int, int, int, int, int]:
        """The :func:`replay_stats` counters, read off the live objects."""
        prefetcher, buffer = self.prefetcher, self.buffer
        return (
            self.pb_hits,
            prefetcher.prefetches_issued,
            prefetcher.overhead_ops_total,
            buffer.inserted,
            buffer.refreshed,
            buffer.evicted_unused,
        )

    def mechanism_snapshot(self):
        from repro.ckpt.snapshots import snapshot_prefetcher

        return snapshot_prefetcher(self.prefetcher)

    def buffer_snapshot(self):
        from repro.ckpt.snapshots import snapshot_buffer

        return snapshot_buffer(self.buffer)

    def write_back(self, prefetcher: Prefetcher) -> None:
        """Nothing to do: the window trains the live instance as it runs."""


def replay_prefetcher(
    miss_trace: MissTrace,
    prefetcher: Prefetcher,
    buffer_entries: int = 16,
    max_prefetches_per_miss: int = 0,
) -> PrefetchRunStats:
    """Phase 2: run one mechanism over a recorded miss stream.

    Semantically identical to the online pipeline: for each miss, probe
    the buffer (removing on hit), inform the mechanism, insert its
    prefetches. This is the reference engine, the oracle every compiled
    replay is checked against.
    """
    issued_before = prefetcher.prefetches_issued
    overhead_before = prefetcher.overhead_ops_total
    window = ReplayWindow(
        miss_trace, prefetcher, PrefetchBuffer(buffer_entries), max_prefetches_per_miss
    )
    window.run(0, len(miss_trace))
    return replay_stats(
        miss_trace, prefetcher.label, window.counters(), issued_before, overhead_before
    )


def evaluate(
    trace: ReferenceTrace,
    prefetcher: Prefetcher,
    config: SimulationConfig | None = None,
    engine: str = "reference",
) -> PrefetchRunStats:
    """Convenience wrapper: filter then replay under one config.

    ``engine`` selects the replay implementation (see
    :mod:`repro.sim.engine`): ``"reference"`` (default), or ``"auto"``
    (the compiled engine; ``"fast"`` and ``"batch"`` are aliases). Both
    engines return bit-identical statistics and train the given
    instance identically.
    """
    config = config or SimulationConfig()
    miss_trace = filter_tlb(trace, config.tlb, config.warmup_fraction)
    # Imported lazily: repro.sim.engine imports this module.
    from repro.sim.engine import replay

    return replay(
        miss_trace,
        prefetcher,
        buffer_entries=config.buffer_entries,
        max_prefetches_per_miss=config.max_prefetches_per_miss,
        engine=engine,
    )
