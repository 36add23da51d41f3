"""Two-phase fast simulation: TLB filter once, replay misses per scheme.

The paper's organization makes prefetching invisible to the TLB: a
prefetch-buffer hit inserts the entry into the TLB exactly as a demand
fetch would, so TLB contents — and therefore the miss stream — are
identical under every mechanism (and under none). That invariance lets
us split simulation into:

1. :func:`filter_tlb` — compute the TLB's miss stream once per
   (workload, TLB shape): every miss with its PC, evicted page, and
   position; and
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
from repro.tlb.tlb import check_shape


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

    The stream is exactly the one a true-LRU :class:`~repro.tlb.TLB`
    of N ways per set reports run by run. It is computed from each run's
    previous and next use of its page, with positions counted over the
    runs of the page's set only. Three LRU facts (the inclusion property
    of Mattson et al., 1970) decide every run:

    1. A set holds its N most recently used distinct pages, so a run at
       most N positions after its page's previous use hits: no more
       than N - 1 other pages came in between.
    2. Victims leave in order of last use, and that order only moves
       forward. So a page is resident iff its previous use lies at or
       after ``c``: one past the last victim's last-use position, or
       the set's first position before the set has evicted anything.
    3. The victim of an eviction at run ``i`` is the least recently
       used resident page: the first position ``k >= c`` whose next use
       comes after ``i``. ``c`` then moves to ``k + 1``. The first N
       misses of a set fill free entries and evict nothing.

    Fact 1 settles most runs with array operations. One pass over the
    rest, set by set, applies facts 2 and 3 with a pointer that only
    moves forward.
    """
    tlb_config = tlb_config or TLBConfig()
    ways = check_shape(tlb_config.entries, tlb_config.ways)
    num_sets = tlb_config.entries // ways
    runs = len(trace.pages)

    # Set-major order: each set's runs contiguous, in trace order.
    # Index arrays are int32 to keep the filter's peak memory down.
    if num_sets == 1:
        order = None
        set_pages = trace.pages
        set_bounds = [0, runs]
    else:
        sets = trace.pages % num_sets
        order = np.argsort(sets, kind="stable").astype(np.int32)
        set_pages = trace.pages[order]
        set_bounds = [0] + np.cumsum(np.bincount(sets, minlength=num_sets)).tolist()
        del sets
    # Each position's previous and next use of its page (-1 / runs if none).
    by_page = np.argsort(set_pages, kind="stable").astype(np.int32)
    reuse = set_pages[by_page[1:]] == set_pages[by_page[:-1]]
    earlier = by_page[:-1][reuse]
    later = by_page[1:][reuse]
    del by_page, reuse
    prev = np.full(runs, -1, dtype=np.int32)
    prev[later] = earlier
    nxt = np.full(runs, runs, dtype=np.int32)
    nxt[earlier] = later
    del earlier, later

    # Fact 1 leaves first uses and reuses more than N positions apart.
    open_runs = np.flatnonzero(
        (prev < 0) | (np.arange(runs, dtype=np.int32) - prev > ways)
    ).astype(np.int32)
    open_prev = prev[open_runs]
    del prev
    open_bounds = np.searchsorted(open_runs, set_bounds).tolist()

    # Per position: -2 if it hits, else its victim's position or -1.
    victim_of = np.full(runs, -2, dtype=np.int32)
    out = memoryview(victim_of)
    next_use = memoryview(nxt)
    open_mv = memoryview(open_runs)
    prev_mv = memoryview(open_prev)
    for s in range(num_sets):
        lo, hi = open_bounds[s], open_bounds[s + 1]
        c = set_bounds[s]
        free = ways
        for i, p in zip(open_mv[lo:hi], prev_mv[lo:hi]):
            if p >= c:
                continue
            if free:
                free -= 1
                out[i] = -1
                continue
            k = c
            while next_use[k] <= i:
                k += 1
            out[i] = k
            c = k + 1
    del out, next_use, open_mv, prev_mv, nxt, open_runs, open_prev

    if order is not None:
        # Back to trace order; victims stay set-major positions.
        in_trace_order = np.empty_like(victim_of)
        in_trace_order[order] = victim_of
        victim_of = in_trace_order
    miss_at = np.flatnonzero(victim_of >= -1)
    victim_at = victim_of[miss_at]
    del victim_of
    evicted = np.where(victim_at >= 0, set_pages[victim_at], NO_EVICTION)
    ref_index = np.cumsum(trace.counts)[miss_at] - trace.counts[miss_at]

    warmup_limit = int(trace.total_references * warmup_fraction)
    return MissTrace(
        pcs=trace.pcs[miss_at],
        pages=trace.pages[miss_at],
        evicted=evicted,
        ref_index=ref_index,
        total_references=trace.total_references,
        warmup_misses=int(np.searchsorted(ref_index, warmup_limit)),
        name=trace.name,
        tlb_label=tlb_config.label,
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

    def snapshot(self, offset: int, issued_before: int, overhead_before: int):
        """The session snapshot of the live objects, built field by field."""
        from repro.ckpt.session import SessionSnapshot
        from repro.ckpt.snapshots import snapshot_buffer, snapshot_prefetcher

        return SessionSnapshot(
            offset=offset,
            pb_hits_measured=self.pb_hits,
            issued_before=issued_before,
            overhead_before=overhead_before,
            max_prefetches_per_miss=self.max_prefetches_per_miss,
            mechanism=snapshot_prefetcher(self.prefetcher),
            buffer=snapshot_buffer(self.buffer),
        )

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
    engine: str = "auto",
) -> PrefetchRunStats:
    """Convenience wrapper: filter then replay under one config.

    ``engine`` selects the replay implementation (see
    :mod:`repro.sim.engine`): ``"auto"`` (default; the compiled engine
    whenever it supports the mechanism) or ``"reference"``. Both
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
