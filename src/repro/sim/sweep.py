"""Generic parameter-sweep helpers (sensitivity studies, ablations).

The figure-specific sweeps live in :mod:`repro.analysis.experiments`;
this module holds the reusable pieces: a cartesian sweep driver and the
page-size rescaling used by the superpage sensitivity ablation (the
paper studies page sizes in Section 3.3 / TR [19]).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.mem.address import DEFAULT_PAGE_SHIFT, page_shift_for_size
from repro.mem.trace import ReferenceTrace
from repro.prefetch.base import Prefetcher
from repro.sim.config import SimulationConfig, TLBConfig
from repro.sim.stats import PrefetchRunStats
from repro.sim.engine import replay

if TYPE_CHECKING:  # repro.run imports this module; avoid the cycle.
    from repro.run.runner import Runner

#: A named way of building a fresh mechanism for each sweep point.
PrefetcherFactory = Callable[[], Prefetcher]


def rescale_trace(trace: ReferenceTrace, page_size: int) -> ReferenceTrace:
    """Re-express a 4 KiB-page trace at a larger page size.

    Larger pages are exact aggregations of 4 KiB pages (every aligned
    2^k group maps to one page), so shifting page numbers right
    reproduces precisely the reference stream an MMU with that page
    size would see. Adjacent runs that now land on the same page are
    merged to restore RLE compression.
    """
    shift = page_shift_for_size(page_size) - DEFAULT_PAGE_SHIFT
    if shift == 0:
        return trace
    pages = trace.pages >> shift
    # Merge adjacent same-page runs (same pc kept from the first run).
    boundaries = np.flatnonzero(np.diff(pages) != 0) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(pages)]))
    cumulative = np.concatenate(([0], np.cumsum(trace.counts)))
    merged_counts = cumulative[ends] - cumulative[starts]
    return ReferenceTrace(
        trace.pcs[starts],
        pages[starts],
        merged_counts,
        name=f"{trace.name}@{page_size // 1024}K",
    )


def sweep(
    traces: Iterable[ReferenceTrace],
    factories: Sequence[tuple[str, PrefetcherFactory]],
    configs: Sequence[SimulationConfig] | None = None,
    runner: "Runner | None" = None,
) -> list[PrefetchRunStats]:
    """Run every (trace, mechanism factory, config) combination.

    Each sweep point gets a *fresh* mechanism from its factory (no state
    leaks between points) but shares the filtered miss stream for its
    (trace, TLB) pair through the runner's process-wide cache — traces
    are keyed by content, so repeating a sweep (or overlapping it with
    a RunSpec batch over the same data) never refilters.

    This entry point exists for *ad-hoc* traces and factory callables;
    registry workloads are better expressed as
    :class:`~repro.run.spec.RunSpec` batches, which can also execute in
    parallel. Returns the flat list of per-run statistics; each run's
    ``extra`` dict records the sweep coordinates.
    """
    from repro.run.runner import Runner

    runner = runner if runner is not None else Runner()
    configs = list(configs) if configs is not None else [SimulationConfig()]
    results: list[PrefetchRunStats] = []
    for trace in traces:
        for config in configs:
            miss_trace = runner.miss_stream(
                trace, tlb=config.tlb, warmup_fraction=config.warmup_fraction
            )
            for label, factory in factories:
                stats = replay(
                    miss_trace,
                    factory(),
                    buffer_entries=config.buffer_entries,
                    max_prefetches_per_miss=config.max_prefetches_per_miss,
                )
                stats.extra["factory"] = label
                stats.extra["tlb"] = config.tlb.label
                stats.extra["buffer"] = config.buffer_entries
                results.append(stats)
    return results


def page_size_sweep(
    trace: ReferenceTrace,
    factory: PrefetcherFactory,
    page_sizes: Sequence[int] = (4096, 8192, 16384, 65536),
    tlb: TLBConfig | None = None,
    buffer_entries: int = 16,
) -> dict[int, PrefetchRunStats]:
    """Evaluate one mechanism across page sizes (superpage ablation).

    Returns ``page_size -> stats``. Bigger pages shrink the footprint
    in pages (fewer misses) while preserving pattern structure, so a
    robust mechanism's accuracy should be roughly stable — the paper's
    claim that DP "is able to make good predictions across different
    TLB configurations and page sizes".
    """
    from repro.run.runner import Runner

    runner = Runner()
    results: dict[int, PrefetchRunStats] = {}
    for page_size in page_sizes:
        miss_trace = runner.miss_stream(
            trace, tlb=tlb or TLBConfig(), page_size=page_size
        )
        stats = replay(miss_trace, factory(), buffer_entries=buffer_entries)
        stats.extra["page_size"] = page_size
        results[page_size] = stats
    return results
