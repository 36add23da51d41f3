"""TLB prefetching mechanisms (the paper's Section 2).

Baselines adapted from the cache-prefetching literature:

- :mod:`repro.prefetch.sequential` — tagged Sequential Prefetching (SP).
- :mod:`repro.prefetch.stride` — Arbitrary Stride Prefetching (ASP,
  Chen & Baer's PC-indexed reference prediction table).
- :mod:`repro.prefetch.markov` — Markov Prefetching (MP), one key rule
  over the slot-table walk it shares with DP
  (:class:`~repro.core.prediction_table.SlotTablePrefetcher`).
- :mod:`repro.prefetch.adaptive_sequential` — Dahlgren–Stenström
  adaptive sequential prefetching (an SP variation the paper cites).

The TLB-specific prior work:

- :mod:`repro.prefetch.recency` — Recency Prefetching (RP).

The paper's contribution, Distance Prefetching (DP), lives in
:mod:`repro.core.distance` with its two extensions; the factory here
knows how to build all three.
"""

from repro.prefetch.adaptive_sequential import AdaptiveSequentialPrefetcher
from repro.prefetch.base import HardwareDescription, Prefetcher
from repro.prefetch.factory import (
    PREFETCHER_NAMES,
    create_prefetcher,
    default_prefetcher_suite,
)
from repro.prefetch.markov import MarkovPrefetcher
from repro.prefetch.null import NullPrefetcher
from repro.prefetch.recency import RecencyPrefetcher
from repro.prefetch.sequential import SequentialPrefetcher
from repro.prefetch.stride import ArbitraryStridePrefetcher

__all__ = [
    "AdaptiveSequentialPrefetcher",
    "ArbitraryStridePrefetcher",
    "HardwareDescription",
    "MarkovPrefetcher",
    "NullPrefetcher",
    "PREFETCHER_NAMES",
    "Prefetcher",
    "RecencyPrefetcher",
    "SequentialPrefetcher",
    "create_prefetcher",
    "default_prefetcher_suite",
]
