"""The paper's primary contribution: Distance Prefetching and its table.

- :mod:`repro.core.prediction_table` — the generic ``r``-row, ``s``-slot
  set-associative prediction table all on-chip mechanisms share, and
  ``SlotTablePrefetcher``, the one table walk of MP and the three DP
  mechanisms below (each states only its key rule).
- :mod:`repro.core.distance` — Distance Prefetching (DP), Section 2.5.
- :mod:`repro.core.pc_distance` — extension: DP indexed by (PC, distance)
  (the paper's Section 4 "ongoing work").
- :mod:`repro.core.distance_pair` — extension: DP indexed by the last two
  distances.
"""

# repro.prefetch (MP, the factory) imports the mechanisms here, which
# import repro.prefetch.base: load repro.prefetch first, so each module
# of this package is complete before the other package asks for it.
import repro.prefetch  # noqa: F401
from repro.core.distance import DistancePrefetcher
from repro.core.distance_pair import DistancePairPrefetcher
from repro.core.pc_distance import PCDistancePrefetcher
from repro.core.prediction_table import (
    DIRECT_MAPPED,
    FULLY_ASSOCIATIVE_TABLE,
    PredictionTable,
    SlotList,
)

__all__ = [
    "DIRECT_MAPPED",
    "DistancePairPrefetcher",
    "DistancePrefetcher",
    "FULLY_ASSOCIATIVE_TABLE",
    "PCDistancePrefetcher",
    "PredictionTable",
    "SlotList",
]
