"""Distance Prefetching (DP) — the paper's contribution (Section 2.5).

DP keeps track of *differences between successive missed addresses*
("distances"), not the addresses themselves. The prediction table is
indexed by the current distance; each row's ``s`` slots hold the
distances that followed this distance on earlier misses. On a miss:

1. Compute the current distance = missed page − previously missed page.
2. Index the table by that distance; on a tag hit, prefetch
   ``missed page + d`` for each predicted distance ``d`` in the slots.
3. Record the current distance in a slot of the *previous* distance's
   row (LRU within the slots), so the change between strides itself
   becomes the learned pattern.
4. The current distance becomes the previous distance.

Why this wins (the paper's Section 1 taxonomy): a pure sequential scan
collapses to one row ("1 follows 1"); a repeating stride cycle such as
the reference string 1, 2, 4, 5, 7, 8 collapses to two rows ("1 follows
2", "2 follows 1") where MP would need a row per page; and when strides
are irregular but their *changes* repeat, the history of distances still
predicts — giving DP stride-class space costs with history-class
coverage.
"""

from __future__ import annotations

from repro.core.prediction_table import SlotTablePrefetcher


class DistancePrefetcher(SlotTablePrefetcher):
    """Distance-indexed prediction over the TLB miss stream.

    The table walk is :class:`SlotTablePrefetcher`'s; DP keys it by the
    current distance and records that distance in the previous
    distance's row. A direct-mapped 32–256-row table suffices per the
    paper's sensitivity study.
    """

    name = "DP"
    registers = ("_prev_page", "_prev_distance")
    row_contents = "Distance Tag, {slots} Prediction Distances"
    index_source = "Distance"
    _prev_distance: int | None

    def _keys(self, pc: int, page: int) -> tuple[int, int | None, int] | None:
        distance = self._distance(page)
        if distance is None:
            return None
        prev_distance = self._prev_distance
        self._prev_distance = distance
        return distance, prev_distance, distance
