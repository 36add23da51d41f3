"""Extension: Distance Prefetching indexed by the last *two* distances.

The second of the paper's Section 4 "ongoing work" directions ("using
... several previous distances"). Keying on the pair (previous distance,
current distance) gives second-order history: stride cycles that look
ambiguous to first-order DP — e.g. the distance string 1,2,1,3,1,2,1,3
where "after 1" is sometimes 2 and sometimes 3 — become deterministic
when the predecessor distance is part of the key. The cost is slower
warm-up (each pair must be seen once) and more distinct keys competing
for the same number of rows.
"""

from __future__ import annotations

from repro.core.pc_distance import _DISTANCE_BITS, _DISTANCE_MASK, _FOLD
from repro.core.prediction_table import SlotTablePrefetcher


def pack_distance_pair(first: int, second: int) -> int:
    """Combine two signed distances into one injective table key."""
    return ((first & _DISTANCE_MASK) << _DISTANCE_BITS) | (
        (second ^ (first * _FOLD)) & _DISTANCE_MASK
    )


class DistancePairPrefetcher(SlotTablePrefetcher):
    """DP variant keyed by the two most recent distances.

    A miss is keyed once two distances are known; before that it still
    advances the previous-distance register.
    """

    name = "DP-2"
    registers = ("_prev_page", "_prev_distance", "_prev_key")
    row_contents = "Distance-pair Tag, {slots} Prediction Distances"
    index_source = "2 consecutive Distances"
    _prev_distance: int | None
    _prev_key: int | None

    def _keys(self, pc: int, page: int) -> tuple[int, int | None, int] | None:
        distance = self._distance(page)
        if distance is None:
            return None
        prev_distance = self._prev_distance
        self._prev_distance = distance
        if prev_distance is None:
            return None
        key = pack_distance_pair(prev_distance, distance)
        prev_key = self._prev_key
        self._prev_key = key
        return key, prev_key, distance
