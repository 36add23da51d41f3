"""Extension: Distance Prefetching indexed by (PC, distance).

The paper's Section 4 lists "using other information (PC, several
previous distances, etc.)" as ongoing work. This variant concatenates
the missing instruction's PC with the current distance to form the table
key, so two instructions that happen to produce the same distance no
longer alias into one history — at the cost of needing separate rows
(and separate warm-up) per instruction.

The key packs the distance into a fixed-width two's-complement field
below the PC, which is what indexing/tagging hardware would do.
"""

from __future__ import annotations

from repro.core.prediction_table import SlotTablePrefetcher

#: Width of the two's-complement distance field inside a packed key.
_DISTANCE_BITS = 24
_DISTANCE_MASK = (1 << _DISTANCE_BITS) - 1
#: Odd multiplier folding the high field (the PC here, the first
#: distance in :mod:`repro.core.distance_pair`) into the low (set-index)
#: bits so direct-mapped tables don't alias every key with the same
#: distance onto one set. The fold is injective: the high field also
#: occupies the high bits, so the XOR can always be undone.
_FOLD = 0x9E37


def pack_pc_distance(pc: int, distance: int) -> int:
    """Combine a PC and a signed distance into one injective table key."""
    return (pc << _DISTANCE_BITS) | ((distance ^ (pc * _FOLD)) & _DISTANCE_MASK)


class PCDistancePrefetcher(SlotTablePrefetcher):
    """DP variant keyed by (PC, distance) instead of distance alone.

    Each row still records the distance that followed, so only the key
    differs from :class:`~repro.core.distance.DistancePrefetcher`.
    """

    name = "DP-PC"
    registers = ("_prev_page", "_prev_key")
    row_contents = "PC+Distance Tag, {slots} Prediction Distances"
    index_source = "PC, Distance"
    _prev_key: int | None

    def _keys(self, pc: int, page: int) -> tuple[int, int | None, int] | None:
        distance = self._distance(page)
        if distance is None:
            return None
        key = pack_pc_distance(pc, distance)
        prev_key = self._prev_key
        self._prev_key = key
        return key, prev_key, distance
