"""Markov Prefetching (MP) — the paper's Section 2.3.

Joseph & Grunwald's Markov predictor [16], adapted to the TLB miss
stream. The prediction table approximates a Markov state diagram: it is
indexed by the missed virtual page, and each row's ``s`` slots hold the
pages that missed immediately after this page on previous occasions
(LRU-ordered, so the slots approximate the highest-probability outgoing
transitions).

Per the paper: on a miss, the table is indexed by the missing address;
if absent, a row is allocated with empty slots. The current miss is
also recorded in a free slot of the *previous* miss's row (LRU eviction
when full). When the lookup hits, prefetches are issued for all of the
row's slots.

MP's weakness — reproduced faithfully here — is that it needs a row per
page in the working set, so small on-chip tables thrash for large
footprints (the paper's galgel/art/mesa observation), while RP escapes
by keeping its history in memory.
"""

from __future__ import annotations

from repro.core.prediction_table import SlotTablePrefetcher


class MarkovPrefetcher(SlotTablePrefetcher):
    """Page-indexed Markov prediction over the TLB miss stream.

    The table walk is :class:`SlotTablePrefetcher`'s; MP keys it by the
    missed page, looks up on every miss (the first included), and its
    slots hold pages, issued as they are.
    """

    name = "MP"
    row_contents = "Page # Tag, {slots} Prediction Page #s"
    index_source = "Page #"

    def _keys(self, pc: int, page: int) -> tuple[int, int | None, int]:
        prev_page = self._prev_page
        self._prev_page = page
        # A page is never its own successor.
        return page, (prev_page if prev_page != page else None), page

    def _targets(self, page: int, values: list[int]) -> list[int]:
        return values
