"""Unit tests for the DP indexing extensions (paper Section 4 ongoing work)
and the slot-table walk they share with DP and MP."""

import pytest

from repro.core.distance import DistancePrefetcher
from repro.core.distance_pair import DistancePairPrefetcher, pack_distance_pair
from repro.core.pc_distance import PCDistancePrefetcher, pack_pc_distance
from repro.prefetch.markov import MarkovPrefetcher

from conftest import drive_misses


class TestPCDistance:
    def test_packs_are_injective_for_small_values(self):
        seen = set()
        for pc in (0, 1, 7):
            for distance in (-5, -1, 1, 5):
                seen.add(pack_pc_distance(pc, distance))
        assert len(seen) == 12

    def test_sequential_scan_predicts(self):
        dp = PCDistancePrefetcher(rows=32)
        prefetches = drive_misses(dp, [0, 1, 2, 3, 4], pcs=[7] * 5)
        assert prefetches[3] == [4]
        assert prefetches[4] == [5]

    def test_pc_disambiguates_same_distance(self):
        """Two instructions producing distance 1 with different
        successors do not alias (plain DP would mix their histories)."""
        dp = PCDistancePrefetcher(rows=64, ways=0, slots=1)
        # PC 1: after distance 1 comes distance 10.
        # PC 2: after distance 1 comes distance 20.
        drive_misses(
            dp,
            [0, 1, 11, 100, 101, 121],
            pcs=[1, 1, 1, 2, 2, 2],
        )
        # Revisit PC 1's pattern: at distance 1 predict +10 only.
        prefetches = drive_misses(dp, [200, 201], pcs=[1, 1])
        assert prefetches[1] == [211]

    def test_flush(self):
        dp = PCDistancePrefetcher(rows=32)
        drive_misses(dp, [0, 1, 2, 3])
        dp.flush()
        assert drive_misses(dp, [10, 11, 12])[0] == []

    def test_label(self):
        assert PCDistancePrefetcher(rows=128).label == "DP-PC,128,D"


class TestDistancePair:
    def test_pack_handles_negative_distances(self):
        assert pack_distance_pair(-1, 1) != pack_distance_pair(1, -1)
        assert pack_distance_pair(-1, -1) != pack_distance_pair(1, 1)

    def test_sequential_scan_predicts(self):
        dp = DistancePairPrefetcher(rows=32)
        prefetches = drive_misses(dp, [0, 1, 2, 3, 4, 5])
        # Pair (1,1) must be seen once before predicting.
        assert prefetches[4] == [5]
        assert prefetches[5] == [6]

    def test_second_order_disambiguation(self):
        """A pattern ambiguous to first-order DP — after distance 1
        comes 2 or 3, determined by the *preceding* distance — is fully
        deterministic for the pair index."""
        cycle = [1, 2, 1, 3]  # pairs (1,2)->1, (2,1)->3, (1,3)->1, (3,1)->2
        pages = [0]
        for _ in range(6):
            for delta in cycle:
                pages.append(pages[-1] + delta)
        train, measure = pages[: len(pages) // 2], pages[len(pages) // 2 - 1 :]

        def correct_count(prefetcher) -> int:
            drive_misses(prefetcher, train)
            out = drive_misses(prefetcher, measure)
            return sum(
                1
                for i in range(len(measure) - 1)
                if measure[i + 1] in out[i]
            )

        first_order = correct_count(DistancePrefetcher(rows=64, ways=0, slots=1))
        second_order = correct_count(
            DistancePairPrefetcher(rows=64, ways=0, slots=1)
        )
        # First-order DP flips on the alternating successor of distance
        # 1 (wrong every time with a single slot); the pair index never
        # does. Half the transitions involve that ambiguity.
        assert second_order >= first_order + 3

    def test_flush(self):
        dp = DistancePairPrefetcher(rows=32)
        drive_misses(dp, [0, 1, 2, 3, 4])
        dp.flush()
        assert drive_misses(dp, [10, 11, 12, 13])[:2] == [[], []]

    def test_label(self):
        assert DistancePairPrefetcher(rows=128).label == "DP-2,128,D"


class TestSlotTableWalk:
    @pytest.mark.parametrize(
        "cls, row_contents, index_source",
        [
            (MarkovPrefetcher, "Page # Tag, 3 Prediction Page #s", "Page #"),
            (DistancePrefetcher, "Distance Tag, 3 Prediction Distances", "Distance"),
            (PCDistancePrefetcher, "PC+Distance Tag, 3 Prediction Distances", "PC, Distance"),
            (
                DistancePairPrefetcher,
                "Distance-pair Tag, 3 Prediction Distances",
                "2 consecutive Distances",
            ),
        ],
    )
    def test_table1_row(self, cls, row_contents, index_source):
        desc = cls(slots=3).describe_hardware()
        assert (desc.rows, desc.row_contents, desc.location) == ("r", row_contents, "On-Chip")
        assert (desc.index_source, desc.memory_ops_per_miss) == (index_source, 0)
        assert desc.max_prefetches == "3"

    @pytest.mark.parametrize(
        "cls",
        [MarkovPrefetcher, DistancePrefetcher, PCDistancePrefetcher, DistancePairPrefetcher],
    )
    def test_one_miss_is_state_and_flush_clears_every_register(self, cls):
        prefetcher = cls(rows=16)
        assert not prefetcher.has_prediction_state()
        drive_misses(prefetcher, [5])
        assert prefetcher.has_prediction_state()
        drive_misses(prefetcher, [6, 8, 9])
        prefetcher.flush()
        assert not prefetcher.has_prediction_state()
        assert all(getattr(prefetcher, name) is None for name in prefetcher.registers)
