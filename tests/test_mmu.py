"""Unit tests for the MMU pipeline (paper Figure 1 semantics)."""

from repro.prefetch.null import NullPrefetcher
from repro.prefetch.sequential import SequentialPrefetcher
from repro.sim.config import SimulationConfig, TLBConfig
from repro.sim.functional import build_mmu
from repro.tlb.mmu import MMU, TranslationOutcome
from repro.tlb.prefetch_buffer import PrefetchBuffer
from repro.tlb.tlb import TLB


def _mmu(prefetcher=None, entries=4, buffer_entries=4, clamp=0) -> MMU:
    return MMU(
        TLB(entries=entries),
        PrefetchBuffer(buffer_entries),
        prefetcher or NullPrefetcher(),
        max_prefetches_per_miss=clamp,
    )


class TestPipeline:
    def test_tlb_hit_short_circuits(self):
        mmu = _mmu()
        mmu.translate(0, 1)
        outcome = mmu.translate(0, 1)
        assert outcome is TranslationOutcome.TLB_HIT
        assert mmu.tlb_misses == 1

    def test_demand_miss_fills_tlb(self):
        mmu = _mmu()
        outcome = mmu.translate(0, 1)
        assert outcome is TranslationOutcome.DEMAND_MISS
        assert 1 in mmu.tlb

    def test_buffer_hit_moves_entry_to_tlb(self):
        mmu = _mmu(SequentialPrefetcher())
        mmu.translate(0, 10)          # prefetches 11
        assert 11 in mmu.buffer
        outcome = mmu.translate(0, 11)
        assert outcome is TranslationOutcome.BUFFER_HIT
        assert 11 in mmu.tlb
        assert 11 not in mmu.buffer   # moved over, not copied
        assert mmu.buffer_hits == 1

    def test_buffer_hit_counts_as_tlb_miss(self):
        """Prediction accuracy is per TLB miss: buffer hits are misses
        that were covered, not hits."""
        mmu = _mmu(SequentialPrefetcher())
        mmu.translate(0, 10)
        mmu.translate(0, 11)
        assert mmu.tlb_misses == 2
        assert mmu.prediction_accuracy == 0.5

    def test_prefetch_clamp(self):
        mmu = _mmu(SequentialPrefetcher(degree=4), clamp=2)
        mmu.translate(0, 10)
        assert len(mmu.buffer) == 2

    def test_translate_run_counts_tail_as_hits(self):
        mmu = _mmu()
        mmu.translate_run(0, 1, count=5)
        assert mmu.references == 5
        assert mmu.tlb_misses == 1
        assert mmu.tlb.hits == 4

    def test_context_switch_flush(self):
        from repro.prefetch.markov import MarkovPrefetcher

        mp = MarkovPrefetcher(rows=16)
        mmu = _mmu(mp)
        mmu.translate(0, 1)
        mmu.translate(0, 2)
        mmu.flush_for_context_switch()
        assert len(mmu.tlb) == 0
        assert len(mmu.buffer) == 0
        assert len(mp.table) == 0

    def test_context_switch_can_keep_prediction_state(self):
        from repro.prefetch.markov import MarkovPrefetcher

        mp = MarkovPrefetcher(rows=16)
        mmu = _mmu(mp)
        mmu.translate(0, 1)
        mmu.translate(0, 2)
        mmu.flush_for_context_switch(flush_prediction_state=False)
        assert len(mp.table) > 0


class TestBuildMMU:
    def test_build_from_config(self):
        config = SimulationConfig(
            tlb=TLBConfig(entries=64, ways=2), buffer_entries=32
        )
        mmu = build_mmu(NullPrefetcher(), config)
        assert mmu.tlb.entries == 64
        assert mmu.tlb.ways == 2
        assert mmu.buffer.capacity == 32
