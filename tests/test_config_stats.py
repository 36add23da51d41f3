"""Tests for simulation configuration records and run statistics."""

import pytest

from repro.errors import ConfigurationError
from repro.mem.trace import ReferenceTrace
from repro.sim.config import PAPER_DEFAULT, SimulationConfig, TLBConfig
from repro.sim.two_phase import filter_tlb
from repro.tlb.tlb import TLB
from repro.sim.stats import PrefetchRunStats


class TestTLBConfig:
    def test_paper_default(self):
        assert PAPER_DEFAULT.tlb.entries == 128
        assert PAPER_DEFAULT.tlb.label == "128e-FA"
        assert PAPER_DEFAULT.buffer_entries == 16

    def test_build_creates_fresh_tlb(self):
        config = TLBConfig(entries=64, ways=2)
        tlb_a = config.build()
        tlb_b = config.build()
        assert tlb_a is not tlb_b
        assert tlb_a.entries == 64
        assert tlb_a.ways == 2

    def test_label_for_set_associative(self):
        assert TLBConfig(entries=256, ways=4).label == "256e-4w"

    @pytest.mark.parametrize(
        "entries, ways, message",
        [
            (100, 3, "multiple of ways"),
            (8, -1, "ways must be >= 0"),
            (0, 0, "entries must be > 0"),
            (-4, 2, "entries must be > 0"),
            (True, 0, "entries must be > 0"),
            (8, True, "ways must be >= 0"),
            (8.0, 0, "entries must be > 0"),
            (8, 2.0, "ways must be >= 0"),
            ("8", 0, "entries must be > 0"),
        ],
    )
    def test_invalid_shape_is_rejected_at_construction(self, entries, ways, message):
        with pytest.raises(ConfigurationError, match=message):
            TLBConfig(entries=entries, ways=ways)

    def test_invalid_shape_messages_match_the_tlb(self):
        for entries, ways in [(100, 3), (8, -1), (0, 1)]:
            with pytest.raises(ConfigurationError) as config_error:
                TLBConfig(entries=entries, ways=ways)
            with pytest.raises(ConfigurationError) as tlb_error:
                TLB(entries=entries, ways=ways)
            assert str(config_error.value) == str(tlb_error.value)

    def test_filter_rejects_an_invalid_shape(self):
        trace = ReferenceTrace([0, 0], [1, 2], [1, 1])
        with pytest.raises(ConfigurationError, match="multiple of ways"):
            filter_tlb(trace, TLBConfig(100, 3))


class TestSimulationConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"buffer_entries": 0},
            {"warmup_fraction": -0.1},
            {"warmup_fraction": 1.0},
            {"max_prefetches_per_miss": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            SimulationConfig(**kwargs)


def _stats(**overrides) -> PrefetchRunStats:
    values = dict(
        workload="w",
        mechanism="DP",
        tlb_label="128e-FA",
        total_references=1000,
        tlb_misses=100,
        measured_misses=90,
        pb_hits=45,
        prefetches_issued=200,
        buffer_inserted=150,
        buffer_refreshed=30,
        buffer_evicted_unused=60,
        overhead_memory_ops=0,
        prefetch_fetch_ops=150,
    )
    values.update(overrides)
    return PrefetchRunStats(**values)


class TestPrefetchRunStats:
    def test_derived_metrics(self):
        stats = _stats()
        assert stats.prediction_accuracy == pytest.approx(0.5)
        assert stats.miss_rate == pytest.approx(0.1)
        assert stats.memory_ops_total == 150
        assert stats.memory_ops_per_miss == pytest.approx(1.5)
        assert stats.buffer_waste_fraction == pytest.approx(0.4)

    def test_zero_denominators(self):
        stats = _stats(
            total_references=0, tlb_misses=0, measured_misses=0, pb_hits=0,
            buffer_inserted=0, buffer_evicted_unused=0,
        )
        assert stats.prediction_accuracy == 0.0
        assert stats.miss_rate == 0.0
        assert stats.memory_ops_per_miss == 0.0
        assert stats.buffer_waste_fraction == 0.0

    def test_one_line_contains_key_fields(self):
        text = _stats().one_line()
        assert "w" in text
        assert "DP" in text
        assert "acc=" in text
        assert "0.500" in text
