"""End-to-end integration tests across the full stack.

Each test exercises workload generation -> TLB filtering -> mechanism
replay -> analysis on real library entry points (no internal shortcuts),
asserting cross-cutting invariants rather than module behaviour.
"""

import pytest

from repro import (
    CycleSimConfig,
    NullPrefetcher,
    SimulationConfig,
    TLBConfig,
    create_prefetcher,
    evaluate,
    filter_tlb,
    get_trace,
    normalized_cycles,
    replay_prefetcher,
    simulate_cycles,
)
from repro.analysis.tables import check_table3_shape
from repro.prefetch.factory import PREFETCHER_NAMES


@pytest.fixture(scope="module")
def swim_trace():
    return get_trace("swim", 0.1)


class TestCrossMechanismInvariants:
    def test_all_mechanisms_produce_valid_stats(self, swim_trace):
        for name in PREFETCHER_NAMES:
            stats = evaluate(
                swim_trace, create_prefetcher(name, rows=64), engine="reference"
            )
            assert 0.0 <= stats.prediction_accuracy <= 1.0, name
            assert stats.pb_hits <= stats.measured_misses, name
            assert stats.buffer_inserted <= stats.prefetches_issued, name

    def test_miss_count_identical_across_mechanisms(self, swim_trace):
        counts = {
            name: evaluate(
                swim_trace, create_prefetcher(name, rows=64), engine="reference"
            ).tlb_misses
            for name in PREFETCHER_NAMES
        }
        assert len(set(counts.values())) == 1, counts

    def test_bigger_tlb_fewer_misses(self, swim_trace):
        small = filter_tlb(swim_trace, TLBConfig(entries=64))
        large = filter_tlb(swim_trace, TLBConfig(entries=256))
        assert large.num_misses <= small.num_misses

    def test_lower_associativity_not_better(self, swim_trace):
        """Conflict misses: a 2-way TLB can only miss more than FA."""
        fully = filter_tlb(swim_trace, TLBConfig(entries=128))
        two_way = filter_tlb(swim_trace, TLBConfig(entries=128, ways=2))
        assert two_way.num_misses >= fully.num_misses


class TestBufferSensitivity:
    def test_bigger_buffer_never_hurts_dp(self, swim_trace):
        miss_trace = filter_tlb(swim_trace)
        accuracies = [
            replay_prefetcher(
                miss_trace, create_prefetcher("DP", rows=256), buffer_entries=b
            ).prediction_accuracy
            for b in (4, 16, 64)
        ]
        assert accuracies == sorted(accuracies)


class TestCycleIntegration:
    def test_table3_shape_on_real_workloads(self):
        """The paper's headline Table 3 claim, end to end, small scale."""
        measured = {}
        for app in ("ammp", "mcf"):
            miss_trace = filter_tlb(get_trace(app, 0.15))
            config = CycleSimConfig()
            base = simulate_cycles(miss_trace, NullPrefetcher(), config)
            rp = simulate_cycles(miss_trace, create_prefetcher("RP"), config)
            dp = simulate_cycles(miss_trace, create_prefetcher("DP", rows=256), config)
            measured[app] = {
                "RP": normalized_cycles(rp, base),
                "DP": normalized_cycles(dp, base),
            }
        assert check_table3_shape(measured) == [], measured

    def test_perfect_mechanism_beats_baseline(self):
        trace = get_trace("galgel", 0.05)
        miss_trace = filter_tlb(trace)
        config = CycleSimConfig()
        base = simulate_cycles(miss_trace, NullPrefetcher(), config)
        dp = simulate_cycles(miss_trace, create_prefetcher("DP", rows=256), config)
        assert dp.total_cycles < base.total_cycles


class TestWarmupIntegration:
    def test_warmup_excludes_cold_start(self):
        trace = get_trace("facerec", 0.1)
        cold = evaluate(
            trace, create_prefetcher("RP"), SimulationConfig(), engine="reference"
        )
        warm = evaluate(
            trace,
            create_prefetcher("RP"),
            SimulationConfig(warmup_fraction=0.3),
            engine="reference",
        )
        # RP needs a sweep of history; discounting the cold start can
        # only raise (or preserve) its measured accuracy.
        assert warm.prediction_accuracy >= cold.prediction_accuracy - 1e-9
