"""Tests for the oracle (upper-bound) replay."""

import pytest

from repro.errors import ConfigurationError
from repro.prefetch.factory import PREFETCHER_NAMES, create_prefetcher
from repro.sim.config import TLBConfig
from repro.sim.oracle import replay_oracle
from repro.sim.two_phase import filter_tlb, replay_prefetcher
from repro.workloads.registry import get_trace

from conftest import make_trace


class TestOracleBasics:
    def test_lookahead_validation(self):
        trace = make_trace([1, 2, 3])
        miss_trace = filter_tlb(trace, TLBConfig(entries=8))
        with pytest.raises(ConfigurationError):
            replay_oracle(miss_trace, lookahead=0)

    def test_covers_everything_but_first_miss(self):
        trace = make_trace(list(range(100)))
        miss_trace = filter_tlb(trace, TLBConfig(entries=8))
        stats = replay_oracle(miss_trace, lookahead=1)
        assert stats.pb_hits == miss_trace.num_misses - 1
        assert stats.prediction_accuracy > 0.98

    def test_perfect_on_random_streams(self):
        """The oracle separates unlearnable from uncoverable: fma3d's
        random misses are fully coverable with future knowledge."""
        miss_trace = filter_tlb(get_trace("fma3d", 0.05))
        stats = replay_oracle(miss_trace, lookahead=2)
        assert stats.prediction_accuracy > 0.95

    def test_mechanism_label(self):
        trace = make_trace([1, 2, 3])
        miss_trace = filter_tlb(trace, TLBConfig(entries=8))
        assert replay_oracle(miss_trace, lookahead=3).mechanism == "oracle,k=3"


class TestOracleIsUpperBound:
    @pytest.mark.parametrize("app", ["galgel", "ammp", "swim", "parser"])
    def test_bounds_every_mechanism(self, app):
        miss_trace = filter_tlb(get_trace(app, 0.05))
        ceiling = replay_oracle(miss_trace, lookahead=2).prediction_accuracy
        for name in PREFETCHER_NAMES:
            if name == "none":
                continue
            accuracy = replay_prefetcher(
                miss_trace,
                create_prefetcher(name, rows=256),
                max_prefetches_per_miss=2,
            ).prediction_accuracy
            assert accuracy <= ceiling + 0.02, (app, name, accuracy, ceiling)
