"""Unit tests for accuracy aggregates and the paper-shape checkers."""

import pytest

from repro.analysis.metrics import (
    accuracy_by_mechanism,
    average_accuracy,
    best_or_within_counts,
    weighted_average_accuracy,
)
from repro.analysis.tables import (
    check_table2_shape,
    check_table3_shape,
    compare_table2,
    compare_table3,
)
from repro.sim.stats import PrefetchRunStats


def _stats(workload, mechanism, hits, misses, refs) -> PrefetchRunStats:
    return PrefetchRunStats(
        workload=workload,
        mechanism=mechanism,
        tlb_label="128e-FA",
        total_references=refs,
        tlb_misses=misses,
        measured_misses=misses,
        pb_hits=hits,
        prefetches_issued=0,
        buffer_inserted=0,
        buffer_refreshed=0,
        buffer_evicted_unused=0,
        overhead_memory_ops=0,
        prefetch_fetch_ops=0,
    )


class TestAverages:
    def test_plain_average(self):
        runs = [_stats("a", "DP", 50, 100, 1000), _stats("b", "DP", 0, 100, 1000)]
        assert average_accuracy(runs) == pytest.approx(0.25)

    def test_weighted_average_weights_by_miss_rate(self):
        # App a: rate 0.1, accuracy 1.0; app b: rate 0.01, accuracy 0.
        runs = [_stats("a", "DP", 100, 100, 1000), _stats("b", "DP", 0, 10, 1000)]
        expected = (0.1 * 1.0 + 0.01 * 0.0) / 0.11
        assert weighted_average_accuracy(runs) == pytest.approx(expected)

    def test_empty(self):
        assert average_accuracy([]) == 0.0
        assert weighted_average_accuracy([]) == 0.0


class TestBestOrWithin:
    def test_counts(self):
        per_app = {
            "a": {"DP": 0.9, "RP": 0.5},          # DP best
            "b": {"DP": 0.85, "RP": 0.9},         # DP within 10%
            "c": {"DP": 0.5, "RP": 0.9},          # DP neither
            "d": {"DP": 0.0, "RP": 0.0},          # skipped (floor)
        }
        best, within = best_or_within_counts(per_app, "DP")
        assert best == 1
        assert within == 2

    def test_tolerance(self):
        per_app = {"a": {"DP": 0.80, "RP": 1.0}}
        assert best_or_within_counts(per_app, "DP", tolerance=0.25)[1] == 1
        assert best_or_within_counts(per_app, "DP", tolerance=0.10)[1] == 0


class TestPivots:
    def test_accuracy_by_mechanism(self):
        runs = [_stats("a", "DP", 1, 2, 10), _stats("a", "RP", 2, 2, 10)]
        pivot = accuracy_by_mechanism(runs)
        assert pivot == {"a": {"DP": 0.5, "RP": 1.0}}


class TestShapeCheckers:
    def test_table2_good_shape_passes(self):
        measured = {
            "DP": {"average": 0.6, "weighted": 0.80},
            "RP": {"average": 0.4, "weighted": 0.85},
            "ASP": {"average": 0.35, "weighted": 0.70},
            "MP": {"average": 0.2, "weighted": 0.08},
        }
        assert check_table2_shape(measured) == []

    def test_table2_detects_mp_not_collapsing(self):
        measured = {
            "DP": {"average": 0.6, "weighted": 0.8},
            "RP": {"average": 0.4, "weighted": 0.85},
            "ASP": {"average": 0.35, "weighted": 0.05},
            "MP": {"average": 0.2, "weighted": 0.50},
        }
        assert check_table2_shape(measured)

    def test_table2_detects_dp_not_leading_average(self):
        measured = {
            "DP": {"average": 0.3, "weighted": 0.8},
            "RP": {"average": 0.5, "weighted": 0.85},
            "ASP": {"average": 0.2, "weighted": 0.7},
            "MP": {"average": 0.1, "weighted": 0.04},
        }
        assert check_table2_shape(measured)

    def test_table3_good_shape_passes(self):
        measured = {
            "ammp": {"RP": 1.00, "DP": 0.89},
            "mcf": {"RP": 1.08, "DP": 0.93},
        }
        assert check_table3_shape(measured) == []

    def test_table3_detects_dp_slower(self):
        measured = {"ammp": {"RP": 0.9, "DP": 0.95}, "mcf": {"RP": 1.05, "DP": 1.0}}
        failures = check_table3_shape(measured)
        assert any("ammp" in f for f in failures)

    def test_table3_detects_mcf_rp_speedup(self):
        measured = {"mcf": {"RP": 0.8, "DP": 0.8}}
        assert check_table3_shape(measured)


class TestRenderers:
    def test_compare_table2_includes_paper_numbers(self):
        measured = {
            "DP": {"average": 0.6, "weighted": 0.8},
            "RP": {"average": 0.4, "weighted": 0.85},
            "ASP": {"average": 0.35, "weighted": 0.7},
            "MP": {"average": 0.2, "weighted": 0.08},
        }
        text = compare_table2(measured)
        assert "0.43" in text  # paper DP average
        assert "0.86" in text  # paper RP weighted

    def test_compare_table3_includes_paper_numbers(self):
        measured = {"ammp": {"RP": 1.0, "DP": 0.89}}
        text = compare_table3(measured)
        assert "0.97" in text
        assert "0.86" in text
