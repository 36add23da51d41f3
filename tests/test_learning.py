"""Tests for the learning-curve (warm-up) analysis."""

import pytest

from repro.analysis.learning import (
    TimelinePoint,
    accuracy_timeline,
    final_accuracy,
    misses_to_reach,
    render_timeline,
)
from repro.ckpt.snapshots import snapshot_prefetcher
from repro.core.distance import DistancePrefetcher
from repro.errors import ConfigurationError
from repro.prefetch.factory import PREFETCHER_NAMES, create_prefetcher
from repro.sim import batchpath
from repro.sim.config import TLBConfig
from repro.sim.two_phase import filter_tlb
from repro.tlb.prefetch_buffer import PrefetchBuffer
from repro.workloads.registry import get_trace

from conftest import make_trace


def oracle_timeline(miss_trace, prefetcher, window=500, buffer_entries=16):
    """The per-miss loop :func:`accuracy_timeline` used to run itself:
    every hit counts, warm-up included, and the instance is trained in
    place."""
    buffer = PrefetchBuffer(buffer_entries)
    pcs, pages, evicted, _ = miss_trace.as_lists()
    points = []
    window_hits = 0
    window_start = 0
    for index, page in enumerate(pages):
        pb_hit = buffer.lookup_remove(page)
        window_hits += int(pb_hit)
        for target in prefetcher.on_miss(pcs[index], page, evicted[index], pb_hit):
            buffer.insert(target)
        if (index + 1 - window_start) == window:
            points.append(TimelinePoint(window_start, window, window_hits))
            window_start = index + 1
            window_hits = 0
    tail = len(pages) - window_start
    if tail:
        points.append(TimelinePoint(window_start, tail, window_hits))
    return points


class _UncompiledDP(DistancePrefetcher):
    """A user subclass: no compiled loop, so sessions use the oracle."""


@pytest.fixture(scope="module", params=[0.0, 0.3], ids=["cold", "warmup"])
def galgel_misses(request):
    miss_trace = filter_tlb(
        get_trace("galgel", 0.05), warmup_fraction=request.param
    )
    assert (miss_trace.warmup_misses > 0) == (request.param > 0)
    return miss_trace


class TestTimelineMatchesOracle:
    """Same points, same trained instance as the old per-miss loop."""

    @pytest.mark.parametrize("mechanism", PREFETCHER_NAMES)
    @pytest.mark.parametrize("window", [100, 777])
    def test_every_mechanism(self, galgel_misses, mechanism, window):
        ours, theirs = create_prefetcher(mechanism), create_prefetcher(mechanism)
        for _ in range(2):  # fresh, then the instance the first pass trained
            assert accuracy_timeline(
                galgel_misses, ours, window=window, buffer_entries=8
            ) == oracle_timeline(galgel_misses, theirs, window=window, buffer_entries=8)
            assert (
                snapshot_prefetcher(ours).to_bytes()
                == snapshot_prefetcher(theirs).to_bytes()
            )

    def test_mechanism_without_a_compiled_loop(self, galgel_misses):
        ours, theirs = _UncompiledDP(rows=64), _UncompiledDP(rows=64)
        assert not batchpath.supports(ours)
        assert accuracy_timeline(galgel_misses, ours, window=300) == oracle_timeline(
            galgel_misses, theirs, window=300
        )
        assert ours.prefetches_issued == theirs.prefetches_issued > 0


class TestTimelineMechanics:
    def test_window_partitioning(self):
        trace = make_trace(list(range(100)))
        miss_trace = filter_tlb(trace, TLBConfig(entries=8))
        points = accuracy_timeline(
            miss_trace, create_prefetcher("DP", rows=16), window=30
        )
        assert [p.misses for p in points] == [30, 30, 30, 10]
        assert points[0].start_miss == 0
        assert points[-1].start_miss == 90

    def test_window_validation(self):
        trace = make_trace([1, 2, 3])
        miss_trace = filter_tlb(trace, TLBConfig(entries=8))
        with pytest.raises(ConfigurationError):
            accuracy_timeline(miss_trace, create_prefetcher("DP"), window=0)

    def test_total_hits_match_plain_replay(self):
        from repro.sim.two_phase import replay_prefetcher

        trace = make_trace(list(range(200)))
        miss_trace = filter_tlb(trace, TLBConfig(entries=8))
        points = accuracy_timeline(
            miss_trace, create_prefetcher("DP", rows=16), window=64
        )
        replay = replay_prefetcher(miss_trace, create_prefetcher("DP", rows=16))
        assert sum(p.hits for p in points) == replay.pb_hits


class TestWarmupBehavior:
    def test_dp_warms_within_first_window(self):
        """DP predicts a sequential scan from the third miss onward."""
        trace = make_trace(list(range(500)))
        miss_trace = filter_tlb(trace, TLBConfig(entries=8))
        points = accuracy_timeline(
            miss_trace, create_prefetcher("DP", rows=16), window=50
        )
        assert points[0].accuracy > 0.9

    def test_rp_needs_a_full_sweep(self):
        """RP cannot predict until evicted entries recirculate: its
        first sweep over galgel scores ~0 while DP is already hot —
        the paper's 'take a while to learn a pattern' argument."""
        miss_trace = filter_tlb(get_trace("galgel", 0.05))
        sweep_misses = 700  # galgel's footprint
        dp_points = accuracy_timeline(
            miss_trace, create_prefetcher("DP", rows=256), window=sweep_misses
        )
        rp_points = accuracy_timeline(
            miss_trace, create_prefetcher("RP"), window=sweep_misses
        )
        assert dp_points[0].accuracy > 0.9
        assert rp_points[0].accuracy < 0.1
        assert rp_points[1].accuracy > 0.9  # second sweep: history built

    def test_misses_to_reach(self):
        miss_trace = filter_tlb(get_trace("galgel", 0.05))
        dp_warm = misses_to_reach(
            accuracy_timeline(
                miss_trace, create_prefetcher("DP", rows=256), window=100
            )
        )
        rp_warm = misses_to_reach(
            accuracy_timeline(miss_trace, create_prefetcher("RP"), window=100)
        )
        assert dp_warm is not None and rp_warm is not None
        assert dp_warm < rp_warm

    def test_misses_to_reach_none_when_never_working(self):
        trace = make_trace(list(range(100)))
        miss_trace = filter_tlb(trace, TLBConfig(entries=8))
        points = accuracy_timeline(miss_trace, create_prefetcher("none"))
        assert misses_to_reach(points) is None

    def test_fraction_validation(self):
        with pytest.raises(ConfigurationError):
            misses_to_reach([TimelinePoint(0, 10, 5)], fraction=0.0)


class TestRendering:
    def test_render_timeline(self):
        points = [TimelinePoint(0, 100, 50), TimelinePoint(100, 100, 90)]
        text = render_timeline(points, label="DP on demo")
        assert "DP on demo" in text
        assert "0.500" in text
        assert "0.900" in text


class TestFinalAccuracy:
    def test_uses_tail_windows(self):
        points = [TimelinePoint(0, 100, 0)] * 6 + [TimelinePoint(600, 100, 100)] * 2
        assert final_accuracy(points) == pytest.approx(1.0)

    def test_empty(self):
        assert final_accuracy([]) == 0.0
