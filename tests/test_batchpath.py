"""Compiled-engine internals the differential suite cannot see: the
batch planner's shared key analysis and equivalence-class
deduplication, and the kernel's window contract.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro.analysis.figures import figure9_table_configs
from repro.ckpt import snapshot_buffer
from repro.ckpt.snapshots import MarkovSnapshot, SequentialSnapshot
from repro.mem.trace import MissTrace
from repro.prefetch.factory import create_prefetcher
from repro.run import MissStreamCache, Runner
from repro.sim import batchpath
from repro.sim.batchpath import ReplayKernel, replay_batch
from repro.sim.two_phase import replay_prefetcher
from repro.tlb.prefetch_buffer import PrefetchBuffer

SCALE = 0.02


@pytest.fixture(scope="module")
def stream():
    return Runner(cache=MissStreamCache()).miss_stream("galgel", scale=SCALE)


class _ReadOnPublish(dict):
    """A key cache that runs ``reader`` the instant an entry is stored:
    the interleaving where another thread takes the fresh cache hit
    before the publishing thread has returned."""

    def __init__(self, reader):
        super().__init__()
        self.reader = reader
        self.seen = []

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.seen.append(self.reader(key))


class TestStreamKeysPublication:
    def test_a_published_universe_carries_its_key_count(self):
        keys = batchpath._StreamKeys([0] * 6, [1, 2, 3, 2, 3, 9])
        keys._cache = _ReadOnPublish(keys.never_hits)
        assert keys.never_hits(MarkovSnapshot) is False
        assert keys._cache.seen == [False]

    def test_concurrent_batches_over_one_stream_agree(self, stream):
        """Eight threads plan over one fresh trace (so they race to
        build and read its key analysis) with a tiny switch interval."""
        fresh = dataclasses.replace(stream, _memo={})
        expected = replay_prefetcher(fresh, create_prefetcher("DP", rows=64))
        rows, errors = [], []

        def batch():
            try:
                rows.extend(replay_batch(fresh, [(create_prefetcher("DP", rows=64), 16, 0)]))
            except Exception as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=batch) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert rows == [expected] * 8


ALL_FAMILIES = [
    ("none", {}), ("SP", {}), ("SP-adaptive", {}), ("ASP", {}), ("MP", {}),
    ("DP", {"rows": 64}), ("DP-PC", {}), ("DP-2", {}), ("RP", {}),
]


class TestStreamMemo:
    """Per-stream data lives in the trace's memo, one entry per array
    plus the batch analysis, shared by every view of the trace."""

    def test_compiled_replays_convert_only_pcs_and_pages(self, stream):
        trace = dataclasses.replace(stream, _memo={})
        replay_batch(
            trace, [(create_prefetcher(name, **params), 16, 0) for name, params in ALL_FAMILIES]
        )
        for name, params in ALL_FAMILIES:
            kernel = ReplayKernel(
                trace, create_prefetcher(name, **params), snapshot_buffer(PrefetchBuffer(16))
            )
            kernel.run(0, len(trace))
            kernel.snapshot().to_bytes()
        assert {"pcs", "pages"} <= set(trace._memo)
        assert "evicted" not in trace._memo and "ref_index" not in trace._memo

    def test_views_share_the_batch_analysis(self, stream, monkeypatch):
        built = []

        class CountingKeys(batchpath._StreamKeys):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

        monkeypatch.setattr(batchpath, "_StreamKeys", CountingKeys)
        trace = dataclasses.replace(stream, _memo={})
        views = [
            trace,
            dataclasses.replace(trace, name="relabelled"),
            dataclasses.replace(trace, warmup_misses=0),
        ]
        for view in views:
            row, = replay_batch(view, [(create_prefetcher("DP", rows=64), 16, 0)])
            assert row == replay_prefetcher(view, create_prefetcher("DP", rows=64))
        assert len(built) == 1


class TestClassDeduplication:
    """A batch runs one generated loop per equivalence class, not per
    request: proven-equivalent requests share one loop's counters."""

    @pytest.fixture
    def loops(self, monkeypatch):
        calls = []
        real = batchpath._compiled

        def spying(warmup, sig):
            calls.append(sig)
            return real(warmup, sig)

        monkeypatch.setattr(batchpath, "_compiled", spying)
        return calls

    def test_the_same_request_twice_runs_one_loop(self, stream, loops):
        requests = [(create_prefetcher("DP", rows=64), 16, 0) for _ in range(2)]
        first, second = replay_batch(stream, requests)
        assert len(loops) == 1
        assert first == second == replay_prefetcher(stream, create_prefetcher("DP", rows=64))

    def test_figure9_table_panel_runs_fewer_loops_than_specs(self, stream, loops):
        configs = figure9_table_configs()
        rows = replay_batch(
            stream,
            [
                (create_prefetcher(config.mechanism, **config.factory_params()), 16, 0)
                for config in configs
            ],
        )
        assert 1 <= len(loops) < len(configs)
        assert rows == [
            replay_prefetcher(
                stream, create_prefetcher(config.mechanism, **config.factory_params())
            )
            for config in configs
        ]

    def test_a_stream_whose_distances_never_repeat_runs_no_dp_loop(self, loops):
        count = 64
        # Triangular page numbers: the distances 1, 2, 3, ... never repeat.
        pages = np.cumsum(np.arange(count, dtype=np.int64))
        trace = MissTrace(
            pcs=np.zeros(count, dtype=np.int64),
            pages=pages,
            evicted=np.full(count, -1, dtype=np.int64),
            ref_index=np.arange(count, dtype=np.int64),
            total_references=count,
        )
        configs = [("DP", {"rows": 64}), ("DP", {"rows": 32, "ways": 4}),
                   ("DP", {"rows": 16, "ways": 16}), ("SP", {})]
        rows = replay_batch(
            trace, [(create_prefetcher(name, **params), 16, 0) for name, params in configs]
        )
        assert [sig[0] for sig in loops] == [SequentialSnapshot]
        assert [row.prefetches_issued for row in rows[:3]] == [0, 0, 0]
        assert rows == [
            replay_prefetcher(trace, create_prefetcher(name, **params))
            for name, params in configs
        ]


class TestKernelWindows:
    def _kernel(self, stream):
        return ReplayKernel(
            stream,
            create_prefetcher("DP", rows=64),
            snapshot_buffer(PrefetchBuffer(16)),
        )

    def test_windows_must_be_contiguous(self, stream):
        kernel = self._kernel(stream)
        kernel.run(0, 10)
        with pytest.raises(ValueError, match="contiguous"):
            kernel.run(11, 20)

    def test_empty_windows_change_nothing(self, stream):
        kernel = self._kernel(stream)
        kernel.run(5, 5)
        assert kernel.processed == 0
        assert kernel.counters() == (0, 0, 0, 0, 0, 0)

    def test_batch_rejects_trained_instances(self, stream):
        trained = create_prefetcher("DP", rows=64)
        replay_prefetcher(stream, trained)
        with pytest.raises(Exception, match="freshly built"):
            replay_batch(stream, [(trained, 16, 0)])
