"""Compiled-engine internals the differential suite cannot see: the
batch planner's shared key analysis and the kernel's window contract.
"""

import dataclasses
import sys
import threading

import pytest

from repro.ckpt import snapshot_buffer
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
        assert keys.never_hits("markov") is False
        assert keys._cache.seen == [False]

    def test_concurrent_batches_over_one_stream_agree(self, stream):
        """Eight threads plan over one fresh trace (so they race to
        build and read its key analysis) with a tiny switch interval."""
        fresh = dataclasses.replace(stream)
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
