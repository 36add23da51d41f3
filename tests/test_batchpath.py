"""Compiled-engine internals the differential suite cannot see: the
batch planner's shared key analysis and equivalence-class
deduplication, the kernel's window contract, and RP's recency stack
pass with the edge cases random streams rarely reach.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.figures import figure9_table_configs
from repro.ckpt import (
    ReplaySession,
    SessionSnapshot,
    encode_blob,
    restore_prefetcher,
    snapshot_buffer,
    snapshot_prefetcher,
)
from repro.ckpt.codec import value_bytes
from repro.ckpt.snapshots import (
    DistancePairSnapshot,
    DistanceSnapshot,
    MarkovSnapshot,
    PCDistanceSnapshot,
    RecencySnapshot,
    SequentialSnapshot,
)
from repro.mem.trace import MissTrace
from repro.prefetch.factory import create_prefetcher
from repro.prefetch.recency import RecencyPrefetcher
from repro.run import MissStreamCache, Runner
from repro.sim import batchpath
from repro.sim.batchpath import ReplayKernel, replay_batch
from repro.sim.two_phase import ReplayWindow, replay_prefetcher, replay_stats
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


class TestKeyStreams:
    """``_StreamKeys.rule`` is the compiled engine's one copy of the slot
    tables' key rules: the generated loops read keys, never make them."""

    SLOT_TABLES = [
        ("MP", {}), ("MP", {"rows": 8}), ("DP", {"rows": 64}), ("DP", {"rows": 32, "ways": 4}),
        ("DP", {"rows": 16, "slots": 3}), ("DP-PC", {}), ("DP-2", {}),
    ]

    def test_slot_table_loops_compute_no_keys(self, stream, monkeypatch):
        loops = []
        real = batchpath._compiled

        def spying(warmup, sig):
            fn = real(warmup, sig)
            loops.append((warmup, sig, fn))
            return fn

        monkeypatch.setattr(batchpath, "_compiled", spying)
        requests = self.SLOT_TABLES
        replay_batch(stream, [(create_prefetcher(n, **params), 16, 0) for n, params in requests])
        for name, params in requests:
            kernel = ReplayKernel(
                stream, create_prefetcher(name, **params), snapshot_buffer(PrefetchBuffer(16))
            )
            kernel.run(0, 100)
        assert {batchpath._layout(sig) for _, sig, _ in loops} == {"dict", "sets", "dm", "dm2"}
        for warmup, sig, fn in loops:
            source = batchpath._generate(warmup, sig)
            assert "pack_" not in source and "page - lp" not in source
            assert set(fn.__globals__) == {"__builtins__", "_loop"}
            loop_line = next(line for line in source.splitlines() if line.startswith("    for "))
            zipped = {name for name in ("pages", "keys", "values") if name in loop_line}
            assert zipped == {
                MarkovSnapshot: {"pages"},
                DistanceSnapshot: {"pages", "keys"},
                PCDistanceSnapshot: {"pages", "keys", "values"},
                DistancePairSnapshot: {"pages", "keys", "values"},
            }[sig[0]]

    @pytest.mark.parametrize("prev_page", [None, 7])
    def test_loops_bind_the_lists_rule_returns_as_one(self, prev_page):
        """A loop zips each list once and names its aliases by
        assignment, so the aliasing it assumes must be ``rule``'s."""
        pcs, pages = [1, 2, 3, 4], [3, 5, 4, 9]
        for family, (*_, aliases) in batchpath._SLOT_TABLES.items():
            keys, values = batchpath._StreamKeys.rule(family, pcs, pages, prev_page)
            named = {"page": pages, "k": keys, "v": values}
            for name in aliases[:-1]:
                assert named[name] is named[aliases[-1]]
            zipped = [pages] + [named[name] for name in "kv" if name not in aliases[:-1]]
            assert len(set(map(id, zipped))) == len(zipped)


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


def _misses(pages, evicted, warmup=0, pcs=None):
    """A hand-built miss stream (``-1`` in ``evicted``: no eviction)."""
    count = len(pages)
    return MissTrace(
        pcs=np.zeros(count, dtype=np.int64) if pcs is None else np.asarray(pcs, dtype=np.int64),
        pages=np.asarray(pages, dtype=np.int64),
        evicted=np.asarray(evicted, dtype=np.int64),
        ref_index=np.arange(count, dtype=np.int64),
        total_references=count,
        warmup_misses=warmup,
    )


#: Pushes 4, 3, 2, 1 (1 on top); the miss on 2 then sees above 1, below
#: 3 and third 4. Later evictions re-push pages still on the stack: 5
#: (the top), 4 (the bottom) and 1 (the middle).
RP_STACK = _misses(
    [10, 11, 12, 13, 2, 3, 1, 2, 7, 8, 9, 3, 4],
    [4, 3, 2, 1, 5, -1, 5, 4, 1, 1, 6, 2, -1],
    warmup=3,
)

#: Negative pages, -1 among the missed ones (it gets a PTE but, being
#: ``NO_EVICTION``, is never pushed).
RP_NEGATIVE = _misses(
    [-5, -3, -1, -2, -9, -5, -3, -1, -7, -2],
    [-9, -5, -3, -2, -7, -9, -2, -5, -3, -9],
)


def _agree(mechanism, trace, params, cap, clamp, chunk, seed=None, buffered=(), offset=0):
    """Engine against engine: a compiled session, fresh or resumed from
    ``seed`` at ``offset``, must equal the reference engine's stats and,
    at every chunk boundary, write the bytes the oracle encoder makes of
    the reference instance and buffer."""
    reference = create_prefetcher(mechanism, **params)
    buffer = PrefetchBuffer(cap)
    for page in buffered:
        buffer.insert(page)
    if seed is None:
        session = ReplaySession(trace, create_prefetcher(mechanism, **params), cap, clamp)
        expected = replay_prefetcher(trace, create_prefetcher(mechanism, **params), cap, clamp)
        assert replay_batch(trace, [(create_prefetcher(mechanism, **params), cap, clamp)]) == [
            expected
        ]
    else:
        restore_prefetcher(seed, reference)
        session = ReplaySession.resume(
            SessionSnapshot(offset, 0, 0, 0, clamp, seed, snapshot_buffer(buffer)),
            trace,
            create_prefetcher(mechanism, **params),
        )
    window = ReplayWindow(trace, reference, buffer, clamp)
    while True:
        oracle = window.snapshot(session.offset, 0, 0)
        assert session.snapshot().to_bytes() == encode_blob("session", oracle.to_payload())
        if session.finished:
            break
        start = session.offset
        session.advance(chunk)
        window.run(start, session.offset)
    assert session.stats() == replay_stats(trace, reference.label, window.counters())
    if seed is None:
        assert session.stats() == expected


class TestRecencyEdgeCases:
    """RP cases random streams rarely reach, engine against engine."""

    @pytest.mark.parametrize("chunk", [1, 3])
    @pytest.mark.parametrize(
        "variant_three, cap, clamp", [(False, 4, 0), (True, 4, 0), (True, 4, 1), (True, 2, 2)]
    )
    @pytest.mark.parametrize("trace", [RP_STACK, RP_NEGATIVE], ids=["repush", "negative"])
    def test_fresh_streams(self, trace, variant_three, cap, clamp, chunk):
        _agree("RP", trace, {"variant_three": variant_three}, cap, clamp, chunk)

    #: name -> (top, entries, buffered pages), each a state ``validate``
    #: accepts although no replay reaches it.
    CRAFTED = {
        # 9 is off the stack yet keeps its links; 3 links to it.
        "off-stack-links": (1, [
            [1, 2, None, True], [2, 3, 1, True], [3, 9, 2, True], [9, 2, 3, False],
        ], (9, 4)),
        # 1 and 2 point at each other: with 1 missing, third is 1 itself.
        "third-is-the-missing-page": (1, [
            [1, 2, None, True], [2, 1, 1, True],
        ], (2,)),
        # Page -1 threaded on the stack, on top.
        "page-minus-one-threaded": (-1, [
            [-1, 3, None, True], [3, -4, -1, True], [-4, None, 3, True],
        ], (-4,)),
    }
    CRAFTED_STREAM = _misses([9, 1, 3, -1, 9, 2, -4, 1, 3], [5, 9, 1, 2, 3, 4, -1, 5, 9])

    @pytest.mark.parametrize("chunk", [1, 3])
    @pytest.mark.parametrize("variant_three", [False, True])
    @pytest.mark.parametrize("case", sorted(CRAFTED))
    def test_resume_from_crafted_state(self, case, variant_three, chunk):
        top, entries, buffered = self.CRAFTED[case]
        seed = RecencySnapshot(
            prefetches_issued=3,
            overhead_ops_total=8,
            last_overhead_ops=4,
            variant_three=variant_three,
            top=top,
            entries=entries,
        )
        _agree(
            "RP", self.CRAFTED_STREAM, {"variant_three": variant_three}, 3, 0, chunk, seed, buffered
        )


class TestSlotTableHead:
    """A window's first keys come from the kernel's registers, not from
    the stream's previous pages: MP and the DP family resumed from
    registers ``validate`` accepts although no honest replay of this
    stream reaches them, in chunks of one and two misses: DP-2 keys a
    window's first two misses from its registers."""

    #: Period 5 in pages and PCs, so every key repeats. Distance +3 first
    #: learns -8, then hits at page 3: its target -5 is dropped.
    STREAM = _misses([7, 10, 2, 0, 3] * 3 + [7], [-1] * 16, pcs=[1, 2, 3, 4, 5] * 3 + [1])

    #: name -> (mechanism, warm-up misses as (pc, page), registers, offset).
    CRAFTED = {
        # No page yet, but a distance: the miss on 10 is keyed (5, +3),
        # a row the warm-up taught -8.
        "dp2-distance-without-page": (
            "DP-2", [(0, 0), (0, 5), (0, 8), (0, 0)], {"prev_page": None, "prev_distance": 5}, 0,
        ),
        # Resumed at page 3 after page 100, not 0: distance -97, which
        # the warm-up taught +2.
        "dp-off-stream-previous-page": (
            "DP", [(9, 100), (5, 3), (9, 5)], {"prev_page": 100}, 4,
        ),
        "dp-pc-off-stream-previous-page": (
            "DP-PC", [(9, 100), (5, 3), (9, 5)], {"prev_page": 100}, 4,
        ),
        # The first miss repeats the previous page: no self-successor.
        "mp-first-page-is-previous": ("MP", [(0, 10), (0, 2), (0, 7)], {"prev_page": 7}, 0),
    }

    @pytest.mark.parametrize("chunk", [1, 2])
    @pytest.mark.parametrize(
        "geometry", [{"rows": 8}, {"rows": 8, "ways": 2, "slots": 3}], ids=["dm2", "sets"]
    )
    @pytest.mark.parametrize("case", sorted(CRAFTED))
    def test_resume_from_crafted_registers(self, case, geometry, chunk):
        mechanism, warm, registers, offset = self.CRAFTED[case]
        trained = create_prefetcher(mechanism, **geometry)
        for pc, page in warm:
            trained.on_miss(pc, page, -1, False)
        seed = dataclasses.replace(snapshot_prefetcher(trained), **registers)
        _agree(mechanism, self.STREAM, geometry, 4, 0, chunk, seed, offset=offset)


#: A miss: (page, evicted page), ``-1`` for no eviction.
_RP_MISSES = st.lists(st.tuples(st.integers(-3, 6), st.integers(-3, 6)), max_size=30)


class TestRecencyStackPass:
    """The compiled stack pass against the reference engine's stack."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), misses=_RP_MISSES, pretrain=st.none() | _RP_MISSES)
    def test_window_is_the_reference_stack(self, data, misses, pretrain):
        # Variant three: on_miss issues above, below, then the third.
        reference = RecencyPrefetcher(variant_three=True)
        seed = None
        if pretrain is not None:
            for page, evicted in pretrain:
                reference.on_miss(0, page, evicted, False)
            seed = snapshot_prefetcher(reference)
        overhead_before = reference.overhead_ops_total
        trace = _misses([page for page, _ in misses], [evicted for _, evicted in misses])
        stack = batchpath._RecencyStack(trace, seed)
        start = 0
        while True:
            snapshot = snapshot_prefetcher(reference)
            assert stack.export() == {
                "top": value_bytes(snapshot.top),
                "entries": value_bytes(snapshot.entries),
            }
            if start == len(misses):
                break
            stop = data.draw(st.integers(start + 1, len(misses)), label="stop")
            expected = ([], [], [])
            for page, evicted in misses[start:stop]:
                above, below = reference.stack.neighbors(page)
                issued = reference.on_miss(0, page, evicted, False)
                third = issued[(above is not None) + (below is not None):]
                expected[0].append(above)
                expected[1].append(below)
                expected[2].append(third[0] if third else None)
            assert stack.window(start, stop) == expected
            assert stack.overhead == reference.overhead_ops_total - overhead_before
            assert stack.last_overhead == reference.last_overhead_ops
            start = stop
