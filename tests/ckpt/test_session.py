"""ReplaySession unit contracts (bit-identity itself is proven by
``tests/differential/test_warm_start.py``): progress accounting,
advance edge cases, warm-instance baselines, and strict resume
validation.
"""

import pytest

from repro.ckpt import ReplaySession, SessionSnapshot
from repro.errors import CkptError
from repro.prefetch.factory import create_prefetcher
from repro.run import MissStreamCache, Runner, RunSpec
from repro.sim.two_phase import ReplayWindow, replay_prefetcher
from repro.tlb.prefetch_buffer import PrefetchBuffer

SCALE = 0.02


@pytest.fixture(scope="module")
def stream():
    return Runner(cache=MissStreamCache()).miss_stream("galgel", scale=SCALE)


def test_progress_accounting(stream):
    session = ReplaySession(stream, create_prefetcher("DP", rows=64))
    assert (session.offset, session.remaining) == (0, session.total)
    assert not session.finished
    assert session.advance(10) == 10
    assert (session.offset, session.remaining) == (10, session.total - 10)
    assert session.advance(None) == session.total - 10
    assert session.finished
    assert session.advance(5) == 0  # advancing a finished session is a no-op
    assert session.advance(None) == 0


def test_zero_advance_is_allowed(stream):
    session = ReplaySession(stream, create_prefetcher("DP", rows=64))
    assert session.advance(0) == 0


def test_negative_advance_rejected(stream):
    session = ReplaySession(stream, create_prefetcher("DP", rows=64))
    with pytest.raises(CkptError, match="advance count"):
        session.advance(-1)


def test_finished_session_matches_reference(stream):
    session = ReplaySession(stream, create_prefetcher("DP", rows=64))
    session.advance(None)
    assert session.stats() == replay_prefetcher(
        stream, create_prefetcher("DP", rows=64)
    )


def test_warm_instance_reports_only_this_stream(stream):
    """Counter baselines: a pre-trained mechanism's earlier activity
    must not leak into this stream's statistics — a warm session
    reports exactly what a warm reference replay reports."""
    session_p = create_prefetcher("DP", rows=64)
    reference_p = create_prefetcher("DP", rows=64)
    replay_prefetcher(stream, session_p)
    replay_prefetcher(stream, reference_p)
    issued_before = session_p.prefetches_issued
    assert issued_before > 0
    warm_reference = replay_prefetcher(stream, reference_p)
    session = ReplaySession(stream, session_p)
    session.advance(None)
    assert session.stats() == warm_reference
    # The cumulative instance counter kept growing; the report did not.
    assert session.prefetcher.prefetches_issued > session.stats().prefetches_issued


def test_spec_like_knobs_are_honored(stream):
    spec = RunSpec.of("galgel", "DP", scale=SCALE, buffer_entries=4,
                      max_prefetches_per_miss=1)
    session = ReplaySession(
        stream,
        spec.build_prefetcher(),
        buffer_entries=spec.buffer_entries,
        max_prefetches_per_miss=spec.max_prefetches_per_miss,
    )
    session.advance(None)
    assert session.buffer.capacity == 4
    one_shot = Runner(cache=MissStreamCache()).run([spec])[0]
    assert session.stats().pb_hits == one_shot.pb_hits


class TestResumeValidation:
    def test_resume_rejects_non_session_snapshot(self, stream):
        from repro.ckpt import snapshot_prefetcher

        snap = snapshot_prefetcher(create_prefetcher("DP", rows=64))
        with pytest.raises(CkptError, match="cannot resume"):
            ReplaySession.resume(snap, stream, create_prefetcher("DP", rows=64))

    def test_resume_rejects_offset_beyond_stream(self, stream):
        session = ReplaySession(stream, create_prefetcher("DP", rows=64))
        session.advance(5)
        snap = session.snapshot()
        truncated = SessionSnapshot(
            offset=session.total + 1,
            pb_hits_measured=snap.pb_hits_measured,
            issued_before=snap.issued_before,
            overhead_before=snap.overhead_before,
            max_prefetches_per_miss=snap.max_prefetches_per_miss,
            mechanism=snap.mechanism,
            buffer=snap.buffer,
        )
        with pytest.raises(CkptError, match="offset"):
            ReplaySession.resume(
                truncated, stream, create_prefetcher("DP", rows=64)
            )

    def test_resume_carries_buffer_capacity_from_snapshot(self, stream):
        session = ReplaySession(
            stream, create_prefetcher("DP", rows=64), buffer_entries=4
        )
        session.advance(50)
        resumed = ReplaySession.resume(
            session.snapshot(), stream, create_prefetcher("DP", rows=64)
        )
        assert resumed.buffer.capacity == 4


def test_subclass_sessions_run_the_reference_loop(stream):
    """A mechanism without a compiled loop (any subclass: dispatch is
    on exact type) still streams, on the reference per-miss body."""
    from repro.core.distance import DistancePrefetcher

    class Tweaked(DistancePrefetcher):
        pass

    session = ReplaySession(stream, Tweaked(rows=64), buffer_entries=8)
    while not session.finished:
        session.advance(333)
    assert session.stats() == replay_prefetcher(
        stream, Tweaked(rows=64), buffer_entries=8
    )


def test_snapshot_carries_written_bytes_until_a_field_is_read(stream):
    session = ReplaySession(stream, create_prefetcher("DP", rows=64))
    session.advance(100)
    snap = session.snapshot()
    blob = snap.to_bytes()
    assert snap.to_bytes() is blob
    assert snap.offset == 100  # decodes the fields
    assert snap.to_bytes() == blob  # now the oracle's encoding of them
    snap.offset = 99
    assert SessionSnapshot.from_bytes(snap.to_bytes()).offset == 99


@pytest.fixture
def restores(monkeypatch):
    """Every snapshot the compiled kernel writes back into an instance."""
    import repro.sim.batchpath as batchpath

    calls = []
    real = batchpath.restore_prefetcher
    monkeypatch.setattr(
        batchpath,
        "restore_prefetcher",
        lambda snap, prefetcher: calls.append(snap) or real(snap, prefetcher),
    )
    return calls


def test_resume_seeds_the_kernel_without_training_an_instance(stream, restores):
    """Resume validates the snapshot and seeds the compiled kernel from
    it; the instance is trained only once the session writes it back."""
    session = ReplaySession(stream, create_prefetcher("RP"))
    session.advance(300)
    blob = session.snapshot().to_bytes()
    fresh = create_prefetcher("RP")
    resumed = ReplaySession.resume(SessionSnapshot.from_bytes(blob), stream, fresh)
    resumed.advance(50)
    session.advance(50)
    assert resumed.snapshot().to_bytes() == session.snapshot().to_bytes()
    assert restores == [] and fresh.page_table._entries == {}
    resumed.advance(None)
    assert resumed.prefetcher is fresh
    assert len(restores) == 1
    session.advance(None)
    assert resumed.stats() == session.stats()


def test_a_finished_session_trains_its_instance_only_when_read(stream, restores):
    """Finishing writes nothing back: the service and checkpointed runs
    pass throwaway instances. Reading ``prefetcher`` trains it, once."""
    instance = create_prefetcher("DP", rows=64)
    session = ReplaySession(stream, instance)
    session.advance(None)
    assert session.finished and restores == []
    assert instance.prefetches_issued == 0
    assert session.prefetcher is instance
    assert len(restores) == 1
    trained = create_prefetcher("DP", rows=64)
    replay_prefetcher(stream, trained)
    assert instance.prefetches_issued == trained.prefetches_issued
    session.prefetcher
    assert len(restores) == 1


@pytest.mark.parametrize("variant_three", [True, 1, False, 0])
def test_session_bytes_keep_configuration_types(stream, variant_three):
    """``variant_three=1`` and ``=True`` replay alike but encode apart
    (``i`` vs ``T``): each session's bytes are the oracle encoding of
    its own configuration, whichever was written first."""
    session = ReplaySession(stream, create_prefetcher("RP", variant_three=variant_three))
    session.advance(50)
    window = ReplayWindow(
        stream, create_prefetcher("RP", variant_three=variant_three), PrefetchBuffer(16)
    )
    window.run(0, 50)
    assert session.snapshot().to_bytes() == window.snapshot(50, 0, 0).to_bytes()
