"""CheckpointManager over a real store: addressing, GC, bookmarks.

Snapshots are content-addressed (equal state stores once), loads
verify bytes against their address, continuations survive process
boundaries and vanish gracefully when GC claims their blob, and
pinning holds a blob against an eviction sweep.
"""

import pytest

from repro.ckpt import CheckpointManager, ReplaySession
from repro.errors import CkptError
from repro.prefetch.factory import create_prefetcher
from repro.run import MissStreamCache, Runner, RunSpec
from repro.store import ExperimentStore

SCALE = 0.02


@pytest.fixture
def store(tmp_path):
    return ExperimentStore(tmp_path / "store")


@pytest.fixture
def manager(store):
    return CheckpointManager(store)


def _snapshot(pages=(3, 7, 12, 3, 9)):
    from repro.ckpt import snapshot_prefetcher

    prefetcher = create_prefetcher("DP", rows=8)
    for page in pages:
        prefetcher.on_miss(0, page, -1, False)
    return snapshot_prefetcher(prefetcher)


class TestBlobs:
    def test_save_load_round_trip(self, manager):
        snap = _snapshot()
        digest = manager.save(snap)
        assert digest == snap.digest()
        assert manager.load(digest) == snap

    def test_identical_state_stores_once(self, manager, store):
        assert manager.save(_snapshot()) == manager.save(_snapshot())
        assert len(store.ckpt_keys()) == 1

    def test_missing_digest_is_none(self, manager):
        assert manager.load("0" * 24) is None

    def test_misfiled_blob_fails_verification(self, manager, store):
        blob = _snapshot().to_bytes()
        store.put_ckpt("f" * 24, blob)  # filed under the wrong address
        with pytest.raises(CkptError, match="content verification"):
            manager.load("f" * 24)

    def test_pin_survives_full_gc(self, manager, store):
        digest = manager.save(_snapshot())
        with manager.pinned(digest):
            store.gc(max_bytes=0)
            assert manager.load(digest) is not None
        store.gc(max_bytes=0)
        assert manager.load(digest) is None


@pytest.fixture(scope="module")
def runner():
    return Runner(cache=MissStreamCache())


SPEC = RunSpec.of("galgel", "DP", scale=SCALE, rows=8)


def _paused(runner, entries, spec=SPEC):
    session = ReplaySession(runner.miss_stream_for(spec), spec.build_prefetcher())
    session.advance(entries)
    return session


class TestContinuations:
    def test_round_trip_and_clear(self, manager, runner):
        session = _paused(runner, 1234)
        key = manager.run_key(SPEC.key())
        digest = manager.write(key, SPEC, session)
        resumed = manager.resume(key, runner.miss_stream_for, SPEC)
        assert resumed.session.offset == 1234
        assert resumed.digest == digest
        assert resumed.session.snapshot() == session.snapshot()
        assert manager.delete(key) is True
        assert manager.resume(key, runner.miss_stream_for, SPEC) is None
        assert manager.delete(key) is False

    def test_gc_lost_blob_means_no_continuation(self, manager, store, runner):
        key = manager.run_key(SPEC.key())
        digest = manager.write(key, SPEC, _paused(runner, 10))
        store.delete_ckpt(digest)
        resumed = manager.resume(key, runner.miss_stream_for, SPEC)
        assert resumed.digest == digest
        assert resumed.session is None

    def test_survives_a_fresh_manager(self, store, manager, runner):
        key = manager.run_key(SPEC.key())
        manager.write(key, SPEC, _paused(runner, 7))
        reopened = CheckpointManager(ExperimentStore(store.root))
        resumed = reopened.resume(key, runner.miss_stream_for, SPEC)
        assert resumed.session.offset == 7
        assert resumed.session.snapshot() == _paused(runner, 7).snapshot()


class TestSessions:
    def test_record_round_trip(self, manager, runner):
        key = manager.stream_key("s1")
        manager.write(key, SPEC, _paused(runner, 5), tenant="alpha")
        resumed = manager.resume(key, runner.miss_stream_for)
        assert (resumed.spec, resumed.session.offset, resumed.tenant) == (
            SPEC, 5, "alpha",
        )
        assert manager.session_ids() == ["s1"]
        assert manager.delete(key) is True
        assert manager.resume(key, runner.miss_stream_for) is None
        assert manager.session_ids() == []

    def test_session_ids_exclude_other_record_kinds(self, manager, runner):
        session = _paused(runner, 0)
        manager.write(manager.stream_key("s1"), SPEC, session)
        manager.write(manager.stream_key("s2"), SPEC, session)
        manager.write(manager.run_key(SPEC.key()), SPEC, session)
        assert manager.session_ids() == ["s1", "s2"]


def test_full_suspend_resume_through_the_manager(manager, tmp_path):
    """The whole loop: advance, checkpoint, forget, restore, finish —
    byte-identical to an uninterrupted session."""
    runner = Runner(cache=MissStreamCache())
    spec = RunSpec.of("galgel", "DP", scale=SCALE)
    stream = runner.miss_stream_for(spec)

    one_shot = ReplaySession(stream, spec.build_prefetcher())
    one_shot.advance(None)

    session = ReplaySession(stream, spec.build_prefetcher())
    session.advance(session.total // 3)
    digest = manager.save(session.snapshot())
    del session  # the "process" dies here

    restored = ReplaySession.resume(
        manager.load(digest), stream, spec.build_prefetcher()
    )
    restored.advance(None)
    assert restored.stats() == one_shot.stats()
