"""CheckpointManager over a real store: one artifact per bookmark.

A bookmark carries its session state: a write stores the record and
the blob as one entry under the bookmark's key, and a resume verifies
the blob against the record's ``state_digest``. Continuations survive
process boundaries; an earlier release's bookmark whose separately
filed blob GC claimed resumes to no session. Every corruption the
restores reject, bookmarked as an oracle-encoded blob, fails resume.
"""

import pytest

from repro.ckpt import CheckpointManager, ReplaySession, blob_digest, encode_blob
from repro.errors import CkptError
from repro.run import MissStreamCache, Runner, RunSpec
from repro.store import ExperimentStore

from tests.ckpt.bookmarks import read_bookmark, write_bookmark
from tests.ckpt.test_snapshots import CORRUPTIONS, corrupt_session

SCALE = 0.02


@pytest.fixture
def store(tmp_path):
    return ExperimentStore(tmp_path / "store")


@pytest.fixture
def manager(store):
    return CheckpointManager(store)


@pytest.fixture(scope="module")
def runner():
    return Runner(cache=MissStreamCache())


SPEC = RunSpec.of("galgel", "DP", scale=SCALE, rows=8)


def _paused(runner, entries, spec=SPEC):
    session = ReplaySession(runner.miss_stream_for(spec), spec.build_prefetcher())
    session.advance(entries)
    return session


class TestBlobs:
    """The snapshot blob a bookmark carries."""

    def test_save_load_round_trip(self, manager, store, runner):
        session = _paused(runner, 321)
        key = manager.stream_key("s1")
        digest = manager.write(key, SPEC, session)
        record, blob = read_bookmark(store, key)
        assert blob == session.snapshot().to_bytes()
        assert digest == record["state_digest"] == blob_digest(blob)
        resumed = manager.resume(key, runner.miss_stream_for)
        assert resumed.session.snapshot() == session.snapshot()

    def test_missing_digest_is_none(self, manager, runner):
        key = manager.run_key(SPEC.key())
        assert not manager.exists(key)
        assert manager.resume(key, runner.miss_stream_for, SPEC) is None

    def test_misfiled_blob_fails_verification(self, manager, store, runner):
        """State that does not hash to the record's ``state_digest`` is
        refused, whether it rides in the bookmark or, in the legacy
        layout, is filed under that digest."""
        key = manager.run_key(SPEC.key())
        manager.write(key, SPEC, _paused(runner, 40))
        record, _ = read_bookmark(store, key)
        other = _paused(runner, 41).snapshot().to_bytes()
        write_bookmark(store, key, record, other)
        with pytest.raises(CkptError, match="content verification"):
            manager.resume(key, runner.miss_stream_for, SPEC)
        write_bookmark(store, key, record, b"")
        store.put_ckpt(record["state_digest"], other)
        with pytest.raises(CkptError, match="content verification"):
            manager.resume(key, runner.miss_stream_for, SPEC)


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
        """Only an earlier release's bookmark can lose its blob: it was
        filed apart, under its digest."""
        key = manager.run_key(SPEC.key())
        digest = manager.write(key, SPEC, _paused(runner, 10))
        write_bookmark(store, key, *read_bookmark(store, key), legacy=True)
        assert store.delete_ckpt(digest)
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


class TestLegacyLayout:
    """A resume moves an earlier release's bookmark to the current
    layout, then drops the blob filed under its digest once no other
    such record names it."""

    def _legacy(self, manager, store, key, session):
        digest = manager.write(key, SPEC, session)
        write_bookmark(store, key, *read_bookmark(store, key), legacy=True)
        return digest

    def test_resume_rewrites_the_bookmark_and_drops_the_digest(
        self, manager, store, runner
    ):
        session = _paused(runner, 300)
        key = manager.stream_key("s1")
        digest = self._legacy(manager, store, key, session)
        resumed = manager.resume(key, runner.miss_stream_for)
        assert resumed.digest == digest
        assert resumed.session.snapshot() == session.snapshot()
        record, blob = read_bookmark(store, key)
        assert record["state_digest"] == digest == blob_digest(blob)
        assert not store.has_ckpt(digest)
        assert [entry["key"] for entry in store.entries("ckpt")] == [key]

    def test_crash_between_rewrite_and_drop(
        self, manager, store, runner, monkeypatch
    ):
        """The rewrite lands before the drop, so a crash in between
        leaves a bookmark that resumes alone to the same digest."""
        session = _paused(runner, 300)
        key = manager.run_key(SPEC.key())
        digest = self._legacy(manager, store, key, session)

        class Killed(Exception):
            pass

        def crash(entry_key):
            raise Killed(entry_key)

        monkeypatch.setattr(store, "delete_ckpt", crash)
        with pytest.raises(Killed):
            manager.resume(key, runner.miss_stream_for, SPEC)
        monkeypatch.undo()
        assert store.has_ckpt(digest)
        assert store.delete_ckpt(digest)  # the blob is not needed any more
        reopened = CheckpointManager(ExperimentStore(store.root))
        resumed = reopened.resume(key, runner.miss_stream_for, SPEC)
        assert resumed.digest == digest
        assert resumed.session.snapshot() == session.snapshot()

    def test_shared_digest_survives_until_its_last_record_moves(
        self, manager, store, runner
    ):
        """Two sessions of one spec at one offset name one digest:
        resuming the first must not take the blob from the second."""
        session = _paused(runner, 300)
        first, second = manager.stream_key("a"), manager.stream_key("b")
        digest = self._legacy(manager, store, first, session)
        assert self._legacy(manager, store, second, session) == digest
        resumed = manager.resume(first, runner.miss_stream_for)
        assert resumed.session.snapshot() == session.snapshot()
        assert store.has_ckpt(digest)
        resumed = manager.resume(second, runner.miss_stream_for)
        assert resumed.session.snapshot() == session.snapshot()
        assert not store.has_ckpt(digest)
        assert sorted(entry["key"] for entry in store.entries("ckpt")) == [
            first, second,
        ]


class TestSessions:
    def test_record_round_trip(self, manager, runner):
        key = manager.stream_key("s1")
        manager.write(key, SPEC, _paused(runner, 5), tenant="alpha")
        resumed = manager.resume(key, runner.miss_stream_for)
        assert (resumed.spec, resumed.session.offset, resumed.tenant) == (
            SPEC, 5, "alpha",
        )
        assert manager.exists(key)
        assert manager.delete(key) is True
        assert manager.resume(key, runner.miss_stream_for) is None
        assert not manager.exists(key)


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
    key = manager.run_key(spec.key())
    manager.write(key, spec, session)
    del session  # the "process" dies here

    restored = manager.resume(key, runner.miss_stream_for, spec).session
    restored.advance(None)
    assert restored.stats() == one_shot.stats()


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_every_corruption_fails_the_resume(manager, store, runner, case):
    """Each of the restores' corruption cases, encoded by the oracle
    encoder and bookmarked, fails ``CheckpointManager.resume``: resume
    validates what it seeds the kernel with."""
    spec, snap = corrupt_session(runner, case)
    blob = encode_blob(snap.kind, snap.to_payload())
    record = {
        "spec": spec.to_dict(),
        "spec_key": spec.key(),
        "stream_offset": snap.offset,
        "state_digest": blob_digest(blob),
        "tenant": None,
    }
    key = manager.run_key(spec.key())
    write_bookmark(store, key, record, blob)
    with pytest.raises(CkptError, match=CORRUPTIONS[case][2]):
        manager.resume(key, runner.miss_stream_for, spec)
