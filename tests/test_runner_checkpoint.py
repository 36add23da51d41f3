"""Runner ``checkpoint_every``: suspendable runs, byte-identical rows.

A checkpointed run must equal a plain run exactly; a run killed
mid-stream must resume from its bookmark (not restart) and still
produce the identical row; the bookmark must be gone once the row is
complete.
"""

import pytest

import repro.ckpt
from repro.ckpt import CheckpointManager, ReplaySession
from repro.errors import CkptError, ConfigurationError
from repro.run import MissStreamCache, Runner, RunSpec
from repro.store import ExperimentStore

SCALE = 0.02


@pytest.fixture
def store(tmp_path):
    return ExperimentStore(tmp_path / "store")


def _spec(mechanism="DP", **params):
    return RunSpec.of("galgel", mechanism, scale=SCALE, **params)


def test_checkpoint_every_requires_a_store():
    with pytest.raises(ConfigurationError, match="checkpoint_every"):
        Runner(checkpoint_every=100)


def test_checkpointed_row_equals_plain_row(store):
    plain = Runner(cache=MissStreamCache()).run([_spec()])
    checkpointed = Runner(
        cache=MissStreamCache(), store=store, checkpoint_every=500
    ).run([_spec()])
    assert checkpointed.to_json() == plain.to_json()


def test_completion_clears_the_bookmark(store):
    spec = _spec()
    Runner(cache=MissStreamCache(), store=store, checkpoint_every=500).run_one(spec)
    assert CheckpointManager(store).load_continuation(spec.key()) is None


def test_killed_run_resumes_from_its_bookmark(store, monkeypatch):
    """Crash after two chunks; the retry must start at the bookmark
    offset and produce the identical row."""
    spec = _spec()
    plain = Runner(cache=MissStreamCache()).run([spec])

    class _Crash(Exception):
        pass

    chunk_log = []
    real_advance = ReplaySession.advance

    def crashy_advance(self, count=None):
        chunk_log.append(self.offset)
        if len(chunk_log) == 3:
            raise _Crash()  # the "SIGKILL": bookmark for chunk 2 is on disk
        return real_advance(self, count)

    monkeypatch.setattr(ReplaySession, "advance", crashy_advance)
    runner = Runner(cache=MissStreamCache(), store=store, checkpoint_every=700)
    with pytest.raises(_Crash):
        runner.run_one(spec)
    record, _ = CheckpointManager(store).load_continuation(spec.key())
    assert record["stream_offset"] == 1400
    assert record["spec_key"] == spec.key()

    monkeypatch.setattr(ReplaySession, "advance", real_advance)
    resume_offsets = []
    real_resume = ReplaySession.resume.__func__

    def spying_resume(cls, snap, miss_trace, prefetcher):
        resume_offsets.append(snap.offset)
        return real_resume(cls, snap, miss_trace, prefetcher)

    monkeypatch.setattr(
        ReplaySession, "resume", classmethod(spying_resume)
    )
    retried = runner.run_one(spec)
    assert resume_offsets == [1400]  # resumed, not restarted
    assert retried == plain[0]
    assert CheckpointManager(store).load_continuation(spec.key()) is None


def test_gc_lost_bookmark_restarts_cleanly(store):
    """Losing a checkpoint blob to GC is never an error: the run just
    starts over and the row is still identical."""
    spec = _spec()
    plain = Runner(cache=MissStreamCache()).run([spec])
    runner = Runner(cache=MissStreamCache(), store=store, checkpoint_every=600)
    manager = CheckpointManager(store)

    # Leave a bookmark, then lose its blob.
    stream = runner.miss_stream_for(spec)
    session = ReplaySession(stream, spec.build_prefetcher())
    session.advance(900)
    record = manager.save_continuation(spec.key(), session.offset, session.snapshot())
    store.delete_ckpt(record["state_digest"])

    assert runner.run_one(spec) == plain[0]
    assert manager.load_continuation(spec.key()) is None


def test_checkpointed_batch_still_deduplicates_via_store(store):
    """checkpoint_every composes with the store's result cache: the
    second run comes back without replaying."""
    runner = Runner(cache=MissStreamCache(), store=store, checkpoint_every=500)
    first = runner.run([_spec()])
    probes_before = store.stats()["result_hits"]
    second = runner.run([_spec()])
    assert second.to_json() == first.to_json()
    assert store.stats()["result_hits"] == probes_before + 1



class TestBookmarkChecks:
    """A continuation whose record disagrees with its snapshot or with
    the spec being run is corrupt: the runner refuses to resume it."""

    def _bookmark(self, store, spec, ran=None, offset=None, spec_key=None):
        """Bookmark ``spec`` with a snapshot of ``ran`` (default: spec)
        after 300 entries; ``offset``/``spec_key`` override the record."""
        ran = ran or spec
        session = ReplaySession(
            Runner(cache=MissStreamCache()).miss_stream_for(ran),
            ran.build_prefetcher(),
            buffer_entries=ran.buffer_entries,
            max_prefetches_per_miss=ran.max_prefetches_per_miss,
        )
        session.advance(300)
        manager = CheckpointManager(store)
        record = manager.save_continuation(
            spec.key(),
            session.offset if offset is None else offset,
            session.snapshot(),
        )
        if spec_key is not None:
            record["spec_key"] = spec_key
            manager._put_record("cont:" + spec.key(), record)

    def _resume(self, store, spec):
        runner = Runner(cache=MissStreamCache(), store=store, checkpoint_every=500)
        return runner.run_one(spec)

    def test_stream_offset_must_match_the_snapshot(self, store):
        spec = _spec()
        self._bookmark(store, spec, offset=299)
        with pytest.raises(CkptError, match="stream_offset"):
            self._resume(store, spec)

    def test_spec_key_must_match_the_spec(self, store):
        spec = _spec()
        self._bookmark(store, spec, spec_key=_spec("MP").key())
        with pytest.raises(CkptError, match="spec_key"):
            self._resume(store, spec)

    def test_buffer_capacity_must_match_the_spec(self, store):
        spec = _spec()
        self._bookmark(store, spec, ran=spec.derive(buffer_entries=32))
        with pytest.raises(CkptError, match="buffer capacity"):
            self._resume(store, spec)

    def test_clamp_must_match_the_spec(self, store):
        spec = _spec()
        self._bookmark(store, spec, ran=spec.derive(max_prefetches_per_miss=1))
        with pytest.raises(CkptError, match="max_prefetches_per_miss"):
            self._resume(store, spec)
