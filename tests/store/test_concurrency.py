"""Store robustness: racing writers, corrupt artifacts, GC vs readers.

Three hazards a durable cache must survive:

- two *processes* writing the same spec key concurrently — one winner,
  no torn files, the store stays readable;
- a truncated/garbled artifact — a clear :class:`StoreError` naming the
  file, never a bare ``JSONDecodeError``/npz decode error;
- garbage collection racing a reader — an artifact collected between
  the index lookup and the file read is an honest miss, never an error.
"""

import builtins
import io
import json
import multiprocessing
import os
import pathlib
import sys

import pytest

from repro.errors import StoreError
from repro.run import MissStreamCache, Runner, RunSpec
from repro.store import ExperimentStore, stream_digest_for_spec

SCALE = 0.05


def spec_of(app="galgel", mechanism="DP", **kwargs):
    kwargs.setdefault("scale", SCALE)
    return RunSpec.of(app, mechanism, **kwargs)


def _write_same_key(store_dir: str, barrier, failures) -> None:
    """Child-process entry: compute one spec and store it, in lockstep."""
    try:
        spec = RunSpec.of("galgel", "DP", scale=SCALE)
        stats = Runner(cache=MissStreamCache()).run_one(spec)
        store = ExperimentStore(store_dir)
        barrier.wait(timeout=60)  # maximize write overlap
        for _ in range(5):
            store.put_results([(spec, stats)])
    except BaseException as exc:  # pragma: no cover - failure reporting
        failures.put(repr(exc))


class TestConcurrentWriters:
    def test_two_processes_same_key_one_winner_no_torn_files(self, tmp_path):
        store_dir = str(tmp_path / "store")
        ExperimentStore(store_dir).close()  # create the schema up front
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(2)
        failures = context.Queue()
        workers = [
            context.Process(target=_write_same_key, args=(store_dir, barrier, failures))
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0
        assert failures.empty()

        store = ExperimentStore(store_dir)
        spec = spec_of()
        # Exactly one intact copy, identical to a local computation.
        assert store.stats()["result_entries"] == 1
        loaded = store.get_result(spec.key())
        expected = Runner(cache=MissStreamCache()).run_one(spec)
        assert loaded == expected
        artifacts = list(pathlib.Path(store_dir, "results").glob("*"))
        assert [path.name for path in artifacts] == [f"{spec.key()}.json"]


class TestCorruptArtifacts:
    def _stored(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        spec = spec_of()
        stats = Runner(cache=MissStreamCache()).run_one(spec)
        store.put_results([(spec, stats)])
        return store, spec

    def test_truncated_result_raises_store_error(self, tmp_path):
        store, spec = self._stored(tmp_path)
        artifact = tmp_path / "store" / "results" / f"{spec.key()}.json"
        artifact.write_bytes(artifact.read_bytes()[:20])  # torn write
        with pytest.raises(StoreError, match=str(artifact)):
            store.get_result(spec.key())

    def test_garbage_result_raises_store_error_not_json_error(self, tmp_path):
        store, spec = self._stored(tmp_path)
        artifact = tmp_path / "store" / "results" / f"{spec.key()}.json"
        artifact.write_text("not json at all")
        with pytest.raises(StoreError):
            store.get_result(spec.key())
        # And never the raw decoder error:
        try:
            store.get_result(spec.key())
        except StoreError as exc:
            assert not isinstance(exc, json.JSONDecodeError)

    def test_result_with_wrong_row_shape_raises_store_error(self, tmp_path):
        store, spec = self._stored(tmp_path)
        artifact = tmp_path / "store" / "results" / f"{spec.key()}.json"
        payload = json.loads(artifact.read_text())
        payload["run"] = {"workload": "galgel"}  # missing every counter
        artifact.write_text(json.dumps(payload))
        with pytest.raises(StoreError, match="corrupt result artifact"):
            store.get_result(spec.key())

    def test_truncated_stream_raises_store_error(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        spec = spec_of()
        runner = Runner(cache=MissStreamCache(), store=store)
        runner.miss_stream_for(spec)  # builds + persists the stream
        digest = stream_digest_for_spec(spec)
        (artifact,) = (tmp_path / "store" / "streams").glob("*.npz")
        artifact.write_bytes(artifact.read_bytes()[:30])
        with pytest.raises(StoreError, match="corrupt miss-stream artifact"):
            store.get_stream(digest)

    def _one_artifact(self, tmp_path, kind):
        """A store holding one artifact of ``kind``, its key and its reader."""
        if kind == "result":
            store, spec = self._stored(tmp_path)
            return store, spec.key(), store.get_result
        store = ExperimentStore(tmp_path / "store")
        if kind == "stream":
            spec = spec_of()
            Runner(cache=MissStreamCache(), store=store).miss_stream_for(spec)
            return store, stream_digest_for_spec(spec), store.get_stream
        store.put_ckpt("ckpt-key", b"checkpoint blob")
        return store, "ckpt-key", store.get_ckpt

    @pytest.mark.parametrize(
        "kind, moment",
        [
            pytest.param(kind, moment, id=kind[0] + moment[0])
            for kind in ("result", "stream", "ckpt")
            for moment in ("before", "during")
        ],
    )
    def test_deleted_artifact_is_a_miss_not_an_error(
        self, tmp_path, monkeypatch, kind, moment
    ):
        store, key, read = self._one_artifact(tmp_path, kind)
        (entry,) = store.entries(kind)
        artifact = tmp_path / "store" / entry["path"]
        if moment == "before":
            artifact.unlink()
        else:
            # Another process's ``cache gc`` collects the file after the
            # index lookup, just as the reader opens it.
            real_open = io.open

            def racing_open(file, *args, **kwargs):
                if isinstance(file, (str, os.PathLike)) and pathlib.Path(file) == artifact:
                    artifact.unlink(missing_ok=True)
                return real_open(file, *args, **kwargs)

            monkeypatch.setattr(io, "open", racing_open)
            monkeypatch.setattr(builtins, "open", racing_open)
        misses = store.stats()[f"{kind}_misses"]
        assert read(key) is None
        monkeypatch.undo()
        assert store.stats()[f"{kind}_misses"] == misses + 1
        assert store.entries(kind) == []  # the stale row is dropped


if sys.platform.startswith("win"):  # pragma: no cover
    pytest.skip("POSIX-only concurrency assumptions", allow_module_level=True)
