"""Unit tests for the persistent experiment store.

Contracts under test: content-addressed round-trips for results and
miss streams, persistence across store instances (i.e. processes),
schema versioning, hit/miss/bytes accounting, and size-bounded LRU
garbage collection.
"""

import json
import sqlite3

import pytest

from repro.errors import StoreError
from repro.run import MissStreamCache, Runner, RunSpec
from repro.store import (
    STORE_SCHEMA,
    ExperimentStore,
    stream_digest_for_spec,
    stream_digest_for_trace,
)
from repro.sim.config import TLBConfig

SCALE = 0.05


def spec_of(app="galgel", mechanism="DP", **kwargs):
    kwargs.setdefault("scale", SCALE)
    return RunSpec.of(app, mechanism, **kwargs)


def run_one(spec):
    return Runner(cache=MissStreamCache()).run_one(spec)


class TestResultRoundTrip:
    def test_put_then_get(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        spec = spec_of()
        stats = run_one(spec)
        (key,) = store.put_results([(spec, stats)])
        assert key == spec.key()
        assert store.get_result(key) == stats

    def test_missing_key_is_none(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        assert store.get_result("0" * 16) is None

    def test_has_result_probe_does_not_touch_counters(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        spec = spec_of()
        assert not store.has_result(spec.key())
        store.put_results([(spec, run_one(spec))])
        assert store.has_result(spec.key())
        stats = store.stats()
        assert stats["result_hits"] == 0
        assert stats["result_misses"] == 0

    def test_persists_across_instances(self, tmp_path):
        spec = spec_of()
        stats = run_one(spec)
        ExperimentStore(tmp_path / "store").put_results([(spec, stats)])
        reopened = ExperimentStore(tmp_path / "store")
        assert reopened.get_result(spec.key()) == stats

    def test_put_is_idempotent_one_copy(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        spec = spec_of()
        stats = run_one(spec)
        store.put_results([(spec, stats)])
        store.put_results([(spec, stats)])
        assert store.stats()["result_entries"] == 1
        assert len(list((tmp_path / "store" / "results").glob("*.json"))) == 1

    def test_artifact_is_valid_versioned_json(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        spec = spec_of()
        store.put_results([(spec, run_one(spec))])
        artifact = tmp_path / "store" / "results" / f"{spec.key()}.json"
        payload = json.loads(artifact.read_text())
        assert payload["schema"] == STORE_SCHEMA
        assert payload["key"] == spec.key()
        assert payload["spec"]["workload"] == "galgel"
        assert RunSpec.from_dict(payload["spec"]).key() == spec.key()

    def test_load_results_returns_everything(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        specs = [spec_of(mechanism=m) for m in ("DP", "RP", "ASP")]
        store.put_results((spec, run_one(spec)) for spec in specs)
        results = store.load_results()
        assert len(results) == 3
        assert {run.extra["spec_key"] for run in results} == {
            spec.key() for spec in specs
        }


class TestStreamRoundTrip:
    def test_put_then_get_replays_identically(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        spec = spec_of()
        runner = Runner(cache=MissStreamCache())
        built = runner.miss_stream_for(spec)
        digest = stream_digest_for_spec(spec)
        store.put_stream(digest, built)
        loaded = store.get_stream(digest)
        assert loaded is not None
        assert loaded.as_lists() == built.as_lists()
        assert loaded.name == built.name
        assert loaded.total_references == built.total_references
        assert loaded.warmup_misses == built.warmup_misses

    def test_stream_digests_separate_tlb_shapes(self):
        assert stream_digest_for_spec(spec_of()) != stream_digest_for_spec(
            spec_of(tlb=TLBConfig(entries=64))
        )
        assert stream_digest_for_trace("abc", TLBConfig(), 0.0) != (
            stream_digest_for_trace("abc", TLBConfig(entries=64), 0.0)
        )

    def test_missing_stream_is_none(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        assert store.get_stream("f" * 24) is None


class TestAccounting:
    def test_hit_miss_counters(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        spec = spec_of()
        assert store.get_result(spec.key()) is None
        store.put_results([(spec, run_one(spec))])
        store.get_result(spec.key())
        stats = store.stats()
        assert stats["result_misses"] == 1
        assert stats["result_hits"] == 1
        assert stats["bytes_written"] > 0
        assert stats["bytes_read"] > 0

    def test_counters_persist_across_instances(self, tmp_path):
        spec = spec_of()
        store = ExperimentStore(tmp_path / "store")
        store.put_results([(spec, run_one(spec))])
        store.get_result(spec.key())
        reopened = ExperimentStore(tmp_path / "store")
        assert reopened.stats()["result_hits"] == 1

    def test_entries_listing(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        spec = spec_of()
        store.put_results([(spec, run_one(spec))])
        (entry,) = store.entries()
        assert entry["kind"] == "result"
        assert entry["key"] == spec.key()
        assert entry["workload"] == "galgel"
        assert entry["size_bytes"] > 0
        assert store.entries(kind="stream") == []
        with pytest.raises(StoreError):
            store.entries(kind="banana")


class TestSchemaVersioning:
    def test_rejects_other_schema(self, tmp_path):
        root = tmp_path / "store"
        ExperimentStore(root).close()
        db = sqlite3.connect(root / "index.sqlite")
        db.execute("UPDATE meta SET value='repro.store/v0' WHERE key='schema'")
        db.commit()
        db.close()
        with pytest.raises(StoreError, match="repro.store/v0"):
            ExperimentStore(root)

    def test_rejects_artifact_with_other_schema(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        spec = spec_of()
        store.put_results([(spec, run_one(spec))])
        artifact = tmp_path / "store" / "results" / f"{spec.key()}.json"
        payload = json.loads(artifact.read_text())
        payload["schema"] = "repro.store/v99"
        artifact.write_text(json.dumps(payload))
        with pytest.raises(StoreError, match="v99"):
            store.get_result(spec.key())

    def test_root_must_be_a_directory(self, tmp_path):
        target = tmp_path / "afile"
        target.write_text("hello")
        with pytest.raises(StoreError, match="not a directory"):
            ExperimentStore(target)


class TestGarbageCollection:
    def _filled(self, tmp_path, count=3):
        store = ExperimentStore(tmp_path / "store")
        specs = [spec_of(mechanism=m) for m in ("DP", "RP", "ASP", "MP")[:count]]
        for spec in specs:
            store.put_results([(spec, run_one(spec))])
        return store, specs

    def test_gc_to_zero_empties_store(self, tmp_path):
        store, _ = self._filled(tmp_path)
        report = store.gc(max_bytes=0)
        assert report["evicted"] == 3
        assert report["total_bytes"] == 0
        assert store.stats()["result_entries"] == 0
        assert store.stats()["evictions"] == 3
        assert list((tmp_path / "store" / "results").glob("*.json")) == []

    def test_gc_evicts_least_recently_used_first(self, tmp_path):
        store, specs = self._filled(tmp_path)
        store.get_result(specs[0].key())  # freshen the first entry
        sizes = {e["key"]: e["size_bytes"] for e in store.entries()}
        keep_budget = sizes[specs[0].key()]
        store.gc(max_bytes=keep_budget)
        remaining = [e["key"] for e in store.entries()]
        assert remaining == [specs[0].key()]

    def test_gc_order_deterministic_under_frozen_clock(self, tmp_path, monkeypatch):
        """LRU recency is a persistent counter, not wall-clock time:
        with the clock frozen (coarse ticks, identical timestamps) the
        eviction order must still follow access order exactly."""
        from repro.store import store as store_module

        monkeypatch.setattr(store_module.time, "time", lambda: 1.7e9)
        store, specs = self._filled(tmp_path, count=4)
        store.get_result(specs[2].key())
        store.get_result(specs[0].key())
        sizes = {e["key"]: e["size_bytes"] for e in store.entries()}
        budget = sizes[specs[0].key()] + sizes[specs[2].key()]
        store.gc(max_bytes=budget)
        remaining = {e["key"] for e in store.entries()}
        assert remaining == {specs[0].key(), specs[2].key()}

    def test_gc_order_survives_clock_stepping_backwards(self, tmp_path, monkeypatch):
        """An NTP step must not reorder recency: entries touched after
        the clock jumps back stay the most recently used."""
        from repro.store import store as store_module

        clock = {"now": 1.7e9}
        monkeypatch.setattr(store_module.time, "time", lambda: clock["now"])
        store, specs = self._filled(tmp_path, count=3)
        clock["now"] -= 3600.0  # NTP steps the clock an hour back...
        store.get_result(specs[1].key())  # ...then the MRU touch lands
        sizes = {e["key"]: e["size_bytes"] for e in store.entries()}
        store.gc(max_bytes=sizes[specs[1].key()])
        remaining = [e["key"] for e in store.entries()]
        assert remaining == [specs[1].key()]

    def test_gc_without_budget_is_a_no_op(self, tmp_path):
        store, _ = self._filled(tmp_path)
        report = store.gc()
        assert report["evicted"] == 0
        assert store.stats()["result_entries"] == 3

    def test_max_bytes_bounds_the_store_automatically(self, tmp_path):
        store = ExperimentStore(tmp_path / "store", max_bytes=1)
        for mechanism in ("DP", "RP", "ASP"):
            spec = spec_of(mechanism=mechanism)
            store.put_results([(spec, run_one(spec))])
        assert store.stats()["result_entries"] == 0
        assert store.stats()["evictions"] == 3

    def test_gc_sweeps_stale_tmp_files_but_spares_fresh_ones(self, tmp_path):
        import os
        import time

        store, _ = self._filled(tmp_path, count=1)
        results_dir = tmp_path / "store" / "results"
        stale = results_dir / ".dead.123.0.tmp"
        stale.write_bytes(b"partial")
        old = time.time() - 7200  # well past the sweep age threshold
        os.utime(stale, (old, old))
        fresh = results_dir / ".inflight.456.0.tmp"
        fresh.write_bytes(b"being written right now")
        store.gc()
        assert not stale.exists()  # abandoned by a crashed writer: swept
        assert fresh.exists()  # may be a live writer's rename window: kept

    def test_evicted_result_is_an_honest_miss(self, tmp_path):
        store, specs = self._filled(tmp_path, count=1)
        store.gc(max_bytes=0)
        assert store.get_result(specs[0].key()) is None
