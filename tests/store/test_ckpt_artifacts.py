"""The store's ``ckpt`` artifact kind: filing, counters, GC.

The store treats checkpoint blobs as opaque bytes — framing and
integrity live in :mod:`repro.ckpt` — but filing, LRU accounting and
eviction must work exactly like the other kinds.
"""

import pytest

from repro.store import ExperimentStore


@pytest.fixture
def store(tmp_path):
    return ExperimentStore(tmp_path / "store")


class TestFiling:
    def test_put_get_round_trip(self, store):
        assert store.put_ckpt("a" * 24, b"blob-bytes") == "a" * 24
        assert store.get_ckpt("a" * 24) == b"blob-bytes"
        assert store.has_ckpt("a" * 24)

    def test_missing_key(self, store):
        assert store.get_ckpt("b" * 24) is None
        assert not store.has_ckpt("b" * 24)

    def test_overwrite_replaces(self, store):
        store.put_ckpt("a" * 24, b"old")
        store.put_ckpt("a" * 24, b"newer")
        assert store.get_ckpt("a" * 24) == b"newer"

    def test_delete(self, store):
        store.put_ckpt("a" * 24, b"x")
        assert store.delete_ckpt("a" * 24) is True
        assert store.get_ckpt("a" * 24) is None
        assert store.delete_ckpt("a" * 24) is False

    def test_unsafe_keys_stay_inside_ckpt_dir(self, store):
        """Record keys contain ``:`` and could contain path tricks; all
        of them must file under ``ckpt/``."""
        for key in ("cont:spec/../../escape", "sess:s1", "a:b:c"):
            store.put_ckpt(key, b"x")
            assert store.get_ckpt(key) == b"x"
        inside = list((store.root / "ckpt").iterdir())
        assert len(inside) == 3
        assert not (store.root.parent / "escape.bin").exists()


class TestAccounting:
    def test_hit_miss_counters(self, store):
        store.put_ckpt("a" * 24, b"x")
        store.get_ckpt("a" * 24)
        store.get_ckpt("missing-key-000000000000")
        stats = store.stats()
        assert stats["ckpt_hits"] == 1
        assert stats["ckpt_misses"] == 1
        assert stats["ckpt_entries"] == 1

    def test_entries_lists_kind(self, store):
        store.put_ckpt("a" * 24, b"0123456789")
        (entry,) = store.entries(kind="ckpt")
        assert entry["kind"] == "ckpt"
        assert entry["key"] == "a" * 24
        assert entry["size_bytes"] == 10


class TestGC:
    def test_lru_eviction_claims_ckpts(self, store):
        store.put_ckpt("a" * 24, b"x" * 100)
        store.put_ckpt("b" * 24, b"y" * 100)
        store.get_ckpt("a" * 24)  # "a" is now most recently used
        store.gc(max_bytes=150)
        assert store.has_ckpt("a" * 24)
        assert not store.has_ckpt("b" * 24)
