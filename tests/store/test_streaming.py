"""The ``/streams`` API: chunked replay, eviction, restarts, HTTP.

Contract under test: however a stream is chunked, idled out of memory,
or carried across a service restart, the finished session's statistics
row is byte-identical to a one-shot ``POST /runs`` of the same spec.
"""

import json
import threading
import time

import pytest

from repro.run import RunSpec
from repro.service import ServiceClient, ServiceError, make_server
from repro.service.server import ExperimentService
from repro.store import ExperimentStore

from tests.ckpt.bookmarks import read_bookmark, write_bookmark

SCALE = 0.02


def _spec_dict(**overrides):
    spec = {"workload": "galgel", "mechanism": "DP", "scale": SCALE,
            "params": {"rows": 64}}
    spec.update(overrides)
    return spec


@pytest.fixture
def store(tmp_path):
    return ExperimentStore(tmp_path / "store")


@pytest.fixture
def service(store):
    return ExperimentService(store)


def _one_shot_row(service, spec_dict):
    status, payload = service.handle("POST", "/runs", body={"specs": [spec_dict]})
    assert status == 200
    return payload["runs"][0]


class TestStreamRoutes:
    def test_open_reports_stream_geometry(self, service):
        status, opened = service.handle(
            "POST", "/streams", body={"spec": _spec_dict(), "session_id": "s1"}
        )
        assert status == 200
        assert opened["session_id"] == "s1"
        assert opened["offset"] == 0
        assert opened["remaining"] == opened["total"] > 0
        assert not opened["finished"]
        assert opened["spec_key"] == RunSpec.from_dict(_spec_dict()).key()
        assert opened["state_digest"]

    def test_generated_session_ids_are_unique(self, service):
        ids = set()
        for _ in range(3):
            _, opened = service.handle(
                "POST", "/streams", body={"spec": _spec_dict()}
            )
            ids.add(opened["session_id"])
        assert len(ids) == 3

    def test_chunked_stream_matches_one_shot(self, service):
        one_shot = _one_shot_row(service, _spec_dict())
        _, opened = service.handle(
            "POST", "/streams", body={"spec": _spec_dict(), "session_id": "s1"}
        )
        chunk = opened["total"] // 5 + 1
        advanced = 0
        while True:
            status, step = service.handle(
                "POST", "/streams/s1/advance", body={"count": chunk}
            )
            assert status == 200
            advanced += step["advanced"]
            if step["finished"]:
                break
        assert advanced == opened["total"]
        assert json.dumps(step["stats"], sort_keys=True) == json.dumps(
            one_shot, sort_keys=True
        )

    def test_stats_route_does_not_advance(self, service):
        service.handle(
            "POST", "/streams", body={"spec": _spec_dict(), "session_id": "s1"}
        )
        service.handle("POST", "/streams/s1/advance", body={"count": 100})
        for _ in range(2):
            status, stats = service.handle("GET", "/streams/s1/stats")
            assert status == 200
            assert stats["offset"] == 100
        assert stats["stats"]["tlb_misses"] > 0

    def test_advance_without_count_finishes(self, service):
        service.handle(
            "POST", "/streams", body={"spec": _spec_dict(), "session_id": "s1"}
        )
        status, step = service.handle("POST", "/streams/s1/advance", body={})
        assert status == 200 and step["finished"]
        # Advancing a finished stream is a harmless no-op.
        status, step = service.handle("POST", "/streams/s1/advance", body={})
        assert status == 200 and step["advanced"] == 0

    def test_empty_advance_rewrites_nothing(self, service, store):
        """An advance that replays nothing (count 0, or a finished
        session) answers with the last digest and writes no bookmark; a
        bookmark the store lost is written back."""
        service.handle(
            "POST", "/streams", body={"spec": _spec_dict(), "session_id": "s1"}
        )
        _, step = service.handle("POST", "/streams/s1/advance", body={"count": 60})
        for body in ({"count": 0}, {"count": 0}):
            written = store.stats()["bytes_written"]
            status, idle = service.handle("POST", "/streams/s1/advance", body=body)
            assert status == 200 and idle["advanced"] == 0
            assert idle["state_digest"] == step["state_digest"]
            assert store.stats()["bytes_written"] == written
        _, done = service.handle("POST", "/streams/s1/advance", body={})
        assert done["finished"]
        written = store.stats()["bytes_written"]
        _, again = service.handle("POST", "/streams/s1/advance", body={})
        assert again["advanced"] == 0
        assert again["state_digest"] == done["state_digest"]
        assert store.stats()["bytes_written"] == written
        # A restarted service restores the session and still writes nothing.
        reborn = ExperimentService(ExperimentStore(store.root))
        _, restored = reborn.handle("POST", "/streams/s1/advance", body={"count": 0})
        assert restored["state_digest"] == done["state_digest"]
        assert store.stats()["bytes_written"] == written
        # A lost bookmark is written again, with the same digest.
        key = service.ckpt.stream_key("s1")
        assert store.delete_ckpt(key)
        _, rewritten = service.handle("POST", "/streams/s1/advance", body={"count": 0})
        assert rewritten["state_digest"] == done["state_digest"]
        assert read_bookmark(store, key)[0]["state_digest"] == done["state_digest"]
        assert store.stats()["bytes_written"] > written

    def test_advances_keep_one_ckpt_entry(self, service, store):
        """However often a session advances, its bookmark is one store
        entry, the size of the last write."""
        _, opened = service.handle(
            "POST", "/streams", body={"spec": _spec_dict(), "session_id": "s1"}
        )
        chunk = opened["total"] // 6 + 1
        for _ in range(6):
            written = store.stats()["bytes_written"]
            _, step = service.handle(
                "POST", "/streams/s1/advance", body={"count": chunk}
            )
            (entry,) = store.entries(kind="ckpt")
            assert entry["key"] == service.ckpt.stream_key("s1")
            assert entry["size_bytes"] == store.stats()["bytes_written"] - written
        assert step["finished"]

    def test_stats_envelope_counts_streams(self, service):
        service.handle(
            "POST", "/streams", body={"spec": _spec_dict(), "session_id": "s1"}
        )
        _, stats = service.handle("GET", "/stats")
        assert stats["streams"] == {"active": 1, "restored": 0, "evicted": 0}


class TestStreamErrors:
    def test_duplicate_session_id_conflicts(self, service):
        service.handle(
            "POST", "/streams", body={"spec": _spec_dict(), "session_id": "s1"}
        )
        status, payload = service.handle(
            "POST", "/streams", body={"spec": _spec_dict(), "session_id": "s1"}
        )
        assert status == 409
        assert "already exists" in payload["error"]

    def test_duplicate_of_a_bookmarked_session_conflicts(self, service, store):
        """A session no longer in memory still owns its id: its
        bookmark answers the 409, on this service and a restarted one."""
        body = {"spec": _spec_dict(), "session_id": "s1"}
        service.handle("POST", "/streams", body=body)
        service.handle("POST", "/streams/s1/advance", body={"count": 50})
        service._sessions.clear()
        reborn = ExperimentService(ExperimentStore(store.root))
        for live in (service, reborn):
            assert live.handle("POST", "/streams", body=body)[0] == 409
        _, stats = reborn.handle("GET", "/streams/s1/stats")
        assert stats["offset"] == 50

    def test_unknown_session(self, service):
        assert service.handle("POST", "/streams/nope/advance", body={})[0] == 404
        assert service.handle("GET", "/streams/nope/stats")[0] == 404

    def test_bad_bodies(self, service):
        assert service.handle("POST", "/streams", body={})[0] == 400
        assert service.handle("POST", "/streams", body={"spec": 3})[0] == 400
        assert (
            service.handle(
                "POST", "/streams",
                body={"spec": _spec_dict(workload="not-an-app")},
            )[0]
            == 400
        )
        assert (
            service.handle(
                "POST", "/streams", body={"spec": _spec_dict(), "session_id": "a/b"}
            )[0]
            == 400
        )

    def test_bad_count(self, service):
        service.handle(
            "POST", "/streams", body={"spec": _spec_dict(), "session_id": "s1"}
        )
        for count in (-1, 1.5, "ten", True):
            status, payload = service.handle(
                "POST", "/streams/s1/advance", body={"count": count}
            )
            assert status == 400, count
            assert "count" in payload["error"]

    def test_unknown_stream_verb(self, service):
        assert service.handle("POST", "/streams/s1/rewind", body={})[0] == 404
        assert service.handle("GET", "/streams/s1/rewind")[0] == 404

    def test_gc_lost_checkpoint_is_gone(self, service, store):
        """A bookmark in an earlier release's layout whose separately
        filed blob GC claimed cannot be restored: 410."""
        _, opened = service.handle(
            "POST", "/streams", body={"spec": _spec_dict(), "session_id": "s1"}
        )
        # Forget the live session, refile it as a legacy bookmark, then
        # lose its blob.
        service._sessions.clear()
        key = service.ckpt.stream_key("s1")
        write_bookmark(store, key, *read_bookmark(store, key), legacy=True)
        assert store.delete_ckpt(opened["state_digest"])
        status, payload = service.handle("POST", "/streams/s1/advance", body={})
        assert status == 410
        assert "garbage-collected" in payload["error"]


class TestEvictionAndRestore:
    def test_idle_sessions_are_evicted_and_restored_on_touch(self, store):
        service = ExperimentService(store, max_idle_seconds=0.05)
        one_shot = _one_shot_row(service, _spec_dict())
        service.handle(
            "POST", "/streams", body={"spec": _spec_dict(), "session_id": "s1"}
        )
        service.handle("POST", "/streams/s1/advance", body={"count": 500})
        time.sleep(0.1)
        # Any stream POST sweeps idle sessions out of memory.
        service.handle(
            "POST", "/streams", body={"spec": _spec_dict(), "session_id": "s2"}
        )
        assert "s1" not in service._sessions
        _, stats = service.handle("GET", "/stats")
        assert stats["streams"]["evicted"] == 1
        # ...but the next touch restores s1 exactly where it paused.
        status, step = service.handle("POST", "/streams/s1/advance", body={})
        assert status == 200 and step["finished"]
        assert json.dumps(step["stats"], sort_keys=True) == json.dumps(
            one_shot, sort_keys=True
        )
        _, stats = service.handle("GET", "/stats")
        assert stats["streams"]["restored"] == 1

    def test_stream_survives_a_service_restart(self, store):
        first = ExperimentService(store)
        one_shot = _one_shot_row(first, _spec_dict())
        first.handle(
            "POST", "/streams", body={"spec": _spec_dict(), "session_id": "s1"}
        )
        first.handle("POST", "/streams/s1/advance", body={"count": 700})

        # A brand-new service over the same store: no memory of s1.
        reborn = ExperimentService(ExperimentStore(store.root))
        status, stats = reborn.handle("GET", "/streams/s1/stats")
        assert status == 200 and stats["offset"] == 700
        status, step = reborn.handle("POST", "/streams/s1/advance", body={})
        assert status == 200 and step["finished"]
        assert json.dumps(step["stats"], sort_keys=True) == json.dumps(
            one_shot, sort_keys=True
        )


class TestResumeRecordChecks:
    """A session record that disagrees with its snapshot or its spec is
    corrupt: resuming it would replay some other run, so the restore
    answers 500 through the corrupt-artifact path instead."""

    def _paused(self, service):
        service.handle(
            "POST", "/streams", body={"spec": _spec_dict(), "session_id": "s1"}
        )
        service.handle("POST", "/streams/s1/advance", body={"count": 500})
        service._sessions.clear()
        return read_bookmark(service.store, service.ckpt.stream_key("s1"))[0]

    def _advance_with(self, service, record):
        key = service.ckpt.stream_key("s1")
        write_bookmark(service.store, key, record, read_bookmark(service.store, key)[1])
        return service.handle("POST", "/streams/s1/advance", body={})

    def test_stream_offset_must_match_the_snapshot(self, service):
        record = self._paused(service)
        record["stream_offset"] = 499
        status, payload = self._advance_with(service, record)
        assert status == 500 and "stream_offset" in payload["error"]

    def test_spec_key_must_match_the_spec(self, service):
        record = self._paused(service)
        record["spec_key"] = RunSpec.from_dict(_spec_dict(mechanism="MP")).key()
        status, payload = self._advance_with(service, record)
        assert status == 500 and "spec_key" in payload["error"]

    def _respec(self, record, **changes):
        spec = RunSpec.from_dict(record["spec"]).derive(**changes)
        record.update(spec=spec.to_dict(), spec_key=spec.key())
        return record

    def test_buffer_capacity_must_match_the_spec(self, service):
        record = self._respec(self._paused(service), buffer_entries=32)
        status, payload = self._advance_with(service, record)
        assert status == 500 and "buffer capacity" in payload["error"]

    def test_clamp_must_match_the_spec(self, service):
        record = self._respec(self._paused(service), max_prefetches_per_miss=1)
        status, payload = self._advance_with(service, record)
        assert status == 500 and "max_prefetches_per_miss" in payload["error"]

    def test_consistent_record_still_resumes(self, service):
        record = self._paused(service)
        status, payload = self._advance_with(service, record)
        assert status == 200 and payload["finished"]


class TestOverHTTP:
    @pytest.fixture
    def server(self, tmp_path):
        server = make_server(tmp_path / "store", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    @pytest.fixture
    def client(self, server):
        client = ServiceClient(server.url)
        client.wait_healthy()
        return client

    def test_client_wrappers_round_trip(self, client):
        one_shot = client.submit([_spec_dict()])["runs"][0]
        opened = client.stream_open(_spec_dict(), session_id="s one")
        assert opened["session_id"] == "s one"  # ids are URL-quoted
        step = client.stream_advance("s one", count=opened["total"] // 2)
        assert 0 < step["offset"] < opened["total"]
        assert client.stream_stats("s one")["offset"] == step["offset"]
        final = client.stream_advance("s one", timeout=120.0)
        assert final["finished"]
        assert json.dumps(final["stats"], sort_keys=True) == json.dumps(
            one_shot, sort_keys=True
        )

    def test_http_errors_carry_payloads(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.stream_advance("missing")
        assert excinfo.value.status == 404
        client.stream_open(_spec_dict(), session_id="dup")
        with pytest.raises(ServiceError) as excinfo:
            client.stream_open(_spec_dict(), session_id="dup")
        assert excinfo.value.status == 409

    def test_per_request_timeout_override(self, client, monkeypatch):
        import urllib.request

        seen = []
        real_urlopen = urllib.request.urlopen

        def spying_urlopen(request, timeout=None):
            seen.append(timeout)
            return real_urlopen(request, timeout=timeout)

        monkeypatch.setattr(urllib.request, "urlopen", spying_urlopen)
        client.request("/stats", timeout=123.0)
        client.request("/stats")
        assert seen == [123.0, client.timeout]
