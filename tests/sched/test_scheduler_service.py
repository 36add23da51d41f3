"""Scheduler endpoints and client satellites, without a worker fleet.

Routes are exercised through ``ExperimentService.handle`` (no sockets),
with a fake-clock :class:`JobQueue` where lease expiry matters. The
client-side satellites — bounded retry with backoff on transient
transport failures, and ``GET /results`` pagination — are covered here
too.
"""

import os

import pytest

from repro.run import MissStreamCache, Runner, RunSpec
from repro.sched import JobQueue
from repro.service import ExperimentService, ServiceClient, ServiceError
from repro.store import ExperimentStore

SCALE = 0.05

SPEC = {
    "workload": "galgel",
    "mechanism": "DP",
    "scale": SCALE,
    "params": {"rows": 64, "slots": 2},
}
OTHER_SPEC = {
    "workload": "swim",
    "mechanism": "RP",
    "scale": SCALE,
}


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def service(tmp_path, clock):
    store = ExperimentStore(tmp_path / "store")
    queue = JobQueue(tmp_path / "store" / "jobs.sqlite", clock=clock)
    return ExperimentService(store, queue=queue)


def ok(status_payload):
    status, payload = status_payload
    assert status == 200, payload
    return payload


class TestJobSubmission:
    def test_submit_then_claim_then_complete_lands_in_store(self, service):
        batch = ok(service.handle("POST", "/jobs", {}, {"specs": [SPEC]}))
        assert batch["total"] == 1
        assert batch["queued"] == 1
        (job_ref,) = batch["jobs"]
        assert job_ref["spec_key"] == RunSpec.from_dict(SPEC).key()

        claim = ok(service.handle("POST", "/claim", {}, {"worker_id": "w1"}))
        (job,) = claim["jobs"]
        assert job["spec"] == RunSpec.from_dict(SPEC).to_dict()

        from dataclasses import asdict

        stats = Runner(cache=MissStreamCache()).run([RunSpec.from_dict(SPEC)])[0]
        done = ok(
            service.handle(
                "POST", "/complete", {},
                {"job_id": job["id"], "worker_id": "w1", "run": asdict(stats)},
            )
        )
        assert done["state"] == "done"
        assert done["stored"] is True
        assert service.store.has_result(job["spec_key"])
        fetched = ok(service.handle("GET", f"/runs/{job['spec_key']}", {}))
        assert fetched["run"]["workload"] == "galgel"

        progress = ok(service.handle("GET", "/progress", {"sweep_id": batch["sweep_id"]}))
        assert progress["done"] == 1 and progress["pending"] == 0

    def test_stored_specs_are_precompleted_at_submission(self, service):
        spec = RunSpec.from_dict(SPEC)
        Runner(cache=MissStreamCache(), store=service.store).run([spec])
        batch = ok(service.handle("POST", "/jobs", {}, {"specs": [SPEC, OTHER_SPEC]}))
        assert batch["precompleted"] == 1
        assert batch["queued"] == 1
        states = {job["spec_key"]: job["state"] for job in batch["jobs"]}
        assert states[spec.key()] == "done"

    def test_claim_consults_the_store_before_handing_out(self, service):
        batch = ok(service.handle("POST", "/jobs", {}, {"specs": [SPEC]}))
        # The spec lands in the store between submission and claim
        # (another sweep, another worker): the claim must not hand it out.
        Runner(cache=MissStreamCache(), store=service.store).run(
            [RunSpec.from_dict(SPEC)]
        )
        claim = ok(service.handle("POST", "/claim", {}, {"worker_id": "w1"}))
        assert claim["jobs"] == []
        (job_ref,) = batch["jobs"]
        job = ok(service.handle("GET", f"/jobs/{job_ref['id']}", {}))["job"]
        assert job["state"] == "done"
        assert job["result_source"] == "store"

    def test_bad_specs_and_ids_are_client_errors(self, service):
        status, payload = service.handle(
            "POST", "/jobs", {}, {"specs": [{"workload": "galgel", "bogus": 1}]}
        )
        assert status == 400 and "bogus" in payload["error"]
        status, _ = service.handle("POST", "/jobs", {}, {"specs": "galgel"})
        assert status == 400
        status, _ = service.handle("POST", "/claim", {}, {"worker_id": ""})
        assert status == 400
        status, _ = service.handle("POST", "/claim", {}, {"worker_id": "w", "limit": 0})
        assert status == 400
        status, _ = service.handle("GET", "/jobs/a/b", {})
        assert status == 400
        status, _ = service.handle("GET", "/jobs/none", {})
        assert status == 404
        status, _ = service.handle("POST", "/complete", {}, {"job_id": "none"})
        assert status == 404
        status, _ = service.handle("POST", "/cancel", {}, {"sweep_id": ""})
        assert status == 400


class TestCompletion:
    def _claimed_job(self, service, spec=SPEC):
        ok(service.handle("POST", "/jobs", {}, {"specs": [spec], "max_attempts": 2}))
        claim = ok(service.handle("POST", "/claim", {}, {"worker_id": "w1"}))
        return claim["jobs"][0]

    def test_duplicate_complete_is_idempotent(self, service):
        from dataclasses import asdict

        job = self._claimed_job(service)
        stats = Runner(cache=MissStreamCache()).run([RunSpec.from_dict(SPEC)])[0]
        body = {"job_id": job["id"], "worker_id": "w1", "run": asdict(stats)}
        first = ok(service.handle("POST", "/complete", {}, body))
        again = ok(service.handle("POST", "/complete", {}, dict(body, worker_id="w2")))
        assert (first["duplicate"], again["duplicate"]) == (False, True)
        assert (first["stored"], again["stored"]) == (True, False)
        assert service.store.stats()["result_entries"] == 1

    def test_mismatched_result_row_is_rejected(self, service):
        from dataclasses import asdict

        job = self._claimed_job(service)
        wrong = Runner(cache=MissStreamCache()).run(
            [RunSpec.from_dict(OTHER_SPEC)]
        )[0]
        status, payload = service.handle(
            "POST", "/complete", {},
            {"job_id": job["id"], "worker_id": "w1", "run": asdict(wrong)},
        )
        assert status == 400
        assert "holds spec" in payload["error"]
        assert not service.store.has_result(job["spec_key"])

    def test_malformed_result_row_is_rejected(self, service):
        job = self._claimed_job(service)
        status, payload = service.handle(
            "POST", "/complete", {},
            {"job_id": job["id"], "worker_id": "w1", "run": {"nope": 1}},
        )
        assert status == 400 and "malformed result row" in payload["error"]

    def test_error_report_requeues_then_parks(self, service):
        job = self._claimed_job(service)
        retried = ok(
            service.handle(
                "POST", "/complete", {},
                {"job_id": job["id"], "worker_id": "w1", "error": "boom"},
            )
        )
        assert retried["state"] == "queued"
        claim = ok(service.handle("POST", "/claim", {}, {"worker_id": "w1"}))
        (job,) = claim["jobs"]
        parked = ok(
            service.handle(
                "POST", "/complete", {},
                {"job_id": job["id"], "worker_id": "w1", "error": "boom again"},
            )
        )
        assert parked["state"] == "failed"
        progress = ok(service.handle("GET", "/progress", {}))
        assert progress["failed_jobs"][0]["error"] == "boom again"

    def test_heartbeat_route(self, service):
        job = self._claimed_job(service)
        beat = ok(
            service.handle(
                "POST", "/heartbeat", {},
                {"worker_id": "w1", "job_ids": [job["id"], "ghost:0"]},
            )
        )
        assert beat["owned"] == [job["id"]]
        assert beat["lost"] == ["ghost:0"]
        status, _ = service.handle(
            "POST", "/heartbeat", {}, {"worker_id": "w1", "job_ids": "oops"}
        )
        assert status == 400

    def test_cancel_route_and_stats_expose_the_queue(self, service):
        batch = ok(service.handle("POST", "/jobs", {}, {"specs": [SPEC, OTHER_SPEC]}))
        outcome = ok(
            service.handle("POST", "/cancel", {}, {"sweep_id": batch["sweep_id"]})
        )
        assert outcome["cancelled"] == 2
        stats = ok(service.handle("GET", "/stats", {}))
        assert stats["queue"]["cancelled"] == 2
        assert stats["queue"]["counters"]["jobs_submitted"] == 2


class TestResultsPagination:
    @pytest.fixture
    def populated(self, service):
        specs = [
            RunSpec.of("galgel", mech, scale=SCALE, rows=64)
            for mech in ("DP", "RP", "ASP", "MP")
        ]
        Runner(cache=MissStreamCache(), store=service.store).run(specs)
        return service

    def test_pages_walk_the_full_set(self, populated):
        full = ok(populated.handle("GET", "/results", {}))
        assert full["total"] == 4 and full["count"] == 4
        assert full["limit"] is None and full["offset"] == 0

        seen = []
        for offset in range(0, 4, 2):
            page = ok(
                populated.handle("GET", "/results", {"limit": "2", "offset": str(offset)})
            )
            assert page["total"] == 4
            assert page["count"] == 2
            seen.extend(run["mechanism"] for run in page["runs"])
        assert seen == [run["mechanism"] for run in full["runs"]]

    def test_pagination_composes_with_filters(self, populated):
        page = ok(
            populated.handle(
                "GET", "/results", {"workload": "galgel", "limit": "1", "offset": "3"}
            )
        )
        assert page["total"] == 4 and page["count"] == 1
        page = ok(populated.handle("GET", "/results", {"limit": "0"}))
        assert page["count"] == 0 and page["total"] == 4

    def test_bad_page_parameters_are_400(self, populated):
        for query in ({"limit": "-1"}, {"offset": "-2"}, {"limit": "many"}):
            status, payload = populated.handle("GET", "/results", query)
            assert status == 400, payload

    def test_unfiltered_pages_read_only_their_page(self, populated):
        # Unfiltered pagination goes through the index's LIMIT/OFFSET:
        # the bytes-read counter must grow by one artifact, not four.
        store = populated.store
        full_bytes = store.stats()["bytes_read"]
        ok(populated.handle("GET", "/results", {}))
        full_cost = store.stats()["bytes_read"] - full_bytes

        page_bytes = store.stats()["bytes_read"]
        page = ok(populated.handle("GET", "/results", {"limit": "1", "offset": "2"}))
        page_cost = store.stats()["bytes_read"] - page_bytes
        assert page["count"] == 1 and page["total"] == 4
        assert 0 < page_cost < full_cost

    def test_store_level_pagination_matches_slicing(self, populated):
        store = populated.store
        everything = store.load_results()
        assert store.count_results() == len(everything) == 4
        paged = store.load_results(limit=2, offset=1)
        assert [run.mechanism for run in paged] == [
            run.mechanism for run in everything[1:3]
        ]
        assert len(store.load_results(offset=3)) == 1
        assert len(store.load_results(limit=0)) == 0


class FakeResponse:
    """The parts of ``http.client.HTTPResponse`` the client reads."""

    will_close = False

    def __init__(self, status, data, headers=None):
        self.status = status
        self.data = data
        self.headers = headers or {}

    def read(self):
        return self.data

    def getheader(self, name, default=None):
        return self.headers.get(name, default)


def _scripted_client(monkeypatch, outcomes):
    """A client whose connections pop scripted outcomes per request:
    an exception to raise, a response, or the bytes of a 200."""
    calls = []
    connects = []

    class FakeConnection:
        sock = None

        def request(self, method, url, body=None, headers=None):
            calls.append((method, url))
            self.outcome = outcomes.pop(0)
            if isinstance(self.outcome, Exception):
                raise self.outcome

        def getresponse(self):
            if isinstance(self.outcome, FakeResponse):
                return self.outcome
            return FakeResponse(200, self.outcome)

        def close(self):
            pass

    def fake_connect(client, timeout):
        connects.append(timeout)
        return FakeConnection()

    monkeypatch.setattr(ServiceClient, "_connect", fake_connect)
    client = ServiceClient("http://x", max_retries=3, retry_backoff=0.001)
    client.connects = connects
    return client, calls


class TestClientRetries:
    _client = staticmethod(_scripted_client)

    def test_transient_failures_on_gets_are_retried(self, monkeypatch):
        client, calls = self._client(
            monkeypatch,
            [
                ConnectionRefusedError("refused"),
                ConnectionResetError("reset"),
                b'{"ok": true}',
            ],
        )
        assert client.request("/stats") == {"ok": True}
        assert len(calls) == 3
        assert client.retries == 2

    def test_retries_are_bounded(self, monkeypatch):
        client, calls = self._client(
            monkeypatch, [ConnectionRefusedError("refused")] * 4
        )
        with pytest.raises(ServiceError) as exc_info:
            client.request("/stats")
        assert exc_info.value.status == 0
        assert len(calls) == 4  # 1 try + 3 retries
        assert client.retries == 3

    def test_non_idempotent_posts_are_not_retried(self, monkeypatch):
        client, calls = self._client(monkeypatch, [ConnectionRefusedError("refused")])
        with pytest.raises(ServiceError):
            client.request("/runs", {"specs": []})
        assert len(calls) == 1
        assert client.retries == 0

    def test_claim_posts_are_retried_when_marked_idempotent(self, monkeypatch):
        client, calls = self._client(
            monkeypatch,
            [ConnectionResetError("reset"), b'{"jobs": []}'],
        )
        assert client.request("/claim", {"worker_id": "w"}, idempotent=True) == {
            "jobs": []
        }
        assert len(calls) == 2
        assert client.retries == 1

    def test_retry_jitter_leaves_global_rng_untouched(self, monkeypatch):
        """Backoff jitter draws from the client's private RNG: a host
        process that seeded ``random`` (the differential harness, the
        hypothesis suites) must see an unperturbed stream."""
        import random

        random.seed(20020525)
        expected_state = random.getstate()
        client, calls = self._client(
            monkeypatch, [ConnectionRefusedError("refused")] * 4
        )
        with pytest.raises(ServiceError):
            client.request("/stats")
        assert client.retries == 3  # jitter was actually drawn
        assert random.getstate() == expected_state

    def test_http_errors_are_never_retried(self, monkeypatch):
        error = FakeResponse(500, b'{"error": "boom"}')
        client, calls = self._client(monkeypatch, [error])
        with pytest.raises(ServiceError) as exc_info:
            client.request("/stats")
        assert exc_info.value.status == 500
        assert len(calls) == 1
        assert client.retries == 0


class TestKeptAliveConnections:
    """One connection per thread carries request after request; a
    failure on a reused one is resent at once only when resending is
    safe."""

    _client = staticmethod(_scripted_client)

    def test_one_connection_carries_every_request(self, monkeypatch):
        client, calls = self._client(monkeypatch, [b"{}"] * 3)
        client.request("/stats")
        client.request("/runs", {"specs": []})
        client.request("/stats", timeout=5.0)
        assert len(calls) == 3
        assert client.connects == [client.timeout]

    def test_a_reused_get_is_resent_at_once_on_a_fresh_connection(self, monkeypatch):
        client, calls = self._client(
            monkeypatch, [b"{}", ConnectionResetError("closed"), b'{"ok": true}']
        )
        client.request("/stats")
        assert client.request("/stats") == {"ok": True}
        assert len(client.connects) == 2
        assert client.retries == 1
        assert client.backoff_seconds == 0.0

    def test_a_reused_post_is_not_resent(self, monkeypatch):
        client, calls = self._client(
            monkeypatch, [b"{}", ConnectionResetError("closed"), b"{}"]
        )
        client.request("/stats")
        with pytest.raises(ServiceError) as exc_info:
            client.request("/streams/s/advance", {"count": 1})
        assert exc_info.value.status == 0
        assert len(calls) == 2
        assert client.retries == 0

    def test_the_resend_happens_once(self, monkeypatch):
        client, calls = self._client(
            monkeypatch, [b"{}", ConnectionResetError("closed")]
            + [ConnectionRefusedError("refused")] * 4,
        )
        client.request("/stats")
        with pytest.raises(ServiceError):
            client.request("/stats")
        # The resend, then the backoff schedule's 1 try + 3 retries.
        assert len(calls) == 6
        assert client.retries == 4

    def test_a_timeout_on_a_reused_connection_backs_off(self, monkeypatch):
        client, calls = self._client(
            monkeypatch, [b"{}", TimeoutError("slow"), b'{"ok": true}']
        )
        client.request("/stats")
        assert client.request("/stats") == {"ok": True}
        assert client.retries == 1
        assert client.backoff_seconds > 0.0

    def test_a_forked_child_opens_its_own_connection(self, monkeypatch):
        client, calls = self._client(monkeypatch, [b"{}"] * 2)
        client.request("/stats")
        parent = os.getpid()
        monkeypatch.setattr(os, "getpid", lambda: parent + 1)
        client.request("/stats")
        assert len(client.connects) == 2

    def test_a_closing_response_drops_its_connection(self, monkeypatch):
        closing = FakeResponse(200, b"{}")
        closing.will_close = True
        client, calls = self._client(monkeypatch, [closing, b"{}"])
        client.request("/stats")
        client.request("/stats")
        assert len(client.connects) == 2

    def test_each_thread_has_its_own_connection(self, monkeypatch):
        import threading

        client, calls = self._client(monkeypatch, [b"{}"] * 3)
        client.request("/stats")
        thread = threading.Thread(target=client.request, args=("/stats",))
        thread.start()
        thread.join()
        client.request("/stats")
        assert len(client.connects) == 2
