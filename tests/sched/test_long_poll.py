"""Work hand-over without sleep-polls: long-polled claims and progress,
and one ``/complete`` per claimed batch.

Routes run through ``ExperimentService.handle`` (no sockets) unless the
behaviour under test is the HTTP server's own: shutdown, and the sweep
client's ``submit_sweep`` deadline.
"""

import json
import sys
import threading
import time
from dataclasses import asdict

import pytest

from repro.errors import SchedulerError
from repro.obs import is_enabled
from repro.run import MissStreamCache, Runner, RunSpec
from repro.sched import SchedulerClient, Worker
from repro.service import (
    AdmissionController,
    ExperimentService,
    TenantConfig,
    make_server,
)
from repro.service.admission import MAX_PARKED_PER_TENANT
from repro.service.client import ServiceError
from repro.service.server import _OBS_HTTP_SECONDS, MAX_WAIT_SECONDS
from repro.store import ExperimentStore

SCALE = 0.05
SPECS = [
    RunSpec.of("galgel", mechanism, scale=SCALE, rows=64)
    for mechanism in ("DP", "RP", "ASP")
]

ALPHA = TenantConfig(name="alpha", token="alpha-token")
BETA = TenantConfig(name="beta", token="beta-token")


@pytest.fixture
def service(tmp_path):
    service = ExperimentService(ExperimentStore(tmp_path / "store"))
    yield service
    service.close()
    service.queue.close()
    service.store.close()


@pytest.fixture(scope="module")
def rows():
    """Reference rows for SPECS, keyed by spec key."""
    runs = Runner(cache=MissStreamCache()).run(SPECS)
    return {spec.key(): asdict(run) for spec, run in zip(SPECS, runs)}


def ok(status_payload):
    status, payload = status_payload
    assert status == 200, payload
    return payload


def submit(service, specs=SPECS, **body):
    return ok(
        service.handle(
            "POST", "/jobs", body={"specs": [s.to_dict() for s in specs], **body}
        )
    )


def claim(service, **body):
    return ok(service.handle("POST", "/claim", body={"worker_id": "w1", **body}))


def in_thread(call):
    """Start ``call`` in a thread; returns (thread, box) where ``box``
    receives the result and the monotonic time it returned."""
    box = {}

    def target():
        box["result"] = call()
        box["at"] = time.monotonic()

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, box


class TestLongPollClaim:
    def test_a_blocked_claim_returns_right_after_a_submit(self, service):
        thread, box = in_thread(lambda: claim(service, wait=5, limit=4))
        time.sleep(0.2)
        assert thread.is_alive()  # blocked on the empty queue
        submit(service)
        submitted = time.monotonic()
        thread.join(timeout=5)
        assert len(box["result"]["jobs"]) == len(SPECS)
        assert box["at"] - submitted < 0.05

    def test_a_claim_without_wait_answers_at_once(self, service):
        began = time.monotonic()
        assert claim(service)["jobs"] == []
        assert time.monotonic() - began < 0.1

    def test_the_wait_runs_out_with_an_empty_claim(self, service):
        began = time.monotonic()
        assert claim(service, wait=0.2)["jobs"] == []
        assert 0.2 <= time.monotonic() - began < 2.0

    def test_wait_is_validated_and_capped(self, service):
        for bad in (-1, "soon", True):
            status, payload = service.handle(
                "POST", "/claim", body={"worker_id": "w1", "wait": bad}
            )
            assert status == 400 and "wait" in payload["error"]
        assert 0 < MAX_WAIT_SECONDS <= 30

    @pytest.mark.skipif(not is_enabled(), reason="telemetry disabled")
    def test_blocked_time_is_not_request_latency(self, service):
        for _ in range(20):
            claim(service)
        before = _OBS_HTTP_SECONDS.summary(method="POST", route="/claim")
        claim(service, wait=0.5)
        after = _OBS_HTTP_SECONDS.summary(method="POST", route="/claim")
        assert after["count"] == before["count"] + 1
        assert after["sum"] - before["sum"] < 0.1
        # Unchanged up to interpolation inside the same bucket; the
        # 0.5 s wait, counted, would lift p99 into a far higher bucket.
        assert abs(after["p99"] - before["p99"]) < 0.01


class TestLongPollProgress:
    def test_progress_returns_when_the_sweep_drains(self, service, rows):
        sweep = submit(service, SPECS[:1])["sweep_id"]
        thread, box = in_thread(
            lambda: ok(
                service.handle(
                    "GET", "/progress", query={"sweep_id": sweep, "wait": "5"}
                )
            )
        )
        time.sleep(0.1)
        assert thread.is_alive()
        (job,) = claim(service)["jobs"]
        ok(
            service.handle(
                "POST", "/complete",
                body={"job_id": job["id"], "run": rows[job["spec_key"]]},
            )
        )
        completed = time.monotonic()
        thread.join(timeout=5)
        assert box["result"]["pending"] == 0
        assert box["at"] - completed < 0.05

    def test_progress_returns_on_a_failure(self, service):
        sweep = submit(service, SPECS[:2], max_attempts=1)["sweep_id"]
        thread, box = in_thread(
            lambda: ok(
                service.handle(
                    "GET", "/progress", query={"sweep_id": sweep, "wait": "5"}
                )
            )
        )
        job = claim(service)["jobs"][0]
        ok(service.handle("POST", "/complete", body={"job_id": job["id"], "error": "x"}))
        thread.join(timeout=5)
        assert box["result"]["failed"] == 1 and box["result"]["pending"] == 1

    def test_a_numeric_wait_in_the_query_is_coerced(self, service):
        sweep = submit(service, SPECS[:1])["sweep_id"]
        began = time.monotonic()
        report = ok(
            service.handle(
                "GET", "/progress", query={"sweep_id": sweep, "wait": "0.15"}
            )
        )
        assert report["pending"] == 1
        assert 0.15 <= time.monotonic() - began < 2.0
        status, payload = service.handle("GET", "/progress", query={"wait": "-1"})
        assert status == 400 and "wait" in payload["error"]

    def test_a_foreign_sweep_answers_404_at_once(self, tmp_path):
        # A wait before the ownership check would reveal, by timing,
        # that the sweep exists.
        service = ExperimentService(
            ExperimentStore(tmp_path / "store"),
            admission=AdmissionController(tenants=[ALPHA, BETA]),
        )
        probe = {"sweep_id": "sweep-a", "wait": "5"}
        try:
            missing = service.handle(
                "GET", "/progress", query=probe, authorization="Bearer beta-token"
            )
            status, _ = service.handle(
                "POST", "/jobs",
                body={"specs": [SPECS[0].to_dict()], "sweep_id": "sweep-a"},
                authorization="Bearer alpha-token",
            )
            assert status == 200
            began = time.monotonic()
            foreign = service.handle(
                "GET", "/progress", query=probe, authorization="Bearer beta-token"
            )
            assert time.monotonic() - began < 0.5
        finally:
            service.close()
            service.queue.close()
            service.store.close()
        assert foreign[0] == missing[0] == 404
        assert json.dumps(foreign[1], sort_keys=True) == json.dumps(
            missing[1], sort_keys=True
        )


def tenant_service(tmp_path, **admission):
    return ExperimentService(
        ExperimentStore(tmp_path / "store"),
        admission=AdmissionController(tenants=[ALPHA, BETA], **admission),
    )


def close(service):
    service.queue.stop_waiting()
    service.close()
    service.queue.close()
    service.store.close()


class TestLongPollAdmission:
    """A blocked long-poll gives its admission slot back."""

    def test_parked_waits_do_not_crowd_out_another_tenant(self, tmp_path):
        service = tenant_service(tmp_path)  # max_inflight 64
        alpha = {"authorization": "Bearer alpha-token"}
        sweep = ok(
            service.handle(
                "POST", "/jobs", body={"specs": [SPECS[0].to_dict()]}, **alpha
            )
        )["sweep_id"]
        query = {"sweep_id": sweep, "wait": "10"}
        waiters = [
            in_thread(lambda: service.handle("GET", "/progress", query=query, **alpha))
            for _ in range(service.admission.max_inflight)
        ]
        try:
            deadline = time.monotonic() + 10
            while sum(not t.is_alive() for t, _ in waiters) < len(waiters) - (
                MAX_PARKED_PER_TENANT
            ):
                assert time.monotonic() < deadline, "waits past the quota blocked"
                time.sleep(0.01)
            census = service.admission.census()
            assert census["parked"] == MAX_PARKED_PER_TENANT
            assert census["inflight"] == 0
            began = time.monotonic()
            status, _ = service.handle(
                "GET", "/progress", authorization="Bearer beta-token"
            )
            assert status == 200
            assert time.monotonic() - began < 0.2
            # The waits past alpha's quota answered at once, with a 200.
            answered = [box["result"] for t, box in waiters if not t.is_alive()]
            assert {status for status, _ in answered} == {200}
        finally:
            close(service)
        for thread, box in waiters:
            thread.join(timeout=5)
            assert box["result"][0] == 200
        assert service.admission.census()["inflight"] == 0

    def test_a_full_pool_still_admits_past_a_parked_wait(self, tmp_path):
        service = tenant_service(tmp_path, max_inflight=1, queue_wait_seconds=0.05)
        try:
            thread, box = in_thread(
                lambda: service.handle(
                    "POST", "/claim", body={"worker_id": "w1", "wait": 5},
                    authorization="Bearer alpha-token",
                )
            )
            time.sleep(0.2)
            assert thread.is_alive()
            status, _ = service.handle(
                "POST", "/jobs", body={"specs": [SPECS[0].to_dict()]},
                authorization="Bearer beta-token",
            )
            assert status == 200
            thread.join(timeout=5)
            assert box["result"][0] == 200 and len(box["result"][1]["jobs"]) == 1
        finally:
            close(service)
        assert service.admission.census()["inflight"] == 0

    def test_a_wait_shed_on_waking_answers_with_what_it_has(self, tmp_path):
        service = tenant_service(tmp_path, max_inflight=1, queue_wait_seconds=0.05)
        try:
            thread, box = in_thread(
                lambda: service.handle(
                    "POST", "/claim", body={"worker_id": "w1", "wait": 0.3},
                    authorization="Bearer alpha-token",
                )
            )
            time.sleep(0.1)
            assert service.admission.try_enter() is None  # the only slot
            thread.join(timeout=5)
            service.admission.leave()
            assert box["result"][0] == 200 and box["result"][1]["jobs"] == []
            # No slot was given back twice.
            assert service.admission.census()["inflight"] == 0
        finally:
            close(service)


class TestBatchedComplete:
    def test_mixed_runs_and_errors_in_one_body(self, service, rows):
        submit(service, max_attempts=2)
        jobs = claim(service, limit=3)["jobs"]
        results = [
            {"job_id": jobs[0]["id"], "run": rows[jobs[0]["spec_key"]]},
            {"job_id": jobs[1]["id"], "error": "boom"},
            {"job_id": jobs[2]["id"], "run": rows[jobs[2]["spec_key"]]},
            {"job_id": jobs[0]["id"], "run": rows[jobs[0]["spec_key"]]},
        ]
        replies = ok(
            service.handle(
                "POST", "/complete", body={"worker_id": "w1", "results": results}
            )
        )["results"]
        assert [reply["id"] for reply in replies] == [r["job_id"] for r in results]
        assert [reply["state"] for reply in replies] == [
            "done", "queued", "done", "done",
        ]
        assert [reply.get("duplicate") for reply in replies] == [
            False, None, False, True,
        ]
        assert [reply.get("stored") for reply in replies] == [True, None, True, False]
        assert service.store.stats()["result_entries"] == 2
        # The whole body again: every run item is now a duplicate.
        again = ok(
            service.handle(
                "POST", "/complete",
                body={"worker_id": "w1", "results": [results[0], results[2]]},
            )
        )["results"]
        assert [(r["duplicate"], r["stored"]) for r in again] == [
            (True, False), (True, False),
        ]
        assert service.store.stats()["result_entries"] == 2

    @pytest.mark.parametrize(
        "bad",
        [
            {"run": {"nope": 1}},
            {"run": None, "error": None},
            {"job_id": ""},
            "not-an-object",
        ],
    )
    def test_one_malformed_item_is_400_and_writes_nothing(self, service, rows, bad):
        submit(service)
        jobs = claim(service, limit=3)["jobs"]
        good = {"job_id": jobs[0]["id"], "run": rows[jobs[0]["spec_key"]]}
        if isinstance(bad, dict):
            bad = {"job_id": jobs[1]["id"], **bad}
        status, _ = service.handle(
            "POST", "/complete", body={"worker_id": "w1", "results": [good, bad]}
        )
        assert status == 400
        assert service.store.stats()["result_entries"] == 0
        assert service.queue.progress()["running"] == 3

    def test_an_unknown_job_is_404_and_writes_nothing(self, service, rows):
        submit(service)
        job = claim(service)["jobs"][0]
        good = {"job_id": job["id"], "run": rows[job["spec_key"]]}
        status, payload = service.handle(
            "POST", "/complete",
            body={"results": [good, {"job_id": "ghost:0", "error": "x"}]},
        )
        assert status == 404 and "ghost:0" in payload["error"]
        assert service.store.stats()["result_entries"] == 0

    def test_results_and_a_single_outcome_do_not_mix(self, service):
        submit(service)
        job = claim(service)["jobs"][0]
        status, payload = service.handle(
            "POST", "/complete",
            body={"job_id": job["id"], "results": [{"job_id": job["id"], "error": "x"}]},
        )
        assert status == 400 and "results" in payload["error"]


class InProcessClient:
    """The worker's client, answered by ``ExperimentService.handle``."""

    def __init__(self, service):
        self.service = service
        self.requests = []

    def claim(self, worker_id, limit, lease_seconds, wait):
        self.requests.append("/claim")
        body = {"worker_id": worker_id, "limit": limit, "wait": wait}
        return ok(self.service.handle("POST", "/claim", body=body))["jobs"]

    def complete(self, worker_id, results):
        self.requests.append("/complete")
        body = {"worker_id": worker_id, "results": results}
        return ok(self.service.handle("POST", "/complete", body=body))["results"]


class TestWorkerBatch:
    def test_a_claim_is_reported_in_one_complete(self, service, rows):
        submit(service)
        client = InProcessClient(service)
        worker = Worker("http://unused", client=client, batch=4, max_jobs=3)
        assert worker.run()["completed"] == 3
        assert client.requests == ["/claim", "/complete"]
        assert service.queue.progress()["done"] == 3
        for spec in SPECS:
            assert asdict(service.store.get_result(spec.key())) == rows[spec.key()]

    def test_a_failed_replay_is_reported_against_its_own_job(self, service, rows):
        submit(service, max_attempts=2)
        jobs = claim(service, limit=3)["jobs"]
        bad_key = jobs[1]["spec_key"]
        worker = Worker(
            "http://unused", worker_id="w1", client=InProcessClient(service)
        )
        real_run = worker.runner.run

        def flaky(specs):
            if any(spec.key() == bad_key for spec in specs):
                raise RuntimeError("replay blew up")
            return real_run(specs)

        worker.runner.run = flaky
        worker._process(jobs)
        assert (worker.completed, worker.failed) == (2, 1)
        states = [service.queue.job(job["id"])["state"] for job in jobs]
        assert states == ["done", "queued", "done"]
        assert "replay blew up" in service.queue.job(jobs[1]["id"])["error"]
        assert asdict(service.store.get_result(jobs[0]["spec_key"])) == rows[
            jobs[0]["spec_key"]
        ]


@pytest.fixture
def server(tmp_path):
    server = make_server(tmp_path / "store", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


class TestOverHttp:
    def test_a_blocked_claim_does_not_hold_up_shutdown(self, tmp_path):
        server = make_server(tmp_path / "store", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = SchedulerClient(server.url)
        client.wait_healthy()
        claimer, box = in_thread(lambda: client.claim("w1", wait=MAX_WAIT_SECONDS))
        time.sleep(0.2)
        assert claimer.is_alive()
        began = time.monotonic()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        claimer.join(timeout=10)
        assert time.monotonic() - began < 2.0
        assert box["result"] == []

    def test_submit_sweep_timeout_is_not_overshot(self, server):
        # Regression: submit_sweep slept a whole poll interval after its
        # deadline check, so this raised after ~3 s instead of ~0.2 s.
        client = SchedulerClient(server.url)
        began = time.monotonic()
        with pytest.raises(SchedulerError, match="timed out"):
            client.submit_sweep([SPECS[0]], timeout=0.2, poll_interval=3.0)
        assert time.monotonic() - began < 1.0


    def test_held_requests_outlast_a_short_socket_timeout(self, server, rows):
        # Regression: a long-poll held longer than the client's socket
        # timeout failed on a healthy server, and a timed-out claim left
        # the server to lease jobs to a request nobody read.
        client = SchedulerClient(server.url, timeout=0.2)
        began = time.monotonic()
        assert client.claim("w0", wait=0.5) == []
        assert time.monotonic() - began >= 0.5
        worker = Worker(
            server.url, request_timeout=0.2, poll_interval=0.5,
            max_jobs=len(SPECS),
        )
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        time.sleep(0.6)  # the worker's claim is held at the server
        result = client.submit_sweep(SPECS, timeout=30, poll_interval=0.5)
        thread.join(timeout=30)
        assert [asdict(row) for row in result] == [rows[s.key()] for s in SPECS]
        assert worker.summary()["completed"] == len(SPECS)
        assert worker.report_errors == 0
        jobs = server.service.queue.progress()
        assert jobs["done"] == len(SPECS) and jobs["failed"] == 0
        # No claim was orphaned at the server and leased again.
        assert {job["attempts"] for job in server.service.queue.jobs()} == {1}


class TestWorkerClaimPause:
    def test_an_early_empty_claim_is_not_retried_in_a_tight_loop(self):
        # A server that ignores ``wait`` answers an empty claim at once.
        class EagerClient:
            base_url = "http://unused"
            claims = 0

            def claim(self, worker_id, limit, lease_seconds, wait):
                self.claims += 1
                return []

        client = EagerClient()
        worker = Worker("http://unused", client=client, poll_interval=0.1)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        time.sleep(0.5)
        worker.stop()
        thread.join(timeout=5)
        assert 1 <= client.claims <= 8

    def test_a_refused_report_is_counted(self, service):
        submit(service, SPECS[:1])
        client = InProcessClient(service)

        def refuse(worker_id, results):
            raise ServiceError(400, None, "HTTP 400: unknown field 'results'")

        client.complete = refuse
        worker = Worker("http://unused", client=client, max_jobs=1)
        assert worker.run()["report_errors"] == 1


class TestConcurrentClaims:
    def test_blocked_claimers_take_every_job_exactly_once(self, service):
        # More long-polling claimers than cores, a short switch interval,
        # and jobs arriving in several submissions: no job may be handed
        # out twice or lost, and every claimer must get its answer.
        claimers, submissions = 6, 4
        claimed: list[list[str]] = [[] for _ in range(claimers)]
        stop = threading.Event()

        def claimer(index):
            while not stop.is_set():
                jobs = claim(service, limit=2, wait=0.2)["jobs"]
                claimed[index] += [job["id"] for job in jobs]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=claimer, args=(i,), daemon=True)
                for i in range(claimers)
            ]
            for thread in threads:
                thread.start()
            ids = []
            for _ in range(submissions):
                ids += [job["id"] for job in submit(service)["jobs"]]
                time.sleep(0.02)
            deadline = time.monotonic() + 20
            while sum(map(len, claimed)) < len(ids):
                assert time.monotonic() < deadline, "jobs were never claimed"
                time.sleep(0.01)
            stop.set()
            for thread in threads:
                thread.join(timeout=5)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        handed_out = [job_id for batch in claimed for job_id in batch]
        assert sorted(handed_out) == sorted(ids)
