"""JobQueue unit tests: the lease state machine, with a fake clock.

Every lease-expiry scenario advances an injected clock instead of
sleeping, so the whole state machine — claim, heartbeat, requeue,
bounded retries, idempotent completion, resumable resubmission — is
exercised deterministically and instantly.
"""

import threading
import time

import pytest

from repro.errors import SchedulerError, SweepOwnershipError
from repro.sched import JobQueue


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def queue(tmp_path, clock):
    with JobQueue(tmp_path / "jobs.sqlite", lease_seconds=10.0, clock=clock) as q:
        yield q


def submit(queue, n=3, sweep_id="s1", **kwargs):
    return queue.submit(
        sweep_id,
        [(f"key{i}", {"workload": f"app{i}"}) for i in range(n)],
        **kwargs,
    )


class TestSubmitAndClaim:
    def test_submit_queues_in_order_and_claim_respects_it(self, queue):
        jobs = submit(queue, 3)
        assert [job["state"] for job in jobs] == ["queued"] * 3
        assert [job["id"] for job in jobs] == ["s1:0", "s1:1", "s1:2"]
        claimed = queue.claim("w1", limit=2)
        assert [job["spec_key"] for job in claimed] == ["key0", "key1"]
        assert all(job["state"] == "running" for job in claimed)
        assert all(job["attempts"] == 1 for job in claimed)
        assert all(job["worker_id"] == "w1" for job in claimed)

    def test_precompleted_keys_are_done_without_queueing(self, queue):
        jobs = submit(queue, 3, precompleted={"key1"})
        assert [job["state"] for job in jobs] == ["queued", "done", "queued"]
        assert jobs[1]["result_source"] == "store"
        claimed_keys = {job["spec_key"] for job in queue.claim("w1", limit=10)}
        assert claimed_keys == {"key0", "key2"}

    def test_claim_returns_payload_spec(self, queue):
        submit(queue, 1)
        (job,) = queue.claim("w1")
        assert job["spec"] == {"workload": "app0"}

    def test_empty_queue_claims_nothing(self, queue):
        assert queue.claim("w1", limit=5) == []

    def test_resubmission_resumes(self, queue, clock):
        submit(queue, 2)
        (job,) = queue.claim("w1", limit=1)
        queue.complete(job["id"], "w1")
        # The other job fails out of budget.
        (other,) = queue.claim("w1", limit=1)
        for _ in range(5):
            failed = queue.fail(other["id"], "w1", error="boom")
            if failed["state"] == "failed":
                break
            (other,) = queue.claim("w1", limit=1)
        assert queue.job("s1:1")["state"] == "failed"

        jobs = submit(queue, 2)  # resume the same sweep
        assert jobs[0]["state"] == "done"  # untouched
        assert jobs[1]["state"] == "queued"  # failed -> requeued, fresh budget
        assert jobs[1]["attempts"] == 0

    def test_resubmission_with_different_spec_is_rejected(self, queue):
        submit(queue, 1)
        with pytest.raises(SchedulerError, match="fresh sweep_id"):
            queue.submit("s1", [("other-key", {"workload": "x"})])

    def test_sweep_ownership_is_claimed_atomically(self, queue, tmp_path, clock):
        assert queue.sweep_owner("s1") == (False, None)
        submit(queue, 2, owner="alpha")
        assert queue.sweep_owner("s1") == (True, "alpha")
        # Same owner resumes; a different owner is rejected inside the
        # submit transaction; an unscoped (admin) caller may resume any
        # sweep without overwriting the record.
        submit(queue, 2, owner="alpha")
        with pytest.raises(SweepOwnershipError):
            submit(queue, 2, owner="beta")
        submit(queue, 2)
        assert queue.sweep_owner("s1") == (True, "alpha")
        # A rejected submission enqueues nothing.
        assert len(queue.jobs(sweep_id="s1")) == 2
        # Ownership is durable: a reopened queue file still knows it.
        queue.close()
        with JobQueue(tmp_path / "jobs.sqlite", clock=clock) as reopened:
            assert reopened.sweep_owner("s1") == (True, "alpha")

    def test_anonymous_sweep_stays_anonymous(self, queue):
        submit(queue, 1)
        assert queue.sweep_owner("s1") == (True, None)
        # A scoped caller cannot adopt a sweep submitted anonymously.
        with pytest.raises(SweepOwnershipError):
            submit(queue, 1, owner="alpha")

    def test_malformed_arguments_raise(self, queue):
        with pytest.raises(SchedulerError):
            queue.submit("bad/sweep", [("k", {})])
        with pytest.raises(SchedulerError):
            queue.claim("")
        with pytest.raises(SchedulerError):
            queue.claim("w1", limit=0)
        with pytest.raises(SchedulerError):
            queue.claim("w1", lease_seconds=0)
        with pytest.raises(SchedulerError):
            submit(queue, 1, max_attempts=0)


class TestLeases:
    def test_expired_lease_requeues_for_another_worker(self, queue, clock):
        submit(queue, 1)
        (job,) = queue.claim("w1", lease_seconds=10.0)
        assert queue.claim("w2") == []  # still leased
        clock.advance(10.1)
        (reclaimed,) = queue.claim("w2")
        assert reclaimed["id"] == job["id"]
        assert reclaimed["worker_id"] == "w2"
        assert reclaimed["attempts"] == 2
        assert queue.stats()["counters"]["leases_requeued"] == 1

    def test_heartbeat_extends_the_lease(self, queue, clock):
        submit(queue, 1)
        (job,) = queue.claim("w1", lease_seconds=10.0)
        clock.advance(8.0)
        beat = queue.heartbeat("w1", [job["id"]], lease_seconds=10.0)
        assert beat == {"owned": [job["id"]], "lost": []}
        clock.advance(8.0)  # 16s after claim, 8s after heartbeat
        assert queue.claim("w2") == []

    def test_lost_job_is_reported_on_heartbeat(self, queue, clock):
        submit(queue, 1)
        (job,) = queue.claim("w1", lease_seconds=10.0)
        clock.advance(10.1)
        queue.claim("w2")  # w2 takes over after the lapse
        beat = queue.heartbeat("w1", [job["id"]])
        assert beat == {"owned": [], "lost": [job["id"]]}

    def test_attempt_budget_exhaustion_parks_the_job_failed(self, queue, clock):
        submit(queue, 1, max_attempts=2)
        for _ in range(2):
            (job,) = queue.claim("w1", lease_seconds=5.0)
            clock.advance(5.1)
        assert queue.claim("w1") == []  # budget spent: nothing claimable
        parked = queue.job(job["id"])
        assert parked["state"] == "failed"
        assert "lease expired" in parked["error"]
        assert queue.stats()["counters"]["leases_exhausted"] == 1


class TestCompletion:
    def test_complete_is_idempotent(self, queue):
        submit(queue, 1)
        (job,) = queue.claim("w1")
        first = queue.complete(job["id"], "w1")
        again = queue.complete(job["id"], "w2")
        assert (first["duplicate"], again["duplicate"]) == (False, True)
        assert again["state"] == "done"
        counters = queue.stats()["counters"]
        assert counters["completes"] == 1
        assert counters["duplicate_completes"] == 1

    def test_late_completion_from_a_presumed_dead_worker_is_accepted(
        self, queue, clock
    ):
        submit(queue, 1)
        (job,) = queue.claim("w1", lease_seconds=5.0)
        clock.advance(5.1)
        queue.claim("w2")  # requeued and reclaimed
        outcome = queue.complete(job["id"], "w1")  # w1 finishes late
        assert outcome["state"] == "done"
        assert not outcome["duplicate"]

    def test_unknown_job_returns_none(self, queue):
        assert queue.complete("nope:0") is None
        assert queue.fail("nope:0") is None
        assert queue.job("nope:0") is None

    def test_stale_failure_from_a_dispossessed_worker_is_ignored(
        self, queue, clock
    ):
        submit(queue, 1)
        (job,) = queue.claim("w1", lease_seconds=5.0)
        clock.advance(5.1)
        (reclaimed,) = queue.claim("w2")  # w2 owns it now
        stale = queue.fail(job["id"], "w1", error="late boom")
        assert stale["state"] == "running"
        assert stale["worker_id"] == "w2"
        assert stale["error"] is None
        assert queue.stats()["counters"]["stale_failures"] == 1
        # w2's own failure report still lands.
        assert queue.fail(reclaimed["id"], "w2", error="real boom")["error"] == "real boom"

    def test_fail_requeues_within_budget_then_parks(self, queue):
        submit(queue, 1, max_attempts=2)
        (job,) = queue.claim("w1")
        retried = queue.fail(job["id"], "w1", error="first boom")
        assert retried["state"] == "queued"
        assert retried["error"] == "first boom"
        (job,) = queue.claim("w1")
        parked = queue.fail(job["id"], "w1", error="second boom")
        assert parked["state"] == "failed"
        assert parked["error"] == "second boom"


class TestControlAndIntrospection:
    def test_cancel_hits_queued_jobs_only(self, queue):
        submit(queue, 3)
        (running,) = queue.claim("w1", limit=1)
        assert queue.cancel("s1") == 2
        assert queue.job(running["id"])["state"] == "running"
        progress = queue.progress("s1")
        assert progress["cancelled"] == 2
        assert progress["running"] == 1

    def test_progress_sweeps_lapsed_leases_and_lists_failures(self, queue, clock):
        submit(queue, 2, max_attempts=1)
        queue.claim("w1", limit=2, lease_seconds=5.0)
        clock.advance(5.1)
        progress = queue.progress("s1")
        assert progress["failed"] == 2
        assert progress["pending"] == 0
        assert len(progress["failed_jobs"]) == 2
        assert all("lease expired" in job["error"] for job in progress["failed_jobs"])

    def test_progress_scopes_by_sweep(self, queue):
        submit(queue, 2, sweep_id="a")
        submit(queue, 3, sweep_id="b")
        assert queue.progress("a")["total"] == 2
        assert queue.progress("b")["total"] == 3
        assert queue.progress()["total"] == 5

    def test_queue_persists_across_reopen(self, tmp_path, clock):
        path = tmp_path / "jobs.sqlite"
        with JobQueue(path, clock=clock) as queue:
            submit(queue, 2)
            (job,) = queue.claim("w1", limit=1)
            queue.complete(job["id"], "w1")
        with JobQueue(path, clock=clock) as reopened:
            assert reopened.progress()["done"] == 1
            (job,) = reopened.claim("w2", limit=5)
            assert job["spec_key"] == "key1"

    def test_jobs_filtering(self, queue):
        submit(queue, 3)
        (running,) = queue.claim("w1", limit=1)
        assert len(queue.jobs(state="queued")) == 2
        assert [job["id"] for job in queue.jobs(state="running")] == [running["id"]]
        with pytest.raises(SchedulerError):
            queue.jobs(state="bogus")


class TestBatches:
    def test_complete_takes_many_ids_in_one_call(self, queue):
        submit(queue, 3)
        claimed = queue.claim("w1", limit=3)
        ids = [claimed[0]["id"], claimed[1]["id"], claimed[0]["id"], "ghost:0"]
        answers = queue.complete(ids, "w1")
        assert [a and a["duplicate"] for a in answers] == [False, False, True, None]
        assert queue.progress()["done"] == 2
        counters = queue.stats()["counters"]
        assert counters["completes"] == 2
        assert counters["duplicate_completes"] == 1


class TestWaiting:
    def test_a_commit_wakes_a_waiter(self, queue):
        seen = queue.version
        woke = []

        def waiter():
            queue.wait(seen, 10.0)
            woke.append(time.monotonic())

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        submit(queue, 1)
        submitted = time.monotonic()
        thread.join(timeout=5)
        assert woke and woke[0] - submitted < 1.0

    def test_a_seen_commit_does_not_block(self, queue):
        seen = queue.version
        submit(queue, 1)
        assert queue.version > seen
        assert queue.wait(seen, 10.0) is True  # returns at once

    def test_stop_waiting_ends_every_wait(self, queue):
        queue.stop_waiting()
        assert queue.wait(queue.version, 10.0) is False
