"""Model-based test of :class:`JobQueue` against a pure-Python model.

A hypothesis state machine drives one queue file and a dictionary
model through the same operations — submit (with resumes, foreign
owners and mismatched resubmissions), claim, heartbeat, complete (one
id, or many in one call), fail, cancel, the clock jumping past a lease,
and closing and reopening the file — under the queue's injectable fake
clock. After every step the queue must agree with the model row for
row and counter for counter, and:

- every claim is accounted for: it is still running, or it ended
  exactly once — completed, requeued (lease lapse or worker retry) or
  parked (lease exhausted or worker failure). In a clean run this is
  the ``claims == completes + requeues + cancels`` identity the
  telemetry smoke checks;
- no job holds two different rows: ids are unique and a job's spec
  never changes;
- a sweep's owner never changes once recorded;
- no job is claimed more than ``max_attempts`` times, so when every
  worker dies each sweep still terminates — the teardown reaps the
  queue and checks it drains within the claim budget.

The budget is small by default; ``--hypothesis-profile=ci`` runs the
profile's larger one (see ``tests/conftest.py``).
"""

from __future__ import annotations

import copy
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from conftest import hypothesis_budget
from repro.errors import SchedulerError, SweepOwnershipError
from repro.sched import JobQueue

LEASE = 10.0
MAX_ATTEMPTS = 3
SWEEPS = ("a", "b")
WORKERS = ("w1", "w2")
OWNERS = (None, "t1", "t2")


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


class QueueModel:
    """What the queue should hold, in plain dictionaries."""

    def __init__(self) -> None:
        self.jobs: dict[str, dict] = {}
        self.owners: dict[str, str | None] = {}
        self.counters: dict[str, int] = {}
        #: completes and failures of jobs that were not running: they
        #: end no claim (a late result, a re-failure of a parked job).
        self.off_claim = 0

    def bump(self, name: str, delta: int = 1) -> None:
        if delta:
            self.counters[name] = self.counters.get(name, 0) + delta

    def expire(self, now: float) -> None:
        requeued = exhausted = 0
        for job in self.jobs.values():
            if job["state"] == "running" and job["lease_expires"] < now:
                if job["attempts"] >= job["max_attempts"]:
                    job["state"] = "failed"
                    exhausted += 1
                else:
                    job.update(state="queued", worker_id=None, lease_expires=None)
                    requeued += 1
        self.bump("leases_requeued", requeued)
        self.bump("leases_exhausted", exhausted)

    def submit(self, sweep, keys, precompleted, budget, owner, now) -> None:
        if sweep not in self.owners:
            self.owners[sweep] = owner
        elif owner is not None and self.owners[sweep] != owner:
            raise SweepOwnershipError(sweep)
        submitted = reused = stored = 0
        for seq, key in enumerate(keys):
            job_id = f"{sweep}:{seq}"
            done = key in precompleted
            fresh = {
                "state": "done" if done else "queued",
                "attempts": 0,
                "max_attempts": budget,
                "worker_id": None,
                "lease_expires": None,
                "result_source": "store" if done else None,
            }
            job = self.jobs.get(job_id)
            if job is None:
                self.jobs[job_id] = dict(
                    fresh, id=job_id, sweep_id=sweep, seq=seq, spec_key=key,
                    created_at=now,
                )
                submitted += 1
                stored += done
                continue
            if job["spec_key"] != key:
                raise SchedulerError(job_id)
            if job["state"] in ("failed", "cancelled"):
                job.update(fresh)
                stored += done
            reused += 1
        self.bump("jobs_submitted", submitted)
        self.bump("jobs_reused", reused)
        self.bump("jobs_precompleted", stored)

    def claim(self, worker, limit, now) -> list[str]:
        self.expire(now)
        queued = sorted(
            (job for job in self.jobs.values() if job["state"] == "queued"),
            key=lambda job: (job["created_at"], job["sweep_id"], job["seq"]),
        )[:limit]
        for job in queued:
            job.update(state="running", worker_id=worker, lease_expires=now + LEASE)
            job["attempts"] += 1
        self.bump("claims", len(queued))
        return [job["id"] for job in queued]


class QueueMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="queue-model-"))
        self.path = self.dir / "jobs.sqlite"
        self.clock = FakeClock()
        self.queue = self._open()
        self.model = QueueModel()

    def _open(self) -> JobQueue:
        return JobQueue(
            self.path, lease_seconds=LEASE, max_attempts=MAX_ATTEMPTS,
            clock=self.clock,
        )

    def _keys(self, sweep: str, count: int) -> list[str]:
        return [f"{sweep}-key{seq}" for seq in range(count)]

    # -- operations --------------------------------------------------------

    @rule(
        sweep=st.sampled_from(SWEEPS),
        count=st.integers(1, 3),
        precompleted=st.sets(st.integers(0, 2), max_size=2),
        budget=st.sampled_from((None, 1, 2, MAX_ATTEMPTS)),
        owner=st.sampled_from(OWNERS),
        changed=st.one_of(st.none(), st.integers(0, 2)),
    )
    def submit(self, sweep, count, precompleted, budget, owner, changed):
        keys = self._keys(sweep, count)
        if changed is not None and changed < count:
            keys[changed] += "-changed"  # a different spec under a known id
        done = {keys[seq] for seq in precompleted if seq < count}
        budget_or_default = MAX_ATTEMPTS if budget is None else budget
        model = copy.deepcopy(self.model)
        try:
            model.submit(sweep, keys, done, budget_or_default, owner, self.clock())
        except (SweepOwnershipError, SchedulerError) as expected:
            # The queue refuses in the same transaction and changes nothing.
            with pytest.raises(type(expected)):
                self.queue.submit(
                    sweep, [(k, {"k": k}) for k in keys], done, budget, owner
                )
            return
        self.queue.submit(sweep, [(k, {"k": k}) for k in keys], done, budget, owner)
        self.model = model

    @rule(worker=st.sampled_from(WORKERS), limit=st.integers(1, 3))
    def claim(self, worker, limit):
        claimed = self.queue.claim(worker, limit=limit)
        expected = self.model.claim(worker, limit, self.clock())
        assert [job["id"] for job in claimed] == expected

    @rule(worker=st.sampled_from(WORKERS), data=st.data())
    def heartbeat(self, worker, data):
        ids = data.draw(st.lists(st.sampled_from(sorted(self.model.jobs) or ["x:0"]), max_size=3))
        report = self.queue.heartbeat(worker, ids)
        now = self.clock()
        owned = []
        for job_id in ids:
            job = self.model.jobs.get(job_id)
            if job and job["worker_id"] == worker and job["state"] == "running":
                job["lease_expires"] = now + LEASE
                owned.append(job_id)
        assert report["owned"] == owned
        assert report["lost"] == [job_id for job_id in ids if job_id not in owned]

    def _pick(self, data) -> str:
        """A known job id, or an unknown one while the queue is empty."""
        return data.draw(st.sampled_from(sorted(self.model.jobs) or ["x:0"]))

    def _model_complete(self, job_id, worker, reply):
        job = self.model.jobs.get(job_id)
        if job is None:
            assert reply is None
        elif job["state"] == "done":
            self.model.bump("duplicate_completes")
            assert reply["duplicate"] is True
        else:
            self.model.off_claim += job["state"] != "running"
            job.update(
                state="done", result_source="worker", worker_id=worker,
                lease_expires=None,
            )
            self.model.bump("completes")
            assert reply["duplicate"] is False

    @rule(worker=st.sampled_from(WORKERS), data=st.data())
    def complete(self, worker, data):
        job_id = self._pick(data)
        self._model_complete(job_id, worker, self.queue.complete(job_id, worker))

    @rule(worker=st.sampled_from(WORKERS), data=st.data())
    def complete_many(self, worker, data):
        # A worker's whole batch in one call: ids may repeat (an item
        # listed twice) or be unknown, and are applied in order.
        ids = data.draw(
            st.lists(st.sampled_from(sorted(self.model.jobs) or ["x:0"]), max_size=4)
        )
        replies = self.queue.complete(ids, worker)
        assert len(replies) == len(ids)
        for job_id, reply in zip(ids, replies):
            self._model_complete(job_id, worker, reply)

    @rule(worker=st.sampled_from(WORKERS), data=st.data())
    def fail(self, worker, data):
        job_id = self._pick(data)
        reply = self.queue.fail(job_id, worker, error="boom")
        job = self.model.jobs.get(job_id)
        if job is None:
            assert reply is None
            return
        if job["state"] in ("done", "cancelled"):
            pass
        elif job["worker_id"] != worker:
            self.model.bump("stale_failures")
        else:
            self.model.off_claim += job["state"] != "running"
            if job["attempts"] >= job["max_attempts"]:
                job["state"] = "failed"
                self.model.bump("failures")
            else:
                job.update(state="queued", worker_id=None, lease_expires=None)
                self.model.bump("retries")
        assert reply["state"] == job["state"]

    @rule(sweep=st.sampled_from(SWEEPS))
    def cancel(self, sweep):
        cancelled = 0
        for job in self.model.jobs.values():
            if job["sweep_id"] == sweep and job["state"] == "queued":
                job["state"] = "cancelled"
                cancelled += 1
        self.model.bump("cancelled", cancelled)
        assert self.queue.cancel(sweep) == cancelled

    @rule(past_lease=st.booleans())
    def advance_clock(self, past_lease):
        self.clock.now += LEASE + 1.0 if past_lease else 1.0

    @rule(sweep=st.one_of(st.none(), st.sampled_from(SWEEPS)))
    def progress(self, sweep):
        report = self.queue.progress(sweep)
        self.model.expire(self.clock())
        jobs = [
            job for job in self.model.jobs.values()
            if sweep is None or job["sweep_id"] == sweep
        ]
        assert report["total"] == len(jobs)
        assert report["pending"] == sum(
            job["state"] in ("queued", "running") for job in jobs
        )

    @rule()
    def reopen(self):
        self.queue.close()
        self.queue = self._open()

    # -- invariants --------------------------------------------------------

    @invariant()
    def rows_match_the_model(self):
        rows = self.queue.jobs()
        ids = [row["id"] for row in rows]
        assert len(ids) == len(set(ids)) == len(self.model.jobs)
        fields = (
            "sweep_id", "seq", "spec_key", "state", "attempts", "max_attempts",
            "worker_id", "lease_expires", "result_source",
        )
        for row in rows:
            job = self.model.jobs[row["id"]]
            assert {f: row[f] for f in fields} == {f: job[f] for f in fields}
            assert row["spec"] == {"k": job["spec_key"]}

    @invariant()
    def counters_match_the_model(self):
        assert self.queue.stats()["counters"] == self.model.counters

    @invariant()
    def every_claim_is_accounted_for(self):
        counters = self.queue.stats()["counters"]
        running = len(self.queue.jobs(state="running"))
        ended = sum(
            counters.get(name, 0)
            for name in (
                "completes", "leases_requeued", "leases_exhausted", "retries",
                "failures",
            )
        )
        assert counters.get("claims", 0) == running + ended - self.model.off_claim

    @invariant()
    def sweep_owners_never_change(self):
        for sweep, owner in self.model.owners.items():
            assert self.queue.sweep_owner(sweep) == (True, owner)

    @invariant()
    def claims_stay_within_budget(self):
        for job in self.queue.jobs():
            assert job["attempts"] <= job["max_attempts"]
            if job["state"] == "queued":
                assert job["attempts"] < job["max_attempts"]

    def teardown(self):
        # Every worker dies: each remaining job is claimed and abandoned
        # until it parks, which takes at most max_attempts lease lapses.
        try:
            for _ in range(MAX_ATTEMPTS + 1):
                self.clock.now += LEASE + 1.0
                self.queue.claim("reaper", limit=1000)
            self.clock.now += LEASE + 1.0
            self.queue.expire_leases()
            states = {job["state"] for job in self.queue.jobs()}
            assert states <= {"done", "failed", "cancelled"}, states
        finally:
            self.queue.close()
            shutil.rmtree(self.dir, ignore_errors=True)


QueueMachine.TestCase.settings = settings(
    max_examples=hypothesis_budget(25), stateful_step_count=25, deadline=None
)
TestJobQueueModel = QueueMachine.TestCase


def _replay(*steps) -> None:
    """Run a fixed rule sequence, checking every invariant after each step.

    Counterexamples the state machine has found land here, so tier-1
    replays them whatever the example budget.
    """
    machine = QueueMachine()
    invariants = (
        machine.rows_match_the_model, machine.counters_match_the_model,
        machine.every_claim_is_accounted_for, machine.sweep_owners_never_change,
        machine.claims_stay_within_budget,
    )
    try:
        for name, kwargs in steps:
            getattr(machine, name)(**kwargs)
            for check in invariants:
                check()
    finally:
        machine.teardown()


def test_refused_resubmission_rolls_back_its_resets():
    # The resubmission requeues the cancelled job 0, then hits job 1's
    # different spec: the refusal must undo the requeue too.
    submit = dict(budget=None, owner=None, precompleted=set(), sweep="b", count=2)
    _replay(
        ("submit", dict(submit, changed=None)),
        ("cancel", dict(sweep="b")),
        ("submit", dict(submit, changed=1)),
    )
