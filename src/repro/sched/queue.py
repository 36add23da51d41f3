"""Persistent lease-based job queue for distributed sweeps.

One :class:`JobQueue` is one SQLite file (WAL mode, same atomicity
idioms as :class:`~repro.store.ExperimentStore`) holding every job the
scheduler has ever been asked to run. Jobs move through a small state
machine::

    queued --claim--> running --complete--> done
      ^                  |                   ^
      |            lease expired /           |
      +---- retry --- worker fail            |
      |                  |            stored result found
      |        attempts exhausted     (precompleted at submit
      |                  v             or claim time)
      +--cancel    failed

Design points:

- **Leases, not locks.** A claim hands a job to a worker together with
  a lease deadline. Workers extend their leases with heartbeats; a
  worker that dies (SIGKILL, OOM, network partition) simply stops
  heartbeating and the job is requeued when its lease expires — no
  worker registry, no failure detector.
- **Bounded retries.** ``attempts`` counts claims. A job whose lease
  expires (or whose worker reports an error) is requeued until it has
  been claimed ``max_attempts`` times, then parked as ``failed`` with
  the last error recorded.
- **Idempotent completion.** Replays are deterministic and results are
  content-addressed, so a duplicate ``complete`` — a presumed-dead
  worker finishing late, a client retrying over a flaky link — is
  acknowledged and counted, never an error.
- **Resumable sweeps.** Jobs are keyed ``<sweep_id>:<seq>``;
  resubmitting a sweep reuses done jobs, requeues failed/cancelled
  ones, and marks jobs whose ``spec_key`` is already in the experiment
  store as done without ever queueing them (zero re-replays).
- **Waiting without polling.** Every commit that can make a job
  claimable or change a sweep's progress (submit, complete, fail,
  cancel, a lapsed lease) bumps :attr:`JobQueue.version` and wakes the
  threads blocked in :meth:`JobQueue.wait`. Commits made by another
  process on the same file wake nobody; a waiter sees them when its
  wait runs out.
"""

from __future__ import annotations

import json
import threading
import time
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import Any

from repro.errors import SchedulerError, SweepOwnershipError
from repro.obs import REGISTRY
from repro.sqlite_index import open_index, transaction

#: Version stamp on the queue index.
SCHED_SCHEMA = "repro.sched/v1"

#: This process's share of the persistent queue counters (claims,
#: completes, retries, requeues, …), mirrored at ``_bump`` time so
#: ``GET /metrics`` reflects live scheduler activity. The persistent
#: counters table stays authoritative across restarts.
_OBS_EVENTS = REGISTRY.counter(
    "repro_sched_events_total",
    "Scheduler lifecycle events (claims, completes, retries, …) this process.",
    labels=("name",),
)
_OBS_DEPTH = REGISTRY.gauge(
    "repro_sched_jobs",
    "Jobs per state at last queue stats/progress refresh.",
    labels=("state",),
)
#: SLO-facing gauges refreshed by :meth:`JobQueue.slo_snapshot` — the
#: series the health rule engine's queue/worker rules threshold on.
_OBS_OLDEST_QUEUED = REGISTRY.gauge(
    "repro_sched_oldest_queued_age_seconds",
    "Age of the oldest claimable (queued) job at last SLO refresh.",
)
_OBS_LEASE_OVERDUE_SECONDS = REGISTRY.gauge(
    "repro_sched_lease_overdue_seconds",
    "How far past expiry the most overdue running lease is.",
)

#: Job lifecycle states.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

_JOB_COLUMNS = (
    "id", "sweep_id", "seq", "spec_key", "spec_json", "state", "attempts",
    "max_attempts", "worker_id", "lease_expires", "result_source", "error",
    "created_at", "updated_at",
)


_TABLES = (
    "CREATE TABLE IF NOT EXISTS jobs ("
    " id TEXT PRIMARY KEY,"
    " sweep_id TEXT NOT NULL,"
    " seq INTEGER NOT NULL,"
    " spec_key TEXT NOT NULL,"
    " spec_json TEXT NOT NULL,"
    " state TEXT NOT NULL,"
    " attempts INTEGER NOT NULL DEFAULT 0,"
    " max_attempts INTEGER NOT NULL,"
    " worker_id TEXT,"
    " lease_expires REAL,"
    " result_source TEXT,"
    " error TEXT,"
    " created_at REAL NOT NULL,"
    " updated_at REAL NOT NULL)",
    "CREATE INDEX IF NOT EXISTS jobs_by_state ON jobs (state)",
    "CREATE INDEX IF NOT EXISTS jobs_by_sweep ON jobs (sweep_id, seq)",
    "CREATE TABLE IF NOT EXISTS counters "
    "(name TEXT PRIMARY KEY, value INTEGER NOT NULL)",
    # Lazily migrated: queue files from before sweep ownership gain the
    # (empty) table on open; their pre-existing sweeps simply have no
    # recorded owner yet.
    "CREATE TABLE IF NOT EXISTS sweeps (sweep_id TEXT PRIMARY KEY, owner TEXT)",
)


def _job_dict(row: tuple) -> dict[str, Any]:
    job = dict(zip(_JOB_COLUMNS, row))
    job["spec"] = json.loads(job.pop("spec_json"))
    return job


class JobQueue:
    """A durable queue of RunSpec jobs with lease-based claims.

    Args:
        path: SQLite file backing the queue (parents created).
        lease_seconds: default lease length for :meth:`claim` and
            :meth:`heartbeat` when the caller does not pass one.
        max_attempts: default claim budget per job.
        clock: time source (seconds); injectable for deterministic
            lease-expiry tests.

    Instances are safe to share between threads (one lock serializes
    access) and the on-disk format is safe to share between processes
    (WAL SQLite, every mutation in one write transaction).
    """

    def __init__(
        self,
        path: str | Path,
        lease_seconds: float = 30.0,
        max_attempts: int = 3,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if lease_seconds <= 0:
            raise SchedulerError(f"lease_seconds must be > 0, got {lease_seconds}")
        if max_attempts < 1:
            raise SchedulerError(f"max_attempts must be >= 1, got {max_attempts}")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.lease_seconds = float(lease_seconds)
        self.max_attempts = int(max_attempts)
        self._clock = clock
        self._lock = threading.RLock()
        self._db = open_index(
            self.path,
            self._lock,
            SCHED_SCHEMA,
            _TABLES,
            SchedulerError,
            f"job queue at {self.path}",
        )
        self._changed = threading.Condition(threading.Lock())
        self._version = 0
        self._stopped = False

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Wake every waiter, then close the SQLite connection."""
        self.stop_waiting()
        with self._lock:
            self._db.close()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"JobQueue({str(self.path)!r})"

    # -- small internals ---------------------------------------------------

    def _txn(self):
        return transaction(self._lock, self._db)

    def _bump(self, name: str, delta: int = 1) -> None:
        self._db.execute(
            "INSERT INTO counters (name, value) VALUES (?, ?) "
            "ON CONFLICT(name) DO UPDATE SET value = value + excluded.value",
            (name, delta),
        )
        _OBS_EVENTS.inc(delta, name=name)

    def _notify(self) -> None:
        """Wake the waiters: call after a commit that changed a job."""
        with self._changed:
            self._version += 1
            self._changed.notify_all()

    def _fetch_job(self, job_id: str) -> tuple | None:
        return self._db.execute(
            f"SELECT {', '.join(_JOB_COLUMNS)} FROM jobs WHERE id=?", (job_id,)
        ).fetchone()

    def _expire_leases_locked(self, now: float) -> dict[str, int]:
        """Requeue (or park) running jobs whose lease has lapsed.

        Must run inside an open transaction. A lapsed job whose claim
        budget is spent goes to ``failed``; otherwise it returns to
        ``queued`` for another worker to pick up.
        """
        rows = self._db.execute(
            "SELECT id, attempts, max_attempts FROM jobs "
            "WHERE state='running' AND lease_expires < ?",
            (now,),
        ).fetchall()
        requeued = exhausted = 0
        for job_id, attempts, max_attempts in rows:
            if attempts >= max_attempts:
                self._db.execute(
                    "UPDATE jobs SET state='failed', updated_at=?, "
                    "error=COALESCE(error, ?) WHERE id=?",
                    (
                        now,
                        f"lease expired after {attempts} attempt(s)",
                        job_id,
                    ),
                )
                exhausted += 1
            else:
                self._db.execute(
                    "UPDATE jobs SET state='queued', worker_id=NULL, "
                    "lease_expires=NULL, updated_at=? WHERE id=?",
                    (now, job_id),
                )
                requeued += 1
        if requeued:
            self._bump("leases_requeued", requeued)
        if exhausted:
            self._bump("leases_exhausted", exhausted)
        return {"requeued": requeued, "exhausted": exhausted}

    # -- submission --------------------------------------------------------

    def submit(
        self,
        sweep_id: str,
        specs: Iterable[tuple[str, dict]],
        precompleted: Iterable[str] = (),
        max_attempts: int | None = None,
        owner: str | None = None,
    ) -> list[dict[str, Any]]:
        """Enqueue one sweep: ``(spec_key, spec_dict)`` per job.

        Jobs are keyed ``<sweep_id>:<seq>``, so resubmitting the same
        sweep is a *resume*: done and in-flight jobs are left alone,
        failed/cancelled jobs are requeued with a fresh claim budget,
        and jobs whose ``spec_key`` is in ``precompleted`` (the caller
        probed the experiment store) are marked done with
        ``result_source='store'`` without ever being queued.

        ``owner`` scopes the sweep to one tenant, durably (the record
        rides in the queue file, so it survives restarts). The first
        submission claims the id; a later scoped submission under a
        different owner raises :class:`SweepOwnershipError` inside the
        same transaction that would have enqueued jobs — ownership can
        never be stolen by racing the check. ``owner=None`` is the
        unscoped (admin / open-mode) caller: it may resume any sweep
        and never overwrites a recorded owner.

        Returns the aligned list of job dictionaries.
        """
        if not sweep_id or "/" in sweep_id:
            raise SchedulerError(f"malformed sweep id {sweep_id!r}")
        budget = self.max_attempts if max_attempts is None else int(max_attempts)
        if budget < 1:
            raise SchedulerError(f"max_attempts must be >= 1, got {budget}")
        done_keys = set(precompleted)
        jobs: list[dict[str, Any]] = []
        now = self._clock()
        with self._txn():
            row = self._db.execute(
                "SELECT owner FROM sweeps WHERE sweep_id=?", (sweep_id,)
            ).fetchone()
            if row is None:
                self._db.execute(
                    "INSERT INTO sweeps (sweep_id, owner) VALUES (?, ?)",
                    (sweep_id, owner),
                )
            elif owner is not None and row[0] != owner:
                raise SweepOwnershipError(
                    f"sweep {sweep_id!r} is owned by another tenant"
                )
            submitted = reused = stored = 0
            for seq, (spec_key, spec_dict) in enumerate(specs):
                job_id = f"{sweep_id}:{seq}"
                spec_json = json.dumps(spec_dict, sort_keys=True)
                existing = self._fetch_job(job_id)
                if existing is None:
                    state = "done" if spec_key in done_keys else "queued"
                    source = "store" if spec_key in done_keys else None
                    self._db.execute(
                        "INSERT INTO jobs (id, sweep_id, seq, spec_key,"
                        " spec_json, state, attempts, max_attempts, worker_id,"
                        " lease_expires, result_source, error, created_at,"
                        " updated_at) VALUES (?, ?, ?, ?, ?, ?, 0, ?, NULL,"
                        " NULL, ?, NULL, ?, ?)",
                        (job_id, sweep_id, seq, spec_key, spec_json, state,
                         budget, source, now, now),
                    )
                    submitted += 1
                    stored += state == "done"
                else:
                    job = _job_dict(existing)
                    if job["spec_key"] != spec_key:
                        raise SchedulerError(
                            f"job {job_id} already holds spec {job['spec_key']} "
                            f"but the resubmission carries {spec_key}; use a "
                            "fresh sweep_id for a different spec list"
                        )
                    if job["state"] in ("failed", "cancelled"):
                        state = "done" if spec_key in done_keys else "queued"
                        source = "store" if spec_key in done_keys else None
                        self._db.execute(
                            "UPDATE jobs SET state=?, attempts=0,"
                            " max_attempts=?, worker_id=NULL,"
                            " lease_expires=NULL, result_source=?, error=NULL,"
                            " updated_at=? WHERE id=?",
                            (state, budget, source, now, job_id),
                        )
                        stored += state == "done"
                    reused += 1
                jobs.append(_job_dict(self._fetch_job(job_id)))
            if submitted:
                self._bump("jobs_submitted", submitted)
            if reused:
                self._bump("jobs_reused", reused)
            if stored:
                self._bump("jobs_precompleted", stored)
        self._notify()
        return jobs

    def sweep_owner(self, sweep_id: str) -> tuple[bool, str | None]:
        """``(known, owner)`` for one sweep id.

        ``known`` is whether the sweep has ever been submitted through
        this queue file; ``owner`` is the tenant recorded at first
        submission (``None`` for unscoped submissions — and for sweeps
        predating the ownership table, which lazy migration leaves
        unowned).
        """
        with self._lock:
            row = self._db.execute(
                "SELECT owner FROM sweeps WHERE sweep_id=?", (sweep_id,)
            ).fetchone()
        return (row is not None, row[0] if row is not None else None)

    # -- worker protocol ---------------------------------------------------

    def claim(
        self,
        worker_id: str,
        limit: int = 1,
        lease_seconds: float | None = None,
    ) -> list[dict[str, Any]]:
        """Lease up to ``limit`` queued jobs to ``worker_id``.

        Expired leases are swept first, so a dead worker's jobs become
        claimable the moment their lease lapses. Claiming increments
        each job's ``attempts``.
        """
        if not worker_id:
            raise SchedulerError("worker_id must be a non-empty string")
        if limit < 1:
            raise SchedulerError(f"limit must be >= 1, got {limit}")
        lease = self.lease_seconds if lease_seconds is None else float(lease_seconds)
        if lease <= 0:
            raise SchedulerError(f"lease_seconds must be > 0, got {lease}")
        now = self._clock()
        claimed: list[dict[str, Any]] = []
        with self._txn():
            expired = self._expire_leases_locked(now)
            rows = self._db.execute(
                "SELECT id FROM jobs WHERE state='queued' "
                "ORDER BY created_at ASC, sweep_id ASC, seq ASC LIMIT ?",
                (limit,),
            ).fetchall()
            for (job_id,) in rows:
                self._db.execute(
                    "UPDATE jobs SET state='running', worker_id=?,"
                    " lease_expires=?, attempts=attempts+1, updated_at=?"
                    " WHERE id=?",
                    (worker_id, now + lease, now, job_id),
                )
                claimed.append(_job_dict(self._fetch_job(job_id)))
            if claimed:
                self._bump("claims", len(claimed))
        if any(expired.values()):
            self._notify()
        return claimed

    def heartbeat(
        self,
        worker_id: str,
        job_ids: Iterable[str],
        lease_seconds: float | None = None,
    ) -> dict[str, list[str]]:
        """Extend the leases of ``worker_id``'s in-flight jobs.

        Returns which jobs are still ``owned`` and which were ``lost``
        (requeued and possibly reclaimed elsewhere after a lease lapse)
        so a worker can abandon work that is no longer its own.
        """
        lease = self.lease_seconds if lease_seconds is None else float(lease_seconds)
        now = self._clock()
        owned: list[str] = []
        lost: list[str] = []
        with self._txn():
            for job_id in job_ids:
                cursor = self._db.execute(
                    "UPDATE jobs SET lease_expires=?, updated_at=? "
                    "WHERE id=? AND worker_id=? AND state='running'",
                    (now + lease, now, job_id, worker_id),
                )
                (owned if cursor.rowcount else lost).append(job_id)
        return {"owned": owned, "lost": lost}

    def complete(
        self,
        job_id: str | list[str],
        worker_id: str | None = None,
        source: str = "worker",
    ) -> dict[str, Any] | None | list[dict[str, Any] | None]:
        """Mark a job done; idempotent. Returns ``None`` for unknown ids.

        Any live state is accepted: replays are deterministic, so a
        result arriving from a presumed-dead worker (lease lapsed, job
        requeued or even already re-completed) is still valid. The
        returned dictionary carries ``duplicate=True`` when the job was
        already done — the second of two completions is acknowledged,
        never an error.

        Given a list of ids, completes them all in one transaction, in
        order, and returns the aligned list of answers (an id listed
        twice is done, then a duplicate).
        """
        job_ids = [job_id] if isinstance(job_id, str) else list(job_id)
        now = self._clock()
        answers: list[dict[str, Any] | None] = []
        with self._txn():
            for one in job_ids:
                row = self._fetch_job(one)
                job = None if row is None else _job_dict(row)
                if job is not None and job["state"] == "done":
                    self._bump("duplicate_completes")
                    job["duplicate"] = True
                elif job is not None:
                    self._db.execute(
                        "UPDATE jobs SET state='done', result_source=?,"
                        " worker_id=?, lease_expires=NULL, error=NULL,"
                        " updated_at=? WHERE id=?",
                        (source, worker_id, now, one),
                    )
                    self._bump("completes")
                    job = _job_dict(self._fetch_job(one))
                    job["duplicate"] = False
                answers.append(job)
        self._notify()
        return answers[0] if isinstance(job_id, str) else answers

    def fail(
        self, job_id: str, worker_id: str | None = None, error: str = ""
    ) -> dict[str, Any] | None:
        """Record a worker-reported failure; requeue within the budget.

        Returns the job (with its new state) or ``None`` for unknown
        ids. Done/cancelled jobs are left untouched — and so is a job
        the reporting worker no longer owns: a failure arriving after
        the lease lapsed and another worker took over must not requeue
        (or park) work that is live elsewhere. Completions are the
        asymmetric case — a late *result* is still valid, a late
        failure is just stale news.
        """
        now = self._clock()
        with self._txn():
            row = self._fetch_job(job_id)
            if row is None:
                return None
            job = _job_dict(row)
            if job["state"] in ("done", "cancelled"):
                return job
            if worker_id is not None and job["worker_id"] != worker_id:
                # Covers both a live lease held by someone else (state
                # running) and a lapsed-and-requeued job (state queued,
                # worker cleared): either way the reporter lost this job.
                self._bump("stale_failures")
                return job
            if job["attempts"] >= job["max_attempts"]:
                self._db.execute(
                    "UPDATE jobs SET state='failed', error=?, updated_at=?"
                    " WHERE id=?",
                    (error or "worker reported failure", now, job_id),
                )
                self._bump("failures")
            else:
                self._db.execute(
                    "UPDATE jobs SET state='queued', worker_id=NULL,"
                    " lease_expires=NULL, error=?, updated_at=? WHERE id=?",
                    (error or "worker reported failure", now, job_id),
                )
                self._bump("retries")
            job = _job_dict(self._fetch_job(job_id))
        self._notify()
        return job

    # -- control and introspection ----------------------------------------

    def cancel(self, sweep_id: str) -> int:
        """Cancel a sweep's queued jobs; running jobs finish normally."""
        now = self._clock()
        with self._txn():
            cursor = self._db.execute(
                "UPDATE jobs SET state='cancelled', updated_at=? "
                "WHERE sweep_id=? AND state='queued'",
                (now, sweep_id),
            )
            if cursor.rowcount:
                self._bump("cancelled", cursor.rowcount)
        self._notify()
        return cursor.rowcount

    def expire_leases(self) -> dict[str, int]:
        """Sweep lapsed leases now (claim and progress do this lazily)."""
        with self._txn():
            expired = self._expire_leases_locked(self._clock())
        if any(expired.values()):
            self._notify()
        return expired

    @property
    def version(self) -> int:
        """How many times this process has woken the queue's waiters.

        Read it before checking the queue, then pass it to :meth:`wait`:
        a commit in between makes the wait return at once.
        """
        with self._changed:
            return self._version

    def wait(self, seen: int, timeout: float) -> bool:
        """Block until :attr:`version` passes ``seen``, or ``timeout``.

        Returns ``False`` once :meth:`stop_waiting` has been called (at
        once, without blocking), ``True`` otherwise.
        """
        with self._changed:
            if not self._stopped and self._version == seen:
                self._changed.wait(timeout)
            return not self._stopped

    def stop_waiting(self) -> None:
        """Wake every :meth:`wait` and make later ones return at once.

        A server calls this as it closes, so a request blocked on an
        empty queue answers at once instead of outliving the server.
        """
        with self._changed:
            self._stopped = True
            self._changed.notify_all()

    def job(self, job_id: str) -> dict[str, Any] | None:
        """One job by id, or ``None``."""
        with self._lock:
            row = self._fetch_job(job_id)
        return _job_dict(row) if row is not None else None

    def jobs(
        self,
        sweep_id: str | None = None,
        state: str | None = None,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """Jobs in submission order, optionally filtered."""
        if state is not None and state not in JOB_STATES:
            raise SchedulerError(
                f"unknown job state {state!r}; expected one of {JOB_STATES}"
            )
        query = f"SELECT {', '.join(_JOB_COLUMNS)} FROM jobs"
        clauses, params = [], []
        if sweep_id is not None:
            clauses.append("sweep_id=?")
            params.append(sweep_id)
        if state is not None:
            clauses.append("state=?")
            params.append(state)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY created_at ASC, sweep_id ASC, seq ASC"
        if limit is not None:
            query += " LIMIT ?"
            params.append(int(limit))
        with self._lock:
            rows = self._db.execute(query, params).fetchall()
        return [_job_dict(row) for row in rows]

    def progress(self, sweep_id: str | None = None) -> dict[str, Any]:
        """State counts (lapsed leases swept first) for one sweep or all.

        ``pending = queued + running`` is the number the sweep driver
        polls to zero; when jobs failed, the first few are inlined so a
        client can report *why* without extra round trips.
        """
        now = self._clock()
        with self._txn():
            expired = self._expire_leases_locked(now)
            query = "SELECT state, COUNT(*) FROM jobs"
            params: tuple = ()
            if sweep_id is not None:
                query += " WHERE sweep_id=?"
                params = (sweep_id,)
            counts = dict(self._db.execute(query + " GROUP BY state", params))
        if any(expired.values()):
            self._notify()
        report: dict[str, Any] = {"sweep_id": sweep_id}
        report.update({state: counts.get(state, 0) for state in JOB_STATES})
        report["total"] = sum(counts.values())
        report["pending"] = report["queued"] + report["running"]
        if report["failed"]:
            report["failed_jobs"] = [
                {"id": job["id"], "spec_key": job["spec_key"], "error": job["error"]}
                for job in self.jobs(sweep_id=sweep_id, state="failed", limit=10)
            ]
        return report

    def stats(self) -> dict[str, Any]:
        """State counts plus the persistent scheduler counters."""
        with self._lock:
            counts = dict(
                self._db.execute("SELECT state, COUNT(*) FROM jobs GROUP BY state")
            )
            counters = dict(
                self._db.execute("SELECT name, value FROM counters").fetchall()
            )
        for state in JOB_STATES:
            _OBS_DEPTH.set(counts.get(state, 0), state=state)
        return {
            "schema": SCHED_SCHEMA,
            "path": str(self.path),
            **{state: counts.get(state, 0) for state in JOB_STATES},
            "total": sum(counts.values()),
            "counters": counters,
        }

    def slo_snapshot(self, now: float | None = None) -> dict[str, Any]:
        """Read-only SLO probe: queue lag and heartbeat staleness.

        Deliberately does *not* sweep lapsed leases — a worker that
        stopped heartbeating must stay visible as an overdue running
        job until a claim or progress poll requeues it, otherwise the
        health layer could never observe the outage it alerts on.
        Refreshes the ``repro_sched_oldest_queued_age_seconds`` and
        ``repro_sched_lease_overdue_seconds`` gauges as a side effect.
        """
        ts = self._clock() if now is None else now
        with self._lock:
            oldest = self._db.execute(
                "SELECT MIN(created_at) FROM jobs WHERE state='queued'"
            ).fetchone()[0]
            overdue_jobs, most_overdue = self._db.execute(
                "SELECT COUNT(*), MAX(? - lease_expires) FROM jobs "
                "WHERE state='running' AND lease_expires IS NOT NULL "
                "AND lease_expires < ?",
                (ts, ts),
            ).fetchone()
            queued, running = (
                self._db.execute(
                    "SELECT "
                    " SUM(CASE WHEN state='queued' THEN 1 ELSE 0 END),"
                    " SUM(CASE WHEN state='running' THEN 1 ELSE 0 END)"
                    " FROM jobs"
                ).fetchone()
            )
        oldest_age = None if oldest is None else max(0.0, ts - oldest)
        overdue_seconds = float(most_overdue or 0.0)
        _OBS_OLDEST_QUEUED.set(oldest_age or 0.0)
        _OBS_LEASE_OVERDUE_SECONDS.set(overdue_seconds)
        return {
            "oldest_queued_age_seconds": oldest_age,
            "lease_overdue_jobs": int(overdue_jobs or 0),
            "lease_overdue_seconds": overdue_seconds,
            "queued": int(queued or 0),
            "running": int(running or 0),
        }

