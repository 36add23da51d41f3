"""Client side of the distributed sweep scheduler.

:class:`SchedulerClient` extends the plain
:class:`~repro.service.client.ServiceClient` with the job-queue
endpoints, and :meth:`SchedulerClient.submit_sweep` is the high-level
entry point: submit a RunSpec batch, long-poll ``GET /progress`` until
the worker fleet has drained it, and assemble the rows into a
:class:`~repro.run.results.ResultSet` **in submission order** —
byte-identical to what a serial :class:`~repro.run.runner.Runner`
would have returned, because replays are deterministic and every row
round-trips through the same content-addressed store.
"""

from __future__ import annotations

import time
import urllib.parse
import uuid
from collections.abc import Iterable
from typing import Any

from repro.errors import SchedulerError
from repro.obs import drain_spans, trace
from repro.run.results import ResultSet
from repro.run.spec import RunSpec
from repro.service.client import ServiceClient, ServiceError
from repro.sim.stats import PrefetchRunStats


class SchedulerClient(ServiceClient):
    """ServiceClient plus the lease-based job-queue protocol."""

    # -- endpoint wrappers -------------------------------------------------

    def submit_jobs(
        self,
        specs: list[dict],
        sweep_id: str | None = None,
        max_attempts: int | None = None,
    ) -> dict:
        """``POST /jobs``: enqueue a sweep of spec dicts."""
        body: dict[str, Any] = {"specs": specs}
        if sweep_id is not None:
            body["sweep_id"] = sweep_id
        if max_attempts is not None:
            body["max_attempts"] = max_attempts
        return self.request("/jobs", body)

    def claim(
        self,
        worker_id: str,
        limit: int = 1,
        lease_seconds: float | None = None,
        wait: float | None = None,
    ) -> list[dict]:
        """``POST /claim``: lease up to ``limit`` jobs.

        With ``wait``, the server holds an empty claim for up to that
        many seconds (capped server-side) and answers as soon as a job
        is claimable, so a worker needs no sleep between claims; an
        empty list means the wait ran out.

        Retried on transport failure (marked idempotent): a claim the
        server processed but whose response was lost is recovered by
        lease expiry, and results stay correct — content-addressed
        rows, idempotent completion. The recovery is not free, though:
        an orphaned claim consumes one of the job's ``max_attempts``
        (the server cannot tell a lost response from a worker that
        died mid-replay), so persistent response loss can park a job
        as failed; resubmitting the sweep resets the budget.
        """
        body: dict[str, Any] = {"worker_id": worker_id, "limit": limit}
        if lease_seconds is not None:
            body["lease_seconds"] = lease_seconds
        if wait is not None:
            body["wait"] = wait
        return self.request(
            "/claim", body, idempotent=True, timeout=self._held(wait)
        )["jobs"]

    def complete(self, worker_id: str, results: list[dict]) -> list[dict]:
        """``POST /complete``: deliver a claim's result rows and failures.

        ``results`` holds one ``{"job_id", "run" | "error"}`` outcome
        per job; the answer is one reply per outcome, in order. The
        server checks every outcome before it writes any. Idempotent
        server-side, so marked retryable here.
        """
        body = {"worker_id": worker_id, "results": results}
        return self.request("/complete", body, idempotent=True)["results"]

    def heartbeat(
        self,
        worker_id: str,
        job_ids: list[str],
        lease_seconds: float | None = None,
    ) -> dict:
        """``POST /heartbeat``: extend leases; reports owned vs lost."""
        body: dict[str, Any] = {"worker_id": worker_id, "job_ids": job_ids}
        if lease_seconds is not None:
            body["lease_seconds"] = lease_seconds
        return self.request("/heartbeat", body, idempotent=True)

    def job(self, job_id: str) -> dict:
        """``GET /jobs/<id>``: one job's full record."""
        return self.request(f"/jobs/{urllib.parse.quote(job_id, safe='')}")

    def progress(
        self, sweep_id: str | None = None, wait: float | None = None
    ) -> dict:
        """``GET /progress``: state counts for one sweep (or the queue).

        With ``wait``, the server answers once nothing is pending, a job
        has failed or been cancelled, or ``wait`` seconds (capped
        server-side) have passed, whichever comes first.
        """
        query = {
            name: value
            for name, value in (("sweep_id", sweep_id), ("wait", wait))
            if value is not None
        }
        suffix = "?" + urllib.parse.urlencode(query) if query else ""
        return self.request("/progress" + suffix, timeout=self._held(wait))

    def _held(self, wait: float | None) -> float:
        """Socket timeout for a request the server may hold ``wait`` s:
        a held request must not time out while the server is healthy."""
        return self.timeout + (wait or 0.0)

    def cancel(self, sweep_id: str) -> dict:
        """``POST /cancel``: cancel a sweep's queued jobs."""
        return self.request("/cancel", {"sweep_id": sweep_id})

    def push_spans(self, spans: list[dict]) -> dict:
        """``POST /trace``: ship locally collected spans to the service.

        Idempotent in effect (span ids dedupe nothing server-side, but
        workers only push freshly drained spans, so retry-after-success
        is the only duplication risk and is cosmetic) — still marked
        non-idempotent to keep the failure mode a clean drop.
        """
        return self.request("/trace", {"spans": spans})

    def fetch_trace(self, trace_id: str | None = None) -> dict:
        """``GET /trace``: one trace's spans, or summaries of all."""
        suffix = (
            "?" + urllib.parse.urlencode({"trace_id": trace_id})
            if trace_id is not None
            else ""
        )
        return self.request("/trace" + suffix)

    # -- the high-level sweep driver ---------------------------------------

    def submit_sweep(
        self,
        specs: Iterable[RunSpec | dict],
        sweep_id: str | None = None,
        max_attempts: int | None = None,
        poll_interval: float = 0.25,
        timeout: float | None = None,
    ) -> ResultSet:
        """Run a sweep on the worker fleet; block until it drains.

        Specs already in the service's experiment store never reach the
        queue (zero re-replays on a warm resubmit); the rest are leased
        out to whatever workers are polling ``/claim``. Pass an explicit
        ``sweep_id`` to make the submission resumable — a crashed driver
        re-running ``submit_sweep`` with the same id reuses every job
        the fleet already finished.

        Returns the rows in submission order (duplicate specs share a
        row), byte-identical to a serial Runner run of the same batch.
        Raises :class:`~repro.errors.SchedulerError` if any job ends
        failed or cancelled, or the ``timeout`` passes. Each
        ``GET /progress`` long-polls for at most ``poll_interval``
        seconds and never past the deadline.
        """
        spec_dicts = [
            spec.to_dict() if isinstance(spec, RunSpec) else spec for spec in specs
        ]
        if not spec_dicts:
            return ResultSet()
        sweep_id = sweep_id or f"sweep-{uuid.uuid4().hex[:12]}"
        # One root span for the whole sweep: every request below rides
        # under it (the client injects X-Repro-Trace), so the service
        # and every worker that touches this sweep's jobs contribute
        # spans to a single connected trace.
        with trace("sweep", sweep_id=sweep_id, specs=len(spec_dicts)):
            self.submit_jobs(
                spec_dicts, sweep_id=sweep_id, max_attempts=max_attempts
            )
            deadline = None if timeout is None else time.monotonic() + timeout
            while True:
                wait = poll_interval
                if deadline is not None:
                    wait = max(0.0, min(wait, deadline - time.monotonic()))
                progress = self.progress(sweep_id, wait=wait)
                if progress["failed"] or progress["cancelled"]:
                    details = "; ".join(
                        f"{job['id']} ({job['spec_key']}): {job['error']}"
                        for job in progress.get("failed_jobs", [])
                    ) or f"{progress['cancelled']} job(s) cancelled"
                    raise SchedulerError(
                        f"sweep {sweep_id} finished with {progress['failed']} failed "
                        f"and {progress['cancelled']} cancelled job(s): {details}"
                    )
                if progress["pending"] == 0:
                    break
                if deadline is not None and time.monotonic() >= deadline:
                    raise SchedulerError(
                        f"sweep {sweep_id} timed out with {progress['pending']} "
                        f"job(s) still pending (of {progress['total']})"
                    )
            # One batch fetch for the whole sweep: every key is in the
            # store now, so the store-backed ``POST /runs`` serves the
            # rows in submission order (duplicates sharing one row)
            # without simulating anything — and without N per-key round
            # trips.
            fetched = self.submit(spec_dicts)
        # Ship the locally recorded spans — including the sweep root
        # that just closed — to the service, so the assembled trace is
        # complete server-side (workers pushed theirs the same way).
        # Best-effort: a lost push never fails a drained sweep.
        spans = drain_spans()
        if spans:
            try:
                self.push_spans(spans)
            except ServiceError:
                pass
        return ResultSet(PrefetchRunStats(**run) for run in fetched["runs"])
