"""The sweep worker: claim specs, replay them, deliver rows.

A :class:`Worker` is one member of the fleet behind a scheduler-enabled
service (``repro-tlb serve``). Its loop is deliberately dumb — all
coordination state lives in the server's :class:`~repro.sched.queue.JobQueue`:

1. ``POST /claim`` a batch of jobs with ``wait=poll_interval``: on an
   empty queue the server holds the request until a job is claimable
   (or the wait runs out, and the worker simply claims again), so the
   worker does not sleep between claims. Only an empty claim answered
   sooner than that (a server that does not hold claims) is followed
   by a pause for the rest of ``poll_interval``;
2. for each job, **consult the store first** — a worker given a local
   ``store=`` (shared filesystem with the server) runs its specs
   through a store-backed :class:`~repro.run.runner.Runner`, so a spec
   another worker already landed costs one index probe, not a replay;
3. replay the rest through the engine the spec names (``auto`` → the
   compiled engine for every built-in mechanism);
4. one ``POST /complete`` carrying every row and every error of the
   batch — the server writes the rows back through its
   :class:`~repro.store.ExperimentStore`, content-addressed and
   deduplicated.

A background thread heartbeats the in-flight jobs; if the worker dies,
the heartbeats stop and the leases lapse, so the scheduler requeues its
jobs onto the rest of the fleet. Constructor knobs double as the fault
injectors the scheduler tests drive: ``crash_after_claims`` makes the
worker vanish mid-lease exactly like a SIGKILL (claims kept, no
completes, no further heartbeats), and ``fail_keys`` makes it report
failures for chosen specs to exercise the bounded-retry path.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import uuid
from dataclasses import asdict
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.obs import bind_context, drain_spans, get_logger, trace
from repro.run.runner import MissStreamCache, Runner
from repro.run.spec import RunSpec
from repro.sched.client import SchedulerClient
from repro.service.client import ServiceError
from repro.store import ExperimentStore

_LOG = get_logger("worker")


def default_worker_id() -> str:
    """Host- and process-unique worker identity."""
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:6]}"


class Worker:
    """One claim→replay→complete loop against a scheduler service.

    Args:
        base_url: scheduler service address.
        worker_id: fleet-unique identity; defaults to host:pid:nonce.
        store: optional *local* experiment store (a path or instance) —
            for workers sharing the server's filesystem; specs found
            there are served without replaying.
        lease_seconds: lease length requested on claim and heartbeat.
        poll_interval: the longest an empty claim waits at the server
            for work (the claim's ``wait``); also the pause before
            retrying an unreachable service.
        batch: jobs claimed per request (amortizes HTTP overhead);
            must be >= 1.
        max_jobs: stop after processing this many jobs (None = forever).
        fail_keys: spec keys to report as failures (fault injection).
        crash_after_claims: vanish (stop heartbeating, abandon leases,
            return) once this many jobs have been claimed (fault
            injection — behaves like a SIGKILL).
        slow_seconds: sleep this long before each replay (fault
            injection — simulates expensive jobs so kill-mid-sweep
            tests are deterministic; heartbeats keep running).
        request_timeout: per-HTTP-request socket timeout in seconds —
            a hung service socket fails the request (and lets lease
            expiry recover) instead of wedging the worker forever.
        token: API token for a tenant-mode service (the tenant must be
            worker-capable, or ``/claim`` answers 403).
        client: injectable :class:`SchedulerClient` (tests).
    """

    def __init__(
        self,
        base_url: str,
        worker_id: str | None = None,
        store: "ExperimentStore | str | Path | None" = None,
        lease_seconds: float = 15.0,
        poll_interval: float = 0.25,
        batch: int = 4,
        max_jobs: int | None = None,
        fail_keys: frozenset[str] | set[str] = frozenset(),
        crash_after_claims: int | None = None,
        slow_seconds: float = 0.0,
        request_timeout: float = 30.0,
        token: str | None = None,
        client: SchedulerClient | None = None,
    ) -> None:
        if batch < 1:
            raise ConfigurationError(f"batch must be >= 1, got {batch}")
        self.client = (
            client
            if client is not None
            else SchedulerClient(base_url, timeout=request_timeout, token=token)
        )
        self.worker_id = worker_id or default_worker_id()
        self.runner = Runner(cache=MissStreamCache(), store=store)
        self.lease_seconds = lease_seconds
        self.poll_interval = poll_interval
        self.batch = int(batch)
        self.max_jobs = max_jobs
        self.fail_keys = frozenset(fail_keys)
        self.crash_after_claims = crash_after_claims
        self.slow_seconds = slow_seconds
        self.claimed = 0
        self.completed = 0
        self.failed = 0
        self.report_errors = 0
        self.crashed = False
        self._stop = threading.Event()
        self._inflight_lock = threading.Lock()
        self._inflight: set[str] = set()

    # -- control -----------------------------------------------------------

    def stop(self) -> None:
        """Ask the loop to exit after the current batch."""
        self._stop.set()

    # -- the loop ----------------------------------------------------------

    def run(self) -> dict[str, Any]:
        """Claim and process jobs until stopped; returns a summary."""
        heartbeater = threading.Thread(target=self._heartbeat_loop, daemon=True)
        heartbeater.start()
        try:
            while not self._stop.is_set() and not self._budget_spent():
                limit = self.batch
                if self.max_jobs is not None:
                    # Never claim jobs the budget won't let us process —
                    # they would sit leased until expiry after we exit.
                    limit = min(
                        limit, self.max_jobs - (self.completed + self.failed)
                    )
                claim_began = time.perf_counter()
                try:
                    jobs = self.client.claim(
                        self.worker_id,
                        limit=limit,
                        lease_seconds=self.lease_seconds,
                        wait=self.poll_interval,
                    )
                except ServiceError as exc:
                    if exc.status == 0:  # service down/restarting: retry soon
                        self._stop.wait(self.poll_interval)
                        continue
                    raise
                if not jobs:
                    # Normally the server already held the claim for
                    # poll_interval; one that answered early must not
                    # be claimed from again in a tight loop.
                    held = time.perf_counter() - claim_began
                    self._stop.wait(max(0.0, self.poll_interval - held))
                    continue
                self.claimed += len(jobs)
                if (
                    self.crash_after_claims is not None
                    and self.claimed >= self.crash_after_claims
                ):
                    # Fault injection: die with the leases held, exactly
                    # like a SIGKILL between claim and complete.
                    self.crashed = True
                    return self.summary()
                # The whole claimed batch is in flight until its one
                # report: heartbeats must cover every job of a slow
                # batch, or their leases lapse mid-replay and burn their
                # retry budgets while the worker is healthy.
                with self._inflight_lock:
                    self._inflight.update(job["id"] for job in jobs)
                try:
                    self._process(jobs)
                finally:
                    with self._inflight_lock:
                        self._inflight.clear()
                self._push_spans()
        finally:
            self._stop.set()
            heartbeater.join(timeout=5.0)
        return self.summary()

    def summary(self) -> dict[str, Any]:
        return {
            "worker_id": self.worker_id,
            "claimed": self.claimed,
            "completed": self.completed,
            "failed": self.failed,
            "report_errors": self.report_errors,
            "crashed": self.crashed,
        }

    def _budget_spent(self) -> bool:
        return (
            self.max_jobs is not None
            and self.completed + self.failed >= self.max_jobs
        )

    # -- one batch ---------------------------------------------------------

    def _process(self, jobs: list[dict[str, Any]]) -> None:
        """Replay a claimed batch job by job, then report it in one
        ``/complete``."""
        outcomes = [self._replay(job) for job in jobs]
        try:
            self.client.complete(self.worker_id, outcomes)
        except ServiceError as exc:
            # The results (and failure reports) are lost; lease expiry
            # will requeue the jobs, and replays are deterministic, so
            # the sweep still converges. A refused report (a 4xx) will
            # not converge, though, so say so loudly.
            self.report_errors += 1
            _LOG.error(
                "worker %s could not report %d job(s): %s",
                self.worker_id, len(outcomes), exc,
            )

    def _replay(self, job: dict[str, Any]) -> dict[str, Any]:
        """Replay one job: its ``{"job_id", "run" | "error"}`` outcome."""
        outcome: dict[str, Any] = {"job_id": job["id"]}
        # A job claimed from a traced sweep carries the sweep's trace
        # context; binding it makes this worker's spans (job → replay →
        # store-write) part of that one distributed trace.
        with bind_context(job.get("trace")):
            with trace("worker.job", job_id=job["id"], worker=self.worker_id):
                try:
                    if self.slow_seconds:
                        self._stop.wait(self.slow_seconds)
                    spec = RunSpec.from_dict(job["spec"])
                    if spec.key() in self.fail_keys:
                        raise RuntimeError(
                            f"injected failure for spec {spec.key()}"
                        )
                    # Store-backed runner: consult the store first,
                    # replay only on a miss, persist the fresh row
                    # locally too.
                    outcome["run"] = asdict(self.runner.run([spec])[0])
                except Exception as exc:  # noqa: BLE001 - report, don't die
                    outcome["error"] = f"{type(exc).__name__}: {exc}"
                    self.failed += 1
                    _LOG.warning(
                        "worker %s job %s failed: %s",
                        self.worker_id, job["id"], exc,
                    )
                else:
                    self.completed += 1
        return outcome

    def _push_spans(self) -> None:
        """Ship this worker's freshly collected spans to the service.

        Guarded with ``getattr``: tests inject stub clients without the
        trace endpoints, and a plain :class:`ServiceClient` predates
        them — span shipping is strictly best-effort.
        """
        push = getattr(self.client, "push_spans", None)
        if not callable(push):
            return
        spans = drain_spans()
        if not spans:
            return
        try:
            push(spans)
        except ServiceError:
            pass  # spans are observability, never worth failing the loop

    # -- heartbeats --------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        interval = max(0.05, self.lease_seconds / 3.0)
        while not self._stop.wait(interval):
            with self._inflight_lock:
                inflight = sorted(self._inflight)
            if not inflight:
                continue
            try:
                self.client.heartbeat(
                    self.worker_id, inflight, lease_seconds=self.lease_seconds
                )
            except ServiceError:
                pass  # transient; the next beat (or lease slack) covers it


def run_worker(base_url: str, **options: Any) -> int:
    """Blocking CLI entry point (``repro-tlb worker``).

    ``options`` are :class:`Worker` keyword arguments; the worker is
    the one place their defaults live.
    """
    worker = Worker(base_url, **options)
    print(
        f"repro-tlb worker {worker.worker_id} polling {worker.client.base_url} "
        f"(lease {worker.lease_seconds}s, batch {worker.batch})",
        flush=True,
    )
    started = time.monotonic()
    try:
        summary = worker.run()
    except KeyboardInterrupt:
        worker.stop()
        summary = worker.summary()
    elapsed = time.monotonic() - started
    print(
        f"worker {worker.worker_id}: {summary['completed']} completed, "
        f"{summary['failed']} failed of {summary['claimed']} claimed "
        f"in {elapsed:.1f}s",
        flush=True,
    )
    return 0 if summary["failed"] == 0 else 1
