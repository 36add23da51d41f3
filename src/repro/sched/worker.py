"""The sweep worker: claim specs, replay them, deliver rows.

A :class:`Worker` is one member of the fleet behind a scheduler-enabled
service (``repro-tlb serve``). Its loop is deliberately dumb — all
coordination state lives in the server's :class:`~repro.sched.queue.JobQueue`:

1. ``POST /claim`` a batch of jobs (polling while the queue is empty);
2. for each job, **consult the store first** — a worker given a local
   ``store=`` (shared filesystem with the server) runs its specs
   through a store-backed :class:`~repro.run.runner.Runner`, so a spec
   another worker already landed costs one index probe, not a replay;
3. replay the rest through the engine the spec names (``auto`` → the
   compiled engine for every built-in mechanism);
4. ``POST /complete`` with the result row — the server writes it back
   through its :class:`~repro.store.ExperimentStore`, content-addressed
   and deduplicated.

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

from repro.obs import REGISTRY, bind_context, drain_spans, get_logger, trace
from repro.run.runner import MissStreamCache, Runner
from repro.run.spec import RunSpec
from repro.sched.client import SchedulerClient
from repro.service.client import ServiceError
from repro.store import ExperimentStore

_OBS_CLAIM_SECONDS = REGISTRY.histogram(
    "repro_worker_claim_seconds",
    "Wall-clock per claim round trip (including empty claims).",
)
_OBS_HEARTBEAT_SECONDS = REGISTRY.histogram(
    "repro_worker_heartbeat_seconds",
    "Wall-clock per heartbeat round trip.",
)
_OBS_HEARTBEATS = REGISTRY.counter(
    "repro_worker_heartbeats_total",
    "Heartbeats sent, by outcome.",
    labels=("outcome",),
)
_OBS_JOB_SECONDS = REGISTRY.histogram(
    "repro_worker_job_seconds",
    "Wall-clock per processed job, by outcome.",
    labels=("outcome",),
)

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
        poll_interval: sleep between empty claims.
        batch: jobs claimed per request (amortizes HTTP overhead).
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
        self.client = (
            client
            if client is not None
            else SchedulerClient(base_url, timeout=request_timeout, token=token)
        )
        self.worker_id = worker_id or default_worker_id()
        self.runner = Runner(cache=MissStreamCache(), store=store)
        self.lease_seconds = lease_seconds
        self.poll_interval = poll_interval
        self.batch = max(1, int(batch))
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
        """Ask the loop to exit after the current job."""
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
                    )
                    _OBS_CLAIM_SECONDS.observe(time.perf_counter() - claim_began)
                except ServiceError as exc:
                    if exc.status == 0:  # service down/restarting: keep polling
                        self._stop.wait(self.poll_interval)
                        continue
                    raise
                if not jobs:
                    self._stop.wait(self.poll_interval)
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
                # The whole claimed batch is in flight from this moment:
                # heartbeats must cover the jobs *waiting* behind a slow
                # replay too, or their leases lapse mid-batch and burn
                # their retry budgets while the worker is healthy.
                with self._inflight_lock:
                    self._inflight.update(job["id"] for job in jobs)
                for job in jobs:
                    if self._stop.is_set():
                        break
                    self._process(job)
                    if self._budget_spent():
                        break
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

    # -- one job -----------------------------------------------------------

    def _process(self, job: dict[str, Any]) -> None:
        job_id = job["id"]
        began = time.perf_counter()
        # A job claimed from a traced sweep carries the sweep's trace
        # context; binding it makes this worker's spans (job → replay →
        # store-write) part of that one distributed trace.
        try:
            with bind_context(job.get("trace")):
                with trace("worker.job", job_id=job_id, worker=self.worker_id):
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
                        stats = self.runner.run([spec])[0]
                    except Exception as exc:  # noqa: BLE001 - report, don't die
                        self.failed += 1
                        _OBS_JOB_SECONDS.observe(
                            time.perf_counter() - began, outcome="failed"
                        )
                        _LOG.warning(
                            "worker %s job %s failed: %s",
                            self.worker_id, job_id, exc,
                        )
                        self._report(
                            job_id, error=f"{type(exc).__name__}: {exc}"
                        )
                        return
                    self.completed += 1
                    _OBS_JOB_SECONDS.observe(
                        time.perf_counter() - began, outcome="completed"
                    )
                    self._report(job_id, run=asdict(stats))
        finally:
            with self._inflight_lock:
                self._inflight.discard(job_id)

    def _report(self, job_id: str, **outcome: Any) -> None:
        try:
            self.client.complete(job_id, self.worker_id, **outcome)
        except ServiceError:
            # The result (or failure report) is lost; lease expiry will
            # requeue the job, and replays are deterministic, so the
            # sweep still converges. Count it for observability.
            self.report_errors += 1

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
            began = time.perf_counter()
            try:
                self.client.heartbeat(
                    self.worker_id, inflight, lease_seconds=self.lease_seconds
                )
            except ServiceError:
                _OBS_HEARTBEATS.inc(outcome="error")
                continue  # transient; the next beat (or lease slack) covers it
            _OBS_HEARTBEAT_SECONDS.observe(time.perf_counter() - began)
            _OBS_HEARTBEATS.inc(outcome="ok")


def run_worker(
    base_url: str,
    store: str | None = None,
    lease_seconds: float = 15.0,
    poll_interval: float = 0.25,
    batch: int = 4,
    max_jobs: int | None = None,
    worker_id: str | None = None,
    crash_after_claims: int | None = None,
    slow_seconds: float = 0.0,
    request_timeout: float = 30.0,
    token: str | None = None,
) -> int:
    """Blocking CLI entry point (``repro-tlb worker``)."""
    worker = Worker(
        base_url,
        worker_id=worker_id,
        store=store,
        lease_seconds=lease_seconds,
        poll_interval=poll_interval,
        batch=batch,
        max_jobs=max_jobs,
        crash_after_claims=crash_after_claims,
        slow_seconds=slow_seconds,
        request_timeout=request_timeout,
        token=token,
    )
    print(
        f"repro-tlb worker {worker.worker_id} polling {worker.client.base_url} "
        f"(lease {lease_seconds}s, batch {batch})",
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
