"""Distributed sweep scheduler: lease-based job queue + worker fleet.

The scheduler shards a RunSpec batch across any number of worker
processes — on one machine or many — coordinated entirely through the
HTTP experiment service, with the repo's invariant intact: a
distributed sweep returns a :class:`~repro.run.results.ResultSet`
byte-identical to the serial one.

=====================================  ================================
:class:`~repro.sched.queue.JobQueue`   persistent SQLite queue: leases,
                                       heartbeats, bounded retries,
                                       dead-worker requeue
:class:`~repro.sched.worker.Worker`    long-polled claim → store-first
                                       replay → one complete per
                                       claim loop (``repro-tlb
                                       worker``)
:class:`~repro.sched.client.SchedulerClient`
                                       job-queue endpoints +
                                       :meth:`submit_sweep` (the
                                       ``Runner(service_url=...)``
                                       backend)
=====================================  ================================

Quickstart — a server, two workers, one sweep::

    repro-tlb serve  --store .repro-store --port 8321
    repro-tlb worker --url http://127.0.0.1:8321 --store .repro-store &
    repro-tlb worker --url http://127.0.0.1:8321 --store .repro-store &
    repro-tlb submit --url http://127.0.0.1:8321 --app galgel \\
        --app swim --mechanism DP --wait
"""

from repro.sched.client import SchedulerClient
from repro.sched.queue import JOB_STATES, SCHED_SCHEMA, JobQueue
from repro.sched.worker import Worker, default_worker_id, run_worker

__all__ = [
    "JOB_STATES",
    "JobQueue",
    "SCHED_SCHEMA",
    "SchedulerClient",
    "Worker",
    "default_worker_id",
    "run_worker",
]
