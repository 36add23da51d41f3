"""The Runner's distributed execution backend.

:class:`DistributedExecutor` adapts the scheduler protocol to the shape
:class:`~repro.run.runner.Runner` needs from an execution backend — a
list of specs in, an aligned list of result rows out — so
``Runner(service_url=...)`` (and therefore
``ExperimentContext(service_url=...)`` and every table or figure built
on it) fans a batch out to the worker fleet instead of a
local process pool, with no change to the results: rows come back in
input order and byte-identical to serial execution.
"""

from __future__ import annotations

from repro.run.spec import RunSpec
from repro.sched.client import SchedulerClient
from repro.sim.stats import PrefetchRunStats


class DistributedExecutor:
    """Executes RunSpec batches through a scheduler service.

    Args:
        service_url: address of a ``repro-tlb serve`` instance with a
            worker fleet polling it.
        poll_interval: sweep-progress polling cadence.
        timeout: overall sweep deadline in seconds (None = wait).
        max_attempts: per-job claim budget forwarded to the queue.
        request_timeout: per-HTTP-request socket timeout in seconds —
            distinct from ``timeout``, the whole-sweep deadline.
        token: API token for a tenant-mode service.
        client: injectable :class:`SchedulerClient` (tests).
    """

    def __init__(
        self,
        service_url: str,
        poll_interval: float = 0.25,
        timeout: float | None = None,
        max_attempts: int | None = None,
        request_timeout: float = 30.0,
        token: str | None = None,
        client: SchedulerClient | None = None,
    ) -> None:
        self.client = (
            client
            if client is not None
            else SchedulerClient(service_url, timeout=request_timeout, token=token)
        )
        self.poll_interval = poll_interval
        self.timeout = timeout
        self.max_attempts = max_attempts

    def run(self, specs: list[RunSpec]) -> list[PrefetchRunStats]:
        """Submit one sweep and block until the fleet drains it."""
        if not specs:
            return []
        results = self.client.submit_sweep(
            specs,
            max_attempts=self.max_attempts,
            poll_interval=self.poll_interval,
            timeout=self.timeout,
        )
        return list(results)
