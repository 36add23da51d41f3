"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch everything from this package with a single ``except`` clause
while still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError, ValueError):
    """A simulator, table, or workload was configured with invalid values.

    Raised eagerly at construction time (not at use time) so that a bad
    sweep parameter fails before a long simulation starts.
    """


class UnknownWorkloadError(ReproError, KeyError):
    """A workload name was not found in the registry."""

    def __init__(self, name: str, known: list[str] | None = None) -> None:
        self.name = name
        self.known = known or []
        hint = ""
        if self.known:
            hint = f" (known: {', '.join(sorted(self.known)[:8])}, ...)"
        super().__init__(f"unknown workload {name!r}{hint}")


class UnknownPrefetcherError(ReproError, KeyError):
    """A prefetcher name was not found in the factory registry."""

    def __init__(self, name: str, known: list[str] | None = None) -> None:
        self.name = name
        self.known = known or []
        hint = f" (known: {', '.join(sorted(self.known))})" if self.known else ""
        super().__init__(f"unknown prefetcher {name!r}{hint}")


class TraceError(ReproError):
    """A reference or miss trace is malformed (e.g. negative run count)."""


class StoreError(ReproError):
    """A persistent experiment store is unusable or an artifact is corrupt.

    Raised instead of the underlying JSON/npz/SQLite decode errors so
    callers see *which* store entry is broken and can delete or rebuild
    it, rather than chasing a bare ``JSONDecodeError`` with no path.
    """


class CkptError(ReproError):
    """A checkpoint blob is unusable or a snapshot cannot be applied.

    Raised for malformed ``repro.ckpt/v1`` blobs (bad magic, schema
    mismatch, truncation, digest corruption, trailing garbage) and for
    restore-time shape mismatches (e.g. applying a 256-row table
    snapshot to a 64-row mechanism). The message names the failing
    stage so a corrupt artifact can be deleted and rebuilt rather than
    chasing a bare ``struct.error``.
    """


class ObsError(ReproError):
    """The observability layer was misconfigured or fed a bad record.

    Raised for malformed SLO rule definitions, a non-positive watchdog
    interval, and corrupt benchmark-history records. Never raised from
    a metric update — the hot path stays exception-free.
    """


class SchedulerError(ReproError):
    """The distributed sweep scheduler cannot proceed.

    Raised for malformed queue operations (bad lease/limit values,
    conflicting sweep resubmissions) and by
    :meth:`~repro.sched.client.SchedulerClient.submit_sweep` when a
    sweep finishes with failed or cancelled jobs — the per-job errors
    are included so the caller sees *which* specs died and why.
    """


class SweepOwnershipError(SchedulerError):
    """A sweep id is already owned by a different tenant.

    Raised by :meth:`~repro.sched.queue.JobQueue.submit` when a scoped
    submission names a sweep whose recorded owner differs. The service
    maps this to the same 404 a missing sweep gets, so sweep ids cannot
    be probed across tenants.
    """


class ResultMergeError(ReproError, ValueError):
    """Two result sets disagree about the same spec key.

    Raised by :meth:`repro.run.results.ResultSet.merge` when both sides
    carry a row for the same ``spec_key`` with different numbers —
    merging would silently keep one of two contradictory measurements.
    """
