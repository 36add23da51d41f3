"""Persistent telemetry history: registry snapshots as time series.

:class:`MetricsJournal` turns the in-memory
:class:`~repro.obs.metrics.MetricsRegistry` — which forgets everything
on process exit — into a durable SQLite time-series journal. Each
:meth:`record` call flattens one ``registry.snapshot()`` into rows of
``(ts, metric, labels, value)``: counters and gauges keep their name,
histograms are decomposed into ``<name>_count`` / ``<name>_sum`` plus
interpolated ``<name>_p50`` / ``<name>_p99`` quantile series, so SLO
rules can threshold directly on a latency percentile.

The journal lives *beside* the experiment store (the same placement as
the scheduler's ``jobs.sqlite``): a standalone WAL SQLite file the
store's garbage collector never touches, schema-stamped with
:data:`OBS_SCHEMA` so a version mismatch raises
:class:`~repro.errors.ObsError` instead of silently misreading rows.
Samples therefore survive service restarts — a reborn service over the
same store root queries the history its predecessor wrote.

Unbounded history is handled by :meth:`prune`: samples older than
``retention_seconds`` are expired outright, and samples older than
``downsample_after_seconds`` are thinned to the *last* sample per
``downsample_interval_seconds`` bucket per series — a deterministic
rule (no randomness, injectable clock) so tests can assert the exact
surviving rows.

Everything here is strictly off the determinism path, and a disabled
registry (``REPRO_OBS_DISABLED=1``) makes :meth:`record` a no-op.
"""

from __future__ import annotations

import fnmatch
import json
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Callable

from repro.errors import ObsError
from repro.sqlite_index import open_index, transaction

#: Version stamp in the journal's ``meta`` table.
OBS_SCHEMA = "repro.obs/v1"

#: Filename of the journal beside a store's ``index.sqlite``.
JOURNAL_FILENAME = "telemetry.sqlite"

_TABLES = (
    "CREATE TABLE IF NOT EXISTS samples ("
    " ts REAL NOT NULL,"
    " metric TEXT NOT NULL,"
    " labels TEXT NOT NULL,"
    " value REAL NOT NULL)",
    "CREATE INDEX IF NOT EXISTS samples_by_metric ON samples (metric, ts)",
)

#: Quantile series derived from each histogram child at sample time.
_QUANTILES = ((0.50, "p50"), (0.99, "p99"))


def _quantile_from_buckets(
    bounds: list[float], counts: list[int], q: float
) -> float:
    """Linear-interpolated quantile over cumulative bucket counts.

    The same estimator as :meth:`MetricFamily.summary`, applied to the
    raw snapshot lists so the journal does not need a live family.
    """
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    seen = 0.0
    for index, count in enumerate(counts):
        if count == 0:
            continue
        if seen + count >= rank:
            lower = 0.0 if index == 0 else bounds[index - 1]
            if index >= len(bounds):
                return lower  # +Inf overflow bucket: report its lower edge
            upper = bounds[index]
            return lower + (upper - lower) * (rank - seen) / count
        seen += count
    return bounds[-1] if bounds else 0.0


def flatten_snapshot(snapshot: dict[str, Any]) -> list[tuple[str, str, float]]:
    """One registry snapshot as ``(metric, labels_json, value)`` rows.

    Labels are serialized as canonical (sorted-key) JSON so equal label
    sets always produce the same string — the journal's series key.
    """
    rows: list[tuple[str, str, float]] = []
    for family in snapshot.values():
        name = family["name"]
        if family["type"] == "histogram":
            bounds = family["bucket_bounds"]
            for child in family["series"]:
                labels = json.dumps(child["labels"], sort_keys=True)
                rows.append((f"{name}_count", labels, float(child["count"])))
                rows.append((f"{name}_sum", labels, float(child["sum"])))
                for q, suffix in _QUANTILES:
                    rows.append(
                        (
                            f"{name}_{suffix}",
                            labels,
                            _quantile_from_buckets(bounds, child["buckets"], q),
                        )
                    )
            continue
        for child in family["series"]:
            labels = json.dumps(child["labels"], sort_keys=True)
            rows.append((name, labels, float(child["value"])))
    return rows


def _labels_match(labels: dict[str, str], want: dict[str, str] | None) -> bool:
    """Subset match with ``fnmatch`` wildcards in the wanted values.

    ``{"status": "5*"}`` matches any series whose ``status`` label
    starts with 5 — how the error-ratio SLO selects server errors
    without enumerating status codes.
    """
    if not want:
        return True
    for key, pattern in want.items():
        value = labels.get(key)
        if value is None or not fnmatch.fnmatchcase(str(value), str(pattern)):
            return False
    return True


class MetricsJournal:
    """A durable time-series journal of metrics-registry snapshots.

    Args:
        path: SQLite file backing the journal (parents created). Place
            it beside the experiment store's ``index.sqlite`` — see
            :attr:`ExperimentStore.journal_path` — so it shares the
            store's lifetime but is invisible to its GC.
        registry: the registry :meth:`record` samples by default; the
            process-wide one if omitted.
        clock: time source (seconds); injectable so retention and
            downsampling tests are deterministic.
        retention_seconds: samples older than this are expired by
            :meth:`prune`.
        downsample_after_seconds: samples older than this (but inside
            retention) are thinned by :meth:`prune`.
        downsample_interval_seconds: bucket width for thinning; the
            last sample of each series in each bucket survives.

    Instances are safe to share between threads (one lock serializes
    the connection) and the on-disk format is safe to share between
    processes (WAL SQLite, short transactions).
    """

    def __init__(
        self,
        path: str | Path,
        registry: "Any | None" = None,
        clock: Callable[[], float] = time.time,
        retention_seconds: float = 24 * 3600.0,
        downsample_after_seconds: float = 600.0,
        downsample_interval_seconds: float = 60.0,
    ) -> None:
        if retention_seconds <= 0:
            raise ObsError(f"retention_seconds must be > 0, got {retention_seconds}")
        if downsample_interval_seconds <= 0:
            raise ObsError(
                "downsample_interval_seconds must be > 0, "
                f"got {downsample_interval_seconds}"
            )
        if registry is None:
            from repro.obs import REGISTRY

            registry = REGISTRY
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.registry = registry
        self.clock = clock
        self.retention_seconds = float(retention_seconds)
        self.downsample_after_seconds = float(downsample_after_seconds)
        self.downsample_interval_seconds = float(downsample_interval_seconds)
        self._lock = threading.RLock()
        self._db = open_index(
            self.path,
            self._lock,
            OBS_SCHEMA,
            _TABLES,
            ObsError,
            f"telemetry journal at {self.path}",
        )
        self._sampler: threading.Thread | None = None
        self._stop = threading.Event()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop the background sampler (if any) and close the file."""
        self.stop()
        with self._lock:
            self._db.close()

    def __enter__(self) -> "MetricsJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"MetricsJournal({str(self.path)!r})"

    # -- writes ------------------------------------------------------------

    def record(
        self, snapshot: dict[str, Any] | None = None, now: float | None = None
    ) -> int:
        """Append one snapshot (the registry's, by default); rows written.

        A disabled registry records nothing — the journal honors the
        same ``REPRO_OBS_DISABLED`` kill-switch as the metrics it
        persists.
        """
        if snapshot is None:
            if not getattr(self.registry, "enabled", True):
                return 0
            snapshot = self.registry.snapshot()
        rows = flatten_snapshot(snapshot)
        if not rows:
            return 0
        ts = self.clock() if now is None else now
        with transaction(self._lock, self._db):
            self._db.executemany(
                "INSERT INTO samples (ts, metric, labels, value) "
                "VALUES (?, ?, ?, ?)",
                [(ts, metric, labels, value) for metric, labels, value in rows],
            )
        return len(rows)

    def prune(self, now: float | None = None) -> dict[str, int]:
        """Expire and downsample old samples; returns a report.

        Deterministic by construction: expiry is a pure cutoff, and
        downsampling keeps the *latest* row of each ``(metric, labels)``
        series in each ``downsample_interval_seconds`` bucket (ties
        broken by insertion order via rowid).
        """
        ts = self.clock() if now is None else now
        expire_before = ts - self.retention_seconds
        thin_before = ts - self.downsample_after_seconds
        with transaction(self._lock, self._db):
            expired = self._db.execute(
                "DELETE FROM samples WHERE ts < ?", (expire_before,)
            ).rowcount
            thinned = self._db.execute(
                "DELETE FROM samples WHERE ts < ? AND rowid NOT IN ("
                " SELECT MAX(rowid) FROM samples WHERE ts < ?"
                " GROUP BY metric, labels,"
                " CAST(ts / ? AS INTEGER))",
                (thin_before, thin_before, self.downsample_interval_seconds),
            ).rowcount
            (remaining,) = self._db.execute(
                "SELECT COUNT(*) FROM samples"
            ).fetchone()
        return {"expired": expired, "downsampled": thinned, "remaining": remaining}

    # -- queries -----------------------------------------------------------

    def query(
        self,
        metric: str,
        labels: dict[str, str] | None = None,
        since: float | None = None,
        until: float | None = None,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """Samples of one metric, oldest first.

        Args:
            metric: flattened series name (histograms expose
                ``_count``/``_sum``/``_p50``/``_p99`` suffixes).
            labels: label *subset* to match; values may use ``fnmatch``
                wildcards (``{"status": "5*"}``).
            since / until: inclusive time bounds.
            limit: keep only the newest N matching samples.

        Returns dictionaries with ``ts``, ``labels`` (decoded dict) and
        ``value``.
        """
        sql = "SELECT ts, labels, value FROM samples WHERE metric=?"
        params: list[Any] = [metric]
        if since is not None:
            sql += " AND ts >= ?"
            params.append(since)
        if until is not None:
            sql += " AND ts <= ?"
            params.append(until)
        sql += " ORDER BY ts ASC, rowid ASC"
        with self._lock:
            rows = self._db.execute(sql, params).fetchall()
        out = []
        for ts, labels_json, value in rows:
            decoded = json.loads(labels_json)
            if not _labels_match(decoded, labels):
                continue
            out.append({"ts": ts, "labels": decoded, "value": value})
        if limit is not None and len(out) > limit:
            out = out[-limit:]
        return out

    def latest(
        self, metric: str, labels: dict[str, str] | None = None
    ) -> dict[str, Any] | None:
        """The newest matching sample, or ``None``."""
        rows = self.query(metric, labels=labels, limit=1)
        return rows[-1] if rows else None

    def metrics(self) -> list[str]:
        """Distinct flattened series names in the journal, sorted."""
        with self._lock:
            rows = self._db.execute(
                "SELECT DISTINCT metric FROM samples ORDER BY metric"
            ).fetchall()
        return [name for (name,) in rows]

    def aggregate(
        self,
        metric: str,
        window_seconds: float,
        agg: str = "last",
        labels: dict[str, str] | None = None,
        now: float | None = None,
    ) -> float | None:
        """One number over the trailing window, or ``None`` if no data.

        Aggregations:
            - ``last`` / ``max`` / ``min`` / ``avg``: over every
              matching sample's value in the window.
            - ``increase``: per-series newest-minus-oldest delta,
              summed across matching series — the windowed growth of a
              counter (robust to multiple label sets, e.g. statuses).
        """
        ts = self.clock() if now is None else now
        rows = self.query(metric, labels=labels, since=ts - window_seconds, until=ts)
        if not rows:
            return None
        if agg == "increase":
            by_series: dict[str, list[float]] = {}
            for row in rows:
                key = json.dumps(row["labels"], sort_keys=True)
                by_series.setdefault(key, []).append(row["value"])
            return sum(values[-1] - values[0] for values in by_series.values())
        values = [row["value"] for row in rows]
        if agg == "last":
            return values[-1]
        if agg == "max":
            return max(values)
        if agg == "min":
            return min(values)
        if agg == "avg":
            return sum(values) / len(values)
        raise ObsError(
            f"unknown aggregation {agg!r}; expected last/max/min/avg/increase"
        )

    def series(
        self,
        metric: str,
        labels: dict[str, str] | None = None,
        since: float | None = None,
        points: int = 30,
    ) -> list[float]:
        """The newest ``points`` values of one series (for sparklines).

        Samples sharing a timestamp (multiple label sets) are summed,
        so a labeled counter renders as one trend line.
        """
        rows = self.query(metric, labels=labels, since=since)
        by_ts: dict[float, float] = {}
        for row in rows:
            by_ts[row["ts"]] = by_ts.get(row["ts"], 0.0) + row["value"]
        ordered = [by_ts[ts] for ts in sorted(by_ts)]
        return ordered[-points:]

    # -- background sampling ----------------------------------------------

    def start(self, interval_seconds: float = 5.0, prune_every: int = 12) -> None:
        """Sample the registry on a background cadence until :meth:`stop`.

        Every ``prune_every``-th sample also runs :meth:`prune`, so a
        long-lived journal stays inside its retention budget without
        anyone calling prune explicitly.
        """
        if interval_seconds <= 0:
            raise ObsError(f"interval_seconds must be > 0, got {interval_seconds}")
        if self._sampler is not None and self._sampler.is_alive():
            return
        self._stop.clear()

        def loop() -> None:
            ticks = 0
            while not self._stop.wait(interval_seconds):
                try:
                    self.record()
                    ticks += 1
                    if prune_every > 0 and ticks % prune_every == 0:
                        self.prune()
                except sqlite3.ProgrammingError:
                    return  # journal closed under the sampler

        self._sampler = threading.Thread(
            target=loop, name="repro-obs-journal", daemon=True
        )
        self._sampler.start()

    def stop(self) -> None:
        """Stop the background sampler, if one is running."""
        self._stop.set()
        sampler, self._sampler = self._sampler, None
        if sampler is not None and sampler.is_alive():
            sampler.join(timeout=10)
