"""MetricsJournal: round-trips, schema guard, retention, durability.

The journal is the telemetry layer's only persistent state, so these
tests pin down its contract precisely: flattened snapshot rows
(histograms decomposed into ``_count``/``_sum``/``_p50``/``_p99``),
the same quantile estimate as :meth:`MetricFamily.summary`, the
``repro.obs/v1`` schema stamp, *deterministic* retention and
downsampling under an injected clock, and samples surviving the
close-and-reopen cycle a service restart performs.
"""

import json
import sqlite3
import threading

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import ObsError
from repro.obs import MetricsJournal, flatten_snapshot
from repro.obs.metrics import MetricsRegistry


class Clock:
    """Injectable, manually advanced time source."""

    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def registry():
    registry = MetricsRegistry(enabled=True)
    registry.counter("hits_total", "test counter", labels=("kind",)).inc(
        3, kind="result"
    )
    registry.gauge("depth", "test gauge").set(7.0)
    histogram = registry.histogram("latency_seconds", "test histogram")
    for value in (0.01, 0.02, 0.04):
        histogram.observe(value)
    return registry


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def journal(tmp_path, registry, clock):
    journal = MetricsJournal(
        tmp_path / "telemetry.sqlite",
        registry=registry,
        clock=clock,
        retention_seconds=3600.0,
        downsample_after_seconds=600.0,
        downsample_interval_seconds=60.0,
    )
    yield journal
    journal.close()


class TestFlattenSnapshot:
    def test_counters_and_gauges_keep_their_names(self, registry):
        rows = flatten_snapshot(registry.snapshot())
        by_metric = {metric: value for metric, _, value in rows}
        assert by_metric["hits_total"] == 3.0
        assert by_metric["depth"] == 7.0

    def test_histograms_decompose_into_quantile_series(self, registry):
        rows = {metric: value for metric, _, value in
                flatten_snapshot(registry.snapshot())}
        assert rows["latency_seconds_count"] == 3.0
        assert rows["latency_seconds_sum"] == pytest.approx(0.07)
        assert 0.0 < rows["latency_seconds_p50"] <= rows["latency_seconds_p99"]

    @given(
        bounds=st.lists(
            st.floats(0.001, 100.0), min_size=1, max_size=6, unique=True
        ),
        values=st.lists(st.floats(0.0, 250.0), max_size=40),
    )
    @example(bounds=[0.1, 1.0], values=[])  # an empty histogram
    @example(bounds=[0.1, 1.0], values=[5.0, 7.0])  # overflow bucket only
    @example(bounds=[0.1, 1.0], values=[0.05, 0.5, 0.5, 9.0])
    # Two estimators rounding in different orders disagreed here.
    @example(bounds=[43.0], values=[0.0, 0.0, 0.0])
    def test_quantile_rows_equal_summary(self, bounds, values):
        registry = MetricsRegistry(enabled=True)
        family = registry.histogram("h_seconds", "t", buckets=tuple(bounds))
        for value in values:
            family.observe(value)
        snapshot = registry.snapshot()
        if not values:
            # An untouched family exports no child; flatten its zero
            # child, which summary() reports as all zeros.
            snapshot["h_seconds"]["series"] = [
                {"labels": {}, "buckets": [0] * (len(bounds) + 1),
                 "count": 0, "sum": 0.0}
            ]
        rows = {metric: value for metric, _, value in flatten_snapshot(snapshot)}
        summary = family.summary()
        assert rows["h_seconds_count"] == summary["count"] == len(values)
        assert rows["h_seconds_sum"] == summary["sum"]
        assert rows["h_seconds_p50"] == summary["p50"]
        assert rows["h_seconds_p99"] == summary["p99"]

    def test_labels_serialize_canonically(self, registry):
        rows = flatten_snapshot(registry.snapshot())
        labels = [l for metric, l, _ in rows if metric == "hits_total"]
        assert labels == [json.dumps({"kind": "result"}, sort_keys=True)]


class TestRecordAndQuery:
    def test_round_trip(self, journal, clock):
        written = journal.record()
        assert written > 0
        samples = journal.query("hits_total")
        assert samples == [
            {"ts": clock.now, "labels": {"kind": "result"}, "value": 3.0}
        ]
        assert journal.latest("depth")["value"] == 7.0
        assert "latency_seconds_p99" in journal.metrics()

    def test_label_filter_supports_wildcards(self, journal, registry):
        registry.counter("http_total", "t", labels=("status",)).inc(2, status="500")
        registry.counter("http_total", "t", labels=("status",)).inc(5, status="200")
        journal.record()
        errors = journal.query("http_total", labels={"status": "5*"})
        assert [s["value"] for s in errors] == [2.0]

    def test_aggregate_increase_sums_per_series_deltas(self, journal, clock):
        journal.record(now=1000.0)
        journal.registry.get("hits_total").inc(4, kind="result")
        journal.record(now=1030.0)
        clock.now = 1030.0
        assert journal.aggregate("hits_total", 60.0, agg="increase") == 4.0
        # last/max/min/avg over the same window
        assert journal.aggregate("depth", 60.0, agg="last") == 7.0
        with pytest.raises(ObsError):
            journal.aggregate("depth", 60.0, agg="median")

    def test_no_data_aggregates_to_none(self, journal):
        assert journal.aggregate("never_recorded", 60.0) is None

    def test_series_sums_label_sets_per_timestamp(self, journal, registry):
        counter = registry.counter("multi_total", "t", labels=("kind",))
        counter.inc(1, kind="a")
        counter.inc(2, kind="b")
        journal.record(now=1000.0)
        counter.inc(10, kind="a")
        journal.record(now=1010.0)
        assert journal.series("multi_total") == [3.0, 13.0]

    def test_disabled_registry_records_nothing(self, tmp_path, clock):
        registry = MetricsRegistry(enabled=False)
        journal = MetricsJournal(
            tmp_path / "off.sqlite", registry=registry, clock=clock
        )
        try:
            assert journal.record() == 0
            assert journal.metrics() == []
        finally:
            journal.close()

    def test_concurrent_records_are_all_committed(self, tmp_path, registry):
        journal = MetricsJournal(tmp_path / "mt.sqlite", registry=registry)
        try:
            threads = [
                threading.Thread(
                    target=lambda base: [
                        journal.record(now=base + i) for i in range(5)
                    ],
                    args=(100.0 * n,),
                )
                for n in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(journal.query("depth")) == 20
        finally:
            journal.close()


class TestSchemaGuard:
    def test_foreign_schema_raises_obs_error(self, tmp_path):
        path = tmp_path / "telemetry.sqlite"
        MetricsJournal(path).close()
        db = sqlite3.connect(path)
        db.execute("UPDATE meta SET value='repro.obs/v999' WHERE key='schema'")
        db.commit()
        db.close()
        with pytest.raises(ObsError, match="repro.obs/v999"):
            MetricsJournal(path)

    def test_validation_errors(self, tmp_path):
        with pytest.raises(ObsError):
            MetricsJournal(tmp_path / "j.sqlite", retention_seconds=0)
        with pytest.raises(ObsError):
            MetricsJournal(
                tmp_path / "j.sqlite", downsample_interval_seconds=0
            )


class TestRetention:
    def test_expiry_is_a_pure_cutoff(self, journal, clock):
        journal.record(now=100.0)
        journal.record(now=200.0)
        clock.now = 200.0 + 3600.0  # exactly at retention for ts=200
        report = journal.prune()
        # ts=100 is past retention; ts=200 sits on the boundary (kept).
        assert report["expired"] == len(flatten_snapshot(
            journal.registry.snapshot()
        ))
        assert journal.query("depth") == [
            {"ts": 200.0, "labels": {}, "value": 7.0}
        ]

    def test_downsample_keeps_last_sample_per_bucket(self, tmp_path, clock):
        registry = MetricsRegistry(enabled=True)
        gauge = registry.gauge("g", "t")
        journal = MetricsJournal(
            tmp_path / "j.sqlite",
            registry=registry,
            clock=clock,
            retention_seconds=100000.0,
            downsample_after_seconds=600.0,
            downsample_interval_seconds=60.0,
        )
        try:
            # Two samples land in bucket [60, 120), three in [120, 180).
            for ts, value in ((100.0, 1.0), (110.0, 2.0), (150.0, 3.0),
                              (170.0, 4.0), (175.0, 5.0)):
                gauge.set(value)
                journal.record(now=ts)
            clock.now = 175.0 + 600.0 + 60.0  # all five are thin-eligible
            report = journal.prune()
            assert report == {"expired": 0, "downsampled": 3, "remaining": 2}
            survivors = journal.query("g")
            assert [(s["ts"], s["value"]) for s in survivors] == [
                (110.0, 2.0),  # last of bucket [60, 120)
                (175.0, 5.0),  # last of bucket [120, 180)
            ]
        finally:
            journal.close()

    def test_prune_is_deterministic_under_reruns(self, journal, clock):
        journal.record(now=100.0)
        clock.now = 100.0 + 3600.0 + 1.0
        first = journal.prune()
        again = journal.prune()
        assert first["expired"] > 0
        assert again == {"expired": 0, "downsampled": 0, "remaining": 0}


class TestDurability:
    def test_samples_survive_close_and_reopen(self, tmp_path, registry, clock):
        path = tmp_path / "telemetry.sqlite"
        journal = MetricsJournal(path, registry=registry, clock=clock)
        journal.record(now=1000.0)
        journal.close()
        # The restart: a fresh journal object over the same file.
        reborn = MetricsJournal(path, registry=registry, clock=clock)
        try:
            assert reborn.latest("hits_total")["value"] == 3.0
            reborn.record(now=1010.0)
            assert len(reborn.query("hits_total")) == 2
        finally:
            reborn.close()

    def test_kill_mid_journal_leaves_committed_samples_readable(
        self, tmp_path, registry, clock
    ):
        """A journal abandoned without close() (a killed process) must
        leave every committed sample queryable on the next open — WAL
        plus per-record transactions make partially written batches
        impossible."""
        path = tmp_path / "telemetry.sqlite"
        journal = MetricsJournal(path, registry=registry, clock=clock)
        journal.record(now=1000.0)
        journal.record(now=1001.0)
        # Simulate SIGKILL: drop the object without close(); the WAL
        # file still holds the committed transactions.
        del journal
        reborn = MetricsJournal(path, registry=registry, clock=clock)
        try:
            assert len(reborn.query("depth")) == 2
        finally:
            reborn.close()
