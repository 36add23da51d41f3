"""SLO rules, alert state machine, component health, and /healthz.

Covers the rule engine's ok → firing → resolved → firing transitions
under an injected clock, the in-memory sample window (histogram
series, label wildcards, per-label-set ``increase``, trimming, a
restarted process seeing only its own samples), the
``repro_alerts_firing`` gauge mirror, the no-data-is-healthy
convention, ratio rules with a denominator floor, the pure
:func:`component_health` fold, the watchdog tick cycle, and — end to
end — a real :class:`ExperimentService` whose ``/healthz`` flips to
503 when a worker's lease lapses without a heartbeat and recovers once
the job completes.
"""

import math
import sqlite3
import sys
import threading
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import obs
from repro.errors import ObsError
from repro.obs import (
    REGISTRY,
    HealthWatchdog,
    Rule,
    RuleEngine,
    component_health,
    default_rules,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.rules import LEASE_OVERDUE_SLO_SECONDS, QUEUE_AGE_SLO_SECONDS
from repro.service import ExperimentService
from repro.store import ExperimentStore


class Clock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def registry():
    return MetricsRegistry(enabled=True)


@pytest.fixture
def engine(registry, clock):
    return RuleEngine([load_rule()], registry=registry, clock=clock)


def load_rule(threshold: float = 5.0) -> Rule:
    return Rule(
        name="load_high",
        metric="load",
        op=">",
        threshold=threshold,
        window_seconds=60.0,
        aggregate="last",
        component="service",
        description="load above threshold",
    )


def reads(registry, metric, aggregate="last", **options):
    """What one fresh engine evaluation reads for ``metric``."""
    rule = Rule(
        name="probe", metric=metric, op=">", threshold=0.0,
        aggregate=aggregate, **options,
    )
    (alert,) = RuleEngine([rule], registry=registry).evaluate(now=100.0)
    return alert["value"]


def error_ratio_rule() -> Rule:
    (rule,) = [r for r in default_rules() if r.name == "service_error_ratio"]
    return rule


class TestRule:
    def test_unknown_op_rejected(self):
        with pytest.raises(ObsError, match="unknown op"):
            Rule(name="r", metric="m", op="~", threshold=1.0)

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ObsError, match="window_seconds"):
            Rule(name="r", metric="m", op=">", threshold=1.0, window_seconds=0)

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(ObsError, match="unknown aggregate"):
            Rule(name="r", metric="m", op=">", threshold=1.0, aggregate="median")

    def test_evaluate_returns_none_without_data(self):
        assert load_rule().evaluate([], now=100.0) is None

    def test_ratio_below_min_denominator_is_no_data(self, registry, clock):
        counter = registry.counter("req_total", "t", labels=("status",))
        rule = Rule(
            name="error_ratio",
            metric="req_total",
            op=">",
            threshold=0.10,
            window_seconds=120.0,
            aggregate="increase",
            labels={"status": "5*"},
            denominator_metric="req_total",
            min_denominator=10.0,
        )
        engine = RuleEngine([rule], registry=registry, clock=clock)
        counter.inc(0, status="200")
        counter.inc(0, status="500")
        engine.evaluate(now=100.0)
        counter.inc(3, status="200")
        counter.inc(3, status="500")
        # Ratio would be 0.5, but only 6 requests total: noise, not data.
        (alert,) = engine.evaluate(now=110.0)
        assert alert["value"] is None
        counter.inc(17, status="200")
        counter.inc(5, status="500")
        # Now 28 requests, 8 of them errors.
        (alert,) = engine.evaluate(now=120.0)
        assert alert["value"] == pytest.approx(8 / 28)


class TestRuleEngine:
    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(ObsError, match="duplicate"):
            RuleEngine([load_rule(), load_rule()])

    def test_defaults_to_the_process_registry_and_wall_clock(self):
        engine = RuleEngine([load_rule()])
        assert engine.registry is REGISTRY
        assert engine.clock is time.time

    def test_firing_resolved_firing_lifecycle(self, engine, registry, clock):
        gauge = registry.gauge("load", "t")
        assert engine.clock is clock

        gauge.set(1.0)
        (alert,) = engine.evaluate(now=100.0)
        assert alert["state"] == "ok"
        assert alert["transitions"] == 0
        assert engine.firing() == []

        gauge.set(9.0)
        (alert,) = engine.evaluate(now=110.0)
        assert alert["state"] == "firing"
        assert alert["fired_at"] == 110.0
        assert alert["since"] == 110.0
        assert alert["value"] == 9.0
        assert engine.firing() == ["load_high"]
        assert engine.components_degraded() == {"service": ["load_high"]}

        # Still breached: state and timestamps hold, no new transition.
        (alert,) = engine.evaluate(now=115.0)
        assert alert["state"] == "firing"
        assert alert["since"] == 110.0
        assert alert["transitions"] == 1

        gauge.set(2.0)
        (alert,) = engine.evaluate(now=120.0)
        assert alert["state"] == "resolved"
        assert alert["resolved_at"] == 120.0
        assert alert["fired_at"] == 110.0  # the incident stays visible
        assert alert["transitions"] == 2
        assert engine.firing() == []

        gauge.set(9.0)
        (alert,) = engine.evaluate(now=130.0)
        assert alert["state"] == "firing"
        assert alert["fired_at"] == 130.0
        assert alert["transitions"] == 3

    def test_no_data_never_fires(self, engine):
        (alert,) = engine.evaluate(now=100.0)
        assert alert["state"] == "ok"
        assert alert["value"] is None

    def test_firing_gauge_mirrors_alert_state(self, engine, registry):
        gauge = registry.gauge("load", "t")
        mirror = REGISTRY.get("repro_alerts_firing")

        gauge.set(9.0)
        engine.evaluate(now=100.0)
        assert mirror.value(alert="load_high") == 1.0

        gauge.set(1.0)
        engine.evaluate(now=110.0)
        assert mirror.value(alert="load_high") == 0.0

    def test_alerts_reports_without_reevaluating(self, engine, registry):
        gauge = registry.gauge("load", "t")
        gauge.set(9.0)
        engine.evaluate(now=100.0)
        gauge.set(1.0)
        # alerts() is a read: the breach is still on record.
        assert engine.alerts()[0]["state"] == "firing"
        assert engine.alerts()[0]["value"] == 9.0

    def test_default_rules_cover_the_six_slos(self):
        rules = default_rules()
        assert sorted(rule.name for rule in rules) == [
            "admission_shed_rate",
            "queue_oldest_claimable_age",
            "service_error_ratio",
            "service_p99_latency",
            "stream_sessions_idle_pileup",
            "worker_heartbeat_stale",
        ]
        assert {rule.component for rule in rules} == {
            "service", "queue", "workers", "sessions", "admission",
        }


    def test_window_is_trimmed_to_the_longest_rule(self, registry):
        gauge = registry.gauge("load", "t")
        engine = RuleEngine(
            [load_rule(), Rule(name="short", metric="load", op=">",
                               threshold=5.0, window_seconds=10.0)],
            registry=registry,
        )
        for second in range(200):
            gauge.set(float(second))
            engine.evaluate(now=float(second))
        # Samples older than the 60 s window are gone, not just skipped.
        assert [ts for ts, _ in engine._window] == [
            float(second) for second in range(139, 200)
        ]

    def test_window_aggregates_only_its_trailing_samples(self, registry):
        gauge = registry.gauge("load", "t")
        rule = Rule(name="peak", metric="load", op=">", threshold=5.0,
                    window_seconds=60.0, aggregate="max")
        engine = RuleEngine([rule], registry=registry)
        gauge.set(9.0)
        engine.evaluate(now=0.0)
        gauge.set(1.0)
        (alert,) = engine.evaluate(now=30.0)
        assert (alert["state"], alert["value"]) == ("firing", 9.0)
        (alert,) = engine.evaluate(now=61.0)
        assert (alert["state"], alert["value"]) == ("resolved", 1.0)

    def test_concurrent_evaluations_all_land(self, registry):
        """The watchdog and ``/healthz`` handlers evaluate one engine at
        once: however they interleave, every sample lands and one breach
        is one transition."""
        registry.gauge("load", "t").set(9.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                engine = RuleEngine([load_rule()], registry=registry)
                threads = [
                    threading.Thread(
                        target=lambda base: [
                            engine.evaluate(now=base + i) for i in range(5)
                        ],
                        args=(100.0 + 5 * n,),
                    )
                    for n in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                (alert,) = engine.alerts()
                assert alert["state"] == "firing"
                assert alert["transitions"] == 1
                assert len(engine._window) == 40
        finally:
            sys.setswitchinterval(interval)

    def test_restarted_process_window_holds_only_its_own_samples(self):
        """Two private registries stand for a process and its restart.

        The dead process served 1000 clean requests; the new one
        serves 50, half of them 5xx. Measured against the dead
        process's totals, request growth would be negative and the
        ratio would read no data; the new engine's window holds only
        its own process's samples, so the ratio reads 0.5 and fires."""

        def serve(registry, ok, errors):
            requests = registry.counter(
                "repro_http_requests_total", "t",
                labels=("method", "route", "status"),
            )
            requests.inc(ok, method="GET", route="/runs", status="200")
            requests.inc(errors, method="GET", route="/runs", status="500")

        dead = MetricsRegistry(enabled=True)
        first = RuleEngine([error_ratio_rule()], registry=dead)
        serve(dead, 0, 0)
        first.evaluate(now=100.0)
        serve(dead, 1000, 0)
        (alert,) = first.evaluate(now=110.0)
        assert alert["state"] == "ok" and alert["value"] == 0.0

        reborn = MetricsRegistry(enabled=True)
        second = RuleEngine([error_ratio_rule()], registry=reborn)
        serve(reborn, 0, 0)
        second.evaluate(now=120.0)
        serve(reborn, 25, 25)
        (alert,) = second.evaluate(now=130.0)
        assert [ts for ts, _ in second._window] == [120.0, 130.0]
        assert alert["value"] == pytest.approx(0.5)
        assert alert["state"] == "firing"


class TestRuleWindow:
    """How the engine reads registry families into rule series."""

    @pytest.fixture
    def registry(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("hits_total", "test counter", labels=("kind",)).inc(
            3, kind="result"
        )
        registry.gauge("depth", "test gauge").set(7.0)
        histogram = registry.histogram("latency_seconds", "test histogram")
        for value in (0.01, 0.02, 0.04):
            histogram.observe(value)
        return registry

    def test_counters_and_gauges_keep_their_names(self, registry):
        assert reads(registry, "hits_total") == 3.0
        assert reads(registry, "depth") == 7.0

    def test_histograms_decompose_into_quantile_series(self, registry):
        assert reads(registry, "latency_seconds_count") == 3.0
        assert reads(registry, "latency_seconds_sum") == pytest.approx(0.07)
        p50 = reads(registry, "latency_seconds_p50")
        assert 0.0 < p50 <= reads(registry, "latency_seconds_p99")
        # Only the four derived series exist: no buckets, no p90.
        assert reads(registry, "latency_seconds_p90") is None
        assert reads(registry, "latency_seconds_bucket") is None
        assert reads(registry, "latency_seconds") is None

    @given(
        bounds=st.lists(
            st.floats(0.001, 100.0), min_size=1, max_size=6, unique=True
        ),
        values=st.lists(st.floats(0.0, 250.0), min_size=1, max_size=40),
    )
    @example(bounds=[0.1, 1.0], values=[5.0, 7.0])  # overflow bucket only
    @example(bounds=[0.1, 1.0], values=[0.05, 0.5, 0.5, 9.0])
    # Two estimators rounding in different orders disagreed here.
    @example(bounds=[43.0], values=[0.0, 0.0, 0.0])
    def test_quantile_series_equal_summary(self, bounds, values):
        registry = MetricsRegistry(enabled=True)
        family = registry.histogram("h_seconds", "t", buckets=tuple(bounds))
        for value in values:
            family.observe(value)
        summary = family.summary()
        assert reads(registry, "h_seconds_count") == summary["count"] == len(values)
        assert reads(registry, "h_seconds_sum") == summary["sum"]
        assert reads(registry, "h_seconds_p50") == summary["p50"]
        assert reads(registry, "h_seconds_p99") == summary["p99"]

    def test_an_unobserved_histogram_reads_no_data(self):
        registry = MetricsRegistry(enabled=True)
        registry.histogram("h_seconds", "t")
        assert reads(registry, "h_seconds_p99") is None

    def test_unregistered_series_reads_no_data(self, registry):
        assert reads(registry, "never_registered") is None

    def test_label_filter_supports_wildcards(self, registry):
        requests = registry.counter("http_total", "t", labels=("status",))
        requests.inc(2, status="500")
        requests.inc(5, status="200")
        assert reads(registry, "http_total", labels={"status": "5*"}) == 2.0
        assert reads(registry, "http_total", aggregate="max") == 5.0

    def test_increase_sums_per_label_set_deltas(self, registry):
        counter = registry.get("hits_total")
        rule = Rule(name="growth", metric="hits_total", op=">",
                    threshold=100.0, aggregate="increase")
        engine = RuleEngine([rule], registry=registry)
        engine.evaluate(now=1000.0)
        counter.inc(4, kind="result")
        counter.inc(6, kind="stream")  # a label set born mid-window
        counter.inc(1, kind="stream")
        (alert,) = engine.evaluate(now=1030.0)
        assert alert["value"] == 4.0

    def test_disabled_registry_records_nothing(self, registry):
        engine = RuleEngine([load_rule()], registry=registry)
        registry.gauge("load", "t").set(9.0)
        registry.enabled = False
        (alert,) = engine.evaluate(now=100.0)
        assert alert["value"] is None
        assert alert["state"] == "ok"
        assert list(engine._window) == []


class TestComponentHealth:
    def _slo(self, **overrides):
        slo = {
            "oldest_queued_age_seconds": None,
            "queued": 0,
            "running": 0,
            "lease_overdue_jobs": 0,
            "lease_overdue_seconds": 0.0,
        }
        slo.update(overrides)
        return slo

    def test_all_ok(self):
        report = component_health(True, self._slo(), {"active": 0}, None)
        assert report["status"] == "ok"
        assert report["alerts_firing"] == 0
        assert set(report["components"]) == {
            "store", "queue", "workers", "sessions",
        }

    def test_unwritable_store_degrades(self):
        report = component_health(False, self._slo(), {}, None)
        assert report["status"] == "degraded"
        assert report["components"]["store"]["status"] == "degraded"

    def test_stuck_queue_degrades(self):
        report = component_health(
            True, self._slo(oldest_queued_age_seconds=500.0, queued=3), {}, None
        )
        assert report["components"]["queue"]["status"] == "degraded"
        assert report["status"] == "degraded"

    def test_overdue_lease_degrades_workers(self):
        report = component_health(
            True,
            self._slo(lease_overdue_jobs=1, lease_overdue_seconds=30.0),
            {},
            None,
        )
        assert report["components"]["workers"]["status"] == "degraded"

    @pytest.mark.parametrize(
        "component, rule_name, threshold, slo_at",
        [
            (
                "queue",
                "queue_oldest_claimable_age",
                QUEUE_AGE_SLO_SECONDS,
                lambda value: {"oldest_queued_age_seconds": value, "queued": 1},
            ),
            (
                "workers",
                "worker_heartbeat_stale",
                LEASE_OVERDUE_SLO_SECONDS,
                lambda value: {
                    "lease_overdue_jobs": 1, "lease_overdue_seconds": value,
                },
            ),
        ],
        ids=["queue", "workers"],
    )
    def test_probe_and_rule_flip_at_the_same_value(
        self, component, rule_name, threshold, slo_at
    ):
        (rule,) = [r for r in default_rules() if r.name == rule_name]
        assert rule.threshold == threshold
        for value in (
            math.nextafter(threshold, 0.0),
            threshold,
            math.nextafter(threshold, math.inf),
            threshold * 2,
        ):
            report = component_health(True, self._slo(**slo_at(value)), {}, None)
            probe_degraded = report["components"][component]["status"] == "degraded"
            assert probe_degraded == rule.breached(value), (component, value)
            assert probe_degraded == (value > threshold)

    def test_firing_alert_degrades_its_component(self, engine, registry):
        gauge = registry.gauge("load", "t")
        gauge.set(9.0)
        engine.evaluate(now=100.0)
        report = component_health(True, self._slo(), {}, engine)
        assert report["status"] == "degraded"
        assert report["components"]["service"]["alerts"] == ["load_high"]
        assert report["firing"] == ["load_high"]
        assert report["alerts_firing"] == 1


class TestHealthWatchdog:
    def test_tick_records_and_evaluates(self, engine, registry):
        gauge = registry.gauge("load", "t")
        collected = []
        watchdog = HealthWatchdog(
            engine,
            interval_seconds=5.0,
            collect=lambda: collected.append(True),
        )
        gauge.set(9.0)
        watchdog.tick(now=100.0)
        assert collected == [True]
        assert engine.alerts()[0]["value"] == 9.0
        assert engine.firing() == ["load_high"]
        watchdog.tick(now=105.0)
        assert watchdog.ticks == 2

    def test_nonpositive_interval_rejected(self, engine):
        with pytest.raises(ObsError):
            HealthWatchdog(engine, interval_seconds=0)

    def test_stop_halts_sampling(self, registry):
        registry.gauge("load", "t").set(1.0)
        watchdog = HealthWatchdog(
            RuleEngine([load_rule()], registry=registry), interval_seconds=0.01
        )
        try:
            watchdog.start()
            deadline = time.monotonic() + 5.0
            while watchdog.ticks < 2:
                assert time.monotonic() < deadline, "watchdog never ticked"
                time.sleep(0.01)
            watchdog.stop()
            count = watchdog.ticks
            time.sleep(0.05)
            assert watchdog.ticks == count
        finally:
            watchdog.stop()

    def test_a_closed_collect_database_ends_a_running_watchdog(self, registry):
        """The collect hook reads the service's SQLite queue; once the
        caller closes it, the thread exits instead of dying with a
        traceback."""
        db = sqlite3.connect(":memory:", check_same_thread=False)
        watchdog = HealthWatchdog(
            RuleEngine([load_rule()], registry=registry),
            interval_seconds=0.01,
            collect=lambda: db.execute("SELECT 1"),
        )
        watchdog.start()
        time.sleep(0.03)
        db.close()  # the next tick hits a closed database and exits
        deadline = time.monotonic() + 5.0
        while watchdog.running:
            assert time.monotonic() < deadline, "watchdog outlived its database"
            time.sleep(0.01)
        watchdog.stop()

    def test_start_and_stop(self, registry):
        registry.gauge("load", "t").set(1.0)
        engine = RuleEngine([load_rule()], registry=registry)
        watchdog = HealthWatchdog(engine, interval_seconds=0.01)
        try:
            watchdog.start()
            assert watchdog.running
            deadline = time.monotonic() + 5.0
            while engine.alerts()[0]["value"] is None:
                assert time.monotonic() < deadline, "watchdog never ticked"
                time.sleep(0.01)
            watchdog.stop()
            assert not watchdog.running
        finally:
            watchdog.stop()


class TestServiceHealth:
    """End-to-end /healthz over a real service, no sockets."""

    def test_healthz_ok_on_a_fresh_service(self, tmp_path):
        service = ExperimentService(ExperimentStore(tmp_path / "store"))
        try:
            status, payload = service.handle("GET", "/healthz")
            assert status == 200
            assert payload["status"] == "ok"
            assert payload["components"]["store"]["writable"] is True
            assert payload["firing"] == []
            # The synchronous tick sampled and evaluated the rules.
            assert service.watchdog.ticks == 1
        finally:
            service.close()

    def test_fresh_service_writes_no_telemetry_file(self, tmp_path):
        root = tmp_path / "store"
        service = ExperimentService(ExperimentStore(root))
        try:
            status, payload = service.handle("GET", "/alerts")
            assert status == 200
            assert len(payload["alerts"]) == 6
            assert payload["firing"] == []
            assert not (root / "telemetry.sqlite").exists()
        finally:
            service.close()

    def test_stale_worker_fires_and_recovers(self, tmp_path):
        """The acceptance scenario: a claimed job whose lease lapses
        without a heartbeat flips /healthz to 503 with
        ``worker_heartbeat_stale`` firing; completing the job resolves
        the alert and /healthz returns to 200."""
        service = ExperimentService(ExperimentStore(tmp_path / "store"))
        try:
            # Tighten the heartbeat SLO so the test doesn't wait 5 s.
            service.engine = RuleEngine(
                default_rules(heartbeat_overdue_seconds=0.05)
            )
            service.watchdog.engine = service.engine

            service.queue.submit("sweep", [("k1", {"workload": "galgel"})])
            (job,) = service.queue.claim("w1", lease_seconds=0.05)
            time.sleep(0.2)  # lease lapses, no heartbeat arrives

            status, payload = service.handle("GET", "/healthz")
            assert status == 503
            assert payload["status"] == "degraded"
            assert "worker_heartbeat_stale" in payload["firing"]
            assert payload["components"]["workers"]["status"] == "degraded"

            status, payload = service.handle("GET", "/alerts")
            assert "worker_heartbeat_stale" in payload["firing"]

            service.queue.complete(job["id"], worker_id="w1")
            status, payload = service.handle("GET", "/healthz")
            assert status == 200
            assert payload["status"] == "ok"
            assert payload["firing"] == []
            (alert,) = [
                a for a in service.engine.alerts()
                if a["name"] == "worker_heartbeat_stale"
            ]
            assert alert["state"] == "resolved"
            assert alert["transitions"] == 2
        finally:
            service.close()

    def test_disabled_obs_still_answers_healthz(self, tmp_path):
        obs.set_enabled(False)
        try:
            service = ExperimentService(ExperimentStore(tmp_path / "store"))
            try:
                assert service.engine is None
                assert service.watchdog is None
                status, payload = service.handle("GET", "/healthz")
                assert status == 200
                assert payload["status"] == "ok"
                status, payload = service.handle("GET", "/alerts")
                assert status == 200
                assert payload["enabled"] is False
                assert payload["alerts"] == []
            finally:
                service.close()
        finally:
            obs.set_enabled(True)
