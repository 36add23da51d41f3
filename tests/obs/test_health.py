"""SLO rules, alert state machine, component health, and /healthz.

Covers the rule engine's ok → firing → resolved → firing transitions
under an injected clock, the ``repro_alerts_firing`` gauge mirror, the
no-data-is-healthy convention, ratio rules with a denominator floor,
the pure :func:`component_health` fold, the watchdog tick cycle, and —
end to end — a real :class:`ExperimentService` whose ``/healthz``
flips to 503 when a worker's lease lapses without a heartbeat and
recovers once the job completes.
"""

import math
import time

import pytest

from repro import obs
from repro.errors import ObsError
from repro.obs import (
    REGISTRY,
    HealthWatchdog,
    MetricsJournal,
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
def journal(tmp_path, registry, clock):
    journal = MetricsJournal(
        tmp_path / "telemetry.sqlite", registry=registry, clock=clock
    )
    yield journal
    journal.close()


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


class TestRule:
    def test_unknown_op_rejected(self):
        with pytest.raises(ObsError, match="unknown op"):
            Rule(name="r", metric="m", op="~", threshold=1.0)

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ObsError, match="window_seconds"):
            Rule(name="r", metric="m", op=">", threshold=1.0, window_seconds=0)

    def test_evaluate_returns_none_without_data(self, journal):
        assert load_rule().evaluate(journal, now=100.0) is None

    def test_ratio_below_min_denominator_is_no_data(self, journal, registry):
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
        counter.inc(0, status="200")
        counter.inc(0, status="500")
        journal.record(now=100.0)
        counter.inc(3, status="200")
        counter.inc(3, status="500")
        journal.record(now=110.0)
        # Ratio would be 0.5, but only 6 requests total: noise, not data.
        assert rule.evaluate(journal, now=110.0) is None
        counter.inc(17, status="200")
        counter.inc(5, status="500")
        journal.record(now=120.0)
        # Now 28 requests, 8 of them errors.
        assert rule.evaluate(journal, now=120.0) == pytest.approx(8 / 28)


class TestRuleEngine:
    def test_duplicate_rule_names_rejected(self, journal):
        with pytest.raises(ObsError, match="duplicate"):
            RuleEngine(journal, [load_rule(), load_rule()])

    def test_firing_resolved_firing_lifecycle(self, journal, registry, clock):
        gauge = registry.gauge("load", "t")
        engine = RuleEngine(journal, [load_rule()])
        assert engine.clock is clock  # defaults to the journal's clock

        gauge.set(1.0)
        journal.record(now=100.0)
        (alert,) = engine.evaluate(now=100.0)
        assert alert["state"] == "ok"
        assert alert["transitions"] == 0
        assert engine.firing() == []

        gauge.set(9.0)
        journal.record(now=110.0)
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
        journal.record(now=120.0)
        (alert,) = engine.evaluate(now=120.0)
        assert alert["state"] == "resolved"
        assert alert["resolved_at"] == 120.0
        assert alert["fired_at"] == 110.0  # the incident stays visible
        assert alert["transitions"] == 2
        assert engine.firing() == []

        gauge.set(9.0)
        journal.record(now=130.0)
        (alert,) = engine.evaluate(now=130.0)
        assert alert["state"] == "firing"
        assert alert["fired_at"] == 130.0
        assert alert["transitions"] == 3

    def test_no_data_never_fires(self, journal, clock):
        engine = RuleEngine(journal, [load_rule()])
        (alert,) = engine.evaluate(now=100.0)
        assert alert["state"] == "ok"
        assert alert["value"] is None

    def test_firing_gauge_mirrors_alert_state(self, journal, registry):
        gauge = registry.gauge("load", "t")
        engine = RuleEngine(journal, [load_rule()])
        mirror = REGISTRY.get("repro_alerts_firing")

        gauge.set(9.0)
        journal.record(now=100.0)
        engine.evaluate(now=100.0)
        assert mirror.value(alert="load_high") == 1.0

        gauge.set(1.0)
        journal.record(now=110.0)
        engine.evaluate(now=110.0)
        assert mirror.value(alert="load_high") == 0.0

    def test_alerts_reports_without_reevaluating(self, journal, registry):
        gauge = registry.gauge("load", "t")
        engine = RuleEngine(journal, [load_rule()])
        gauge.set(9.0)
        journal.record(now=100.0)
        engine.evaluate(now=100.0)
        gauge.set(1.0)
        journal.record(now=110.0)
        # alerts() is a read: the breach is still on record.
        assert engine.alerts()[0]["state"] == "firing"

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

    def test_firing_alert_degrades_its_component(self, journal, registry):
        gauge = registry.gauge("load", "t")
        engine = RuleEngine(journal, [load_rule()])
        gauge.set(9.0)
        journal.record(now=100.0)
        engine.evaluate(now=100.0)
        report = component_health(True, self._slo(), {}, engine)
        assert report["status"] == "degraded"
        assert report["components"]["service"]["alerts"] == ["load_high"]
        assert report["firing"] == ["load_high"]
        assert report["alerts_firing"] == 1


class TestHealthWatchdog:
    def test_tick_records_and_evaluates(self, journal, registry, clock):
        gauge = registry.gauge("load", "t")
        collected = []
        engine = RuleEngine(journal, [load_rule()])
        watchdog = HealthWatchdog(
            journal,
            engine,
            interval_seconds=5.0,
            collect=lambda: collected.append(True),
            prune_every=2,
        )
        gauge.set(9.0)
        watchdog.tick(now=100.0)
        assert collected == [True]
        assert journal.latest("load")["value"] == 9.0
        assert engine.firing() == ["load_high"]
        # Second tick hits the prune cadence without disturbing state.
        watchdog.tick(now=105.0)
        assert watchdog.ticks == 2

    def test_nonpositive_interval_rejected(self, journal):
        with pytest.raises(ObsError):
            HealthWatchdog(journal, None, interval_seconds=0)

    def test_prunes_every_n_ticks(self, journal, registry, clock):
        registry.gauge("load", "t").set(1.0)
        pruned = []
        prune = journal.prune
        journal.prune = lambda now=None: pruned.append(now) or prune(now=now)
        watchdog = HealthWatchdog(journal, None, prune_every=3)
        for tick in range(7):
            watchdog.tick(now=100.0 + tick)
        assert pruned == [102.0, 105.0]
        assert len(journal.query("load")) == 7

    def test_prune_expires_old_samples(self, tmp_path, registry):
        registry.gauge("load", "t").set(1.0)
        journal = MetricsJournal(
            tmp_path / "wd.sqlite", registry=registry, retention_seconds=10.0
        )
        watchdog = HealthWatchdog(journal, None, prune_every=2)
        try:
            watchdog.tick(now=0.0)
            watchdog.tick(now=50.0)  # second tick prunes: t=0 expires
            assert [row["ts"] for row in journal.query("load")] == [50.0]
        finally:
            journal.close()

    def test_stop_halts_sampling(self, tmp_path, registry):
        registry.gauge("load", "t").set(1.0)
        journal = MetricsJournal(tmp_path / "wd.sqlite", registry=registry)
        watchdog = HealthWatchdog(journal, None, interval_seconds=0.01)
        try:
            watchdog.start()
            deadline = time.monotonic() + 5.0
            while len(journal.query("load")) < 2:
                assert time.monotonic() < deadline, "watchdog never ticked"
                time.sleep(0.01)
            watchdog.stop()
            count = len(journal.query("load"))
            time.sleep(0.05)
            assert len(journal.query("load")) == count
        finally:
            watchdog.stop()
            journal.close()

    def test_closing_the_journal_ends_a_running_watchdog(self, tmp_path, registry):
        registry.gauge("load", "t").set(1.0)
        journal = MetricsJournal(tmp_path / "wd.sqlite", registry=registry)
        watchdog = HealthWatchdog(journal, None, interval_seconds=0.01)
        watchdog.start()
        time.sleep(0.03)
        journal.close()  # the next tick hits a closed file and exits
        deadline = time.monotonic() + 5.0
        while watchdog.running:
            assert time.monotonic() < deadline, "watchdog outlived its journal"
            time.sleep(0.01)
        watchdog.stop()

    def test_start_and_stop(self, tmp_path, registry):
        registry.gauge("load", "t").set(1.0)
        journal = MetricsJournal(tmp_path / "wd.sqlite", registry=registry)
        watchdog = HealthWatchdog(journal, None, interval_seconds=0.01)
        try:
            watchdog.start()
            assert watchdog.running
            deadline = time.monotonic() + 5.0
            while not journal.query("load"):
                assert time.monotonic() < deadline, "watchdog never ticked"
                time.sleep(0.01)
            watchdog.stop()
            assert not watchdog.running
        finally:
            watchdog.stop()
            journal.close()


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
            # The synchronous tick journaled a snapshot.
            assert service.journal.metrics()
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
                service.journal,
                default_rules(heartbeat_overdue_seconds=0.05),
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

    def test_journal_survives_service_restart(self, tmp_path):
        """The satellite durability requirement: a reborn service over
        the same store root reads its predecessor's telemetry."""
        store_root = tmp_path / "store"
        first = ExperimentService(ExperimentStore(store_root))
        try:
            status, _ = first.handle("GET", "/healthz")
            assert status == 200
            before = len(first.journal.query("repro_http_requests_total"))
            assert before > 0
        finally:
            first.close()

        reborn = ExperimentService(ExperimentStore(store_root))
        try:
            assert reborn.journal.path == first.journal.path
            persisted = reborn.journal.query("repro_http_requests_total")
            assert len(persisted) == before
            status, _ = reborn.handle("GET", "/healthz")
            assert len(
                reborn.journal.query("repro_http_requests_total")
            ) > before
        finally:
            reborn.close()

    def test_disabled_obs_still_answers_healthz(self, tmp_path):
        obs.set_enabled(False)
        try:
            service = ExperimentService(ExperimentStore(tmp_path / "store"))
            try:
                assert service.journal is None
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
