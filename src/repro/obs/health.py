"""The health watchdog: the thread that watches the watchers.

On a fixed cadence :class:`HealthWatchdog` (1) asks its owner to
refresh scrape-time gauges via the ``collect`` hook (queue depth,
session counts, SLO gauges), then (2) has the
:class:`~repro.obs.rules.RuleEngine` sample the series its rules name
and re-evaluate them, so alerts transition between firing and
resolved without anyone polling ``GET /healthz``.

:func:`component_health` is the pure half of ``GET /healthz``: it
folds direct probes (store writable, queue lag, worker leases, live
sessions) together with the rule engine's firing set into one
componentwise report — separated from the HTTP layer so the service
tests can assert on it without sockets, and ``repro-tlb health`` can
render it without re-deriving the shape.

Like everything in :mod:`repro.obs`, the watchdog is observation only
and is never constructed when ``REPRO_OBS_DISABLED`` is set.
"""

from __future__ import annotations

import sqlite3
import threading
from typing import Any, Callable

from repro.errors import ObsError
from repro.obs.rules import (
    LEASE_OVERDUE_SLO_SECONDS,
    QUEUE_AGE_SLO_SECONDS,
    RuleEngine,
)


class HealthWatchdog:
    """Background sampler + alert evaluator over one rule engine.

    Args:
        engine: the SLO rule engine sampled and re-evaluated every tick.
        interval_seconds: cadence; each tick is collect → evaluate.
        collect: optional zero-arg hook run before sampling so gauges
            reflect live state (the service passes its gauge-refresh).
    """

    def __init__(
        self,
        engine: RuleEngine,
        interval_seconds: float = 5.0,
        collect: Callable[[], None] | None = None,
    ) -> None:
        if interval_seconds <= 0:
            raise ObsError(f"interval_seconds must be > 0, got {interval_seconds}")
        self.engine = engine
        self.interval_seconds = float(interval_seconds)
        self.collect = collect
        self.ticks = 0
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    def tick(self, now: float | None = None) -> None:
        """One synchronous watchdog cycle (what the thread loops on).

        Exposed so tests — and ``GET /healthz`` on a service without a
        running watchdog — can drive the sample/evaluate cycle
        deterministically with an injected clock.
        """
        if self.collect is not None:
            self.collect()
        self.engine.evaluate(now=now)
        self.ticks += 1

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        """Run :meth:`tick` on the cadence until :meth:`stop`."""
        if self.running:
            return
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(self.interval_seconds):
                try:
                    self.tick()
                except sqlite3.ProgrammingError:
                    return  # the collect hook's database closed under us

        self._thread = threading.Thread(
            target=loop, name="repro-obs-watchdog", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None and thread.is_alive():
            thread.join(timeout=10)


def component_health(
    store_writable: bool,
    queue_slo: dict[str, Any],
    sessions: dict[str, Any],
    engine: RuleEngine | None,
) -> dict[str, Any]:
    """Fold probes + firing alerts into the ``/healthz`` report.

    Components:
        - ``store``: the artifact root accepted a write probe.
        - ``queue``: the oldest claimable job is not stuck past
          :data:`~repro.obs.rules.QUEUE_AGE_SLO_SECONDS`.
        - ``workers``: no running job's lease is overdue past
          :data:`~repro.obs.rules.LEASE_OVERDUE_SLO_SECONDS` (a
          SIGKILLed worker shows up here as soon as its lease lapses,
          and recovers when the job is re-claimed).
        - ``sessions``: live streaming-session census (always ok on its
          own; the idle-pileup *rule* degrades it when breached).

    A component is also degraded while any firing alert names it. The
    overall ``status`` is ``ok`` only when every component is ok.
    """
    degraded_by_alert = engine.components_degraded() if engine is not None else {}

    components: dict[str, dict[str, Any]] = {}

    components["store"] = {
        "status": "ok" if store_writable else "degraded",
        "writable": store_writable,
    }

    queue_age = queue_slo.get("oldest_queued_age_seconds")
    queue_ok = queue_age is None or queue_age <= QUEUE_AGE_SLO_SECONDS
    components["queue"] = {
        "status": "ok" if queue_ok else "degraded",
        "oldest_queued_age_seconds": queue_age,
        "queued": queue_slo.get("queued", 0),
        "running": queue_slo.get("running", 0),
    }

    overdue_jobs = queue_slo.get("lease_overdue_jobs", 0)
    overdue_seconds = queue_slo.get("lease_overdue_seconds", 0.0)
    workers_ok = (
        overdue_jobs == 0 or overdue_seconds <= LEASE_OVERDUE_SLO_SECONDS
    )
    components["workers"] = {
        "status": "ok" if workers_ok else "degraded",
        "lease_overdue_jobs": overdue_jobs,
        "lease_overdue_seconds": overdue_seconds,
    }

    components["sessions"] = {
        "status": "ok",
        "active": sessions.get("active", 0),
        "restored": sessions.get("restored", 0),
        "evicted": sessions.get("evicted", 0),
    }

    for component, alerts in degraded_by_alert.items():
        entry = components.setdefault(component, {"status": "ok"})
        entry["status"] = "degraded"
        entry["alerts"] = sorted(alerts)

    firing = sorted(
        name for alerts in degraded_by_alert.values() for name in alerts
    )
    status = (
        "ok"
        if all(entry["status"] == "ok" for entry in components.values())
        else "degraded"
    )
    return {
        "status": status,
        "components": components,
        "alerts_firing": len(firing),
        "firing": firing,
    }
