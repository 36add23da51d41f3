"""Declarative SLO rules with firing→resolved alert state tracking.

A :class:`Rule` is a threshold over one registry series (or a ratio of
two): *"the max of ``repro_http_request_seconds_p99`` over the last
60 s must stay below 1.0"*. The :class:`RuleEngine` samples the series
its rules name on every :meth:`~RuleEngine.evaluate`, keeps those
readings in memory for the longest rule window, and runs each rule's
alert through a tiny state machine:

    ok ──breach──▶ firing ──recovery──▶ resolved ──breach──▶ firing …

``ok`` means the rule has never fired; ``resolved`` keeps the last
incident visible (when it fired, when it recovered) instead of
silently forgetting it. Each transition is timestamped with the
engine's clock, and the ``repro_alerts_firing`` gauge mirrors the
firing set so ``GET /metrics`` scrapes see active alerts without
calling ``GET /alerts``.

Counters and gauges are read under their own name; a histogram
``<name>`` is read as ``<name>_count`` / ``<name>_sum`` plus the
interpolated ``<name>_p50`` / ``<name>_p99`` quantiles, so a rule can
threshold directly on a latency percentile. The window lives and dies
with the process: a restarted service starts with an empty window, so
a counter's growth is never measured against a dead process's total.

A rule with *no data in its window* does not fire — an idle service
that has not sampled yet is healthy, not alarming. Everything here is
observation only: no rule influences results, keys, or checkpoints.
"""

from __future__ import annotations

import fnmatch
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from repro.errors import ObsError
from repro.obs import REGISTRY
from repro.obs.metrics import MetricsRegistry, bucket_quantile

_OBS_ALERTS_FIRING = REGISTRY.gauge(
    "repro_alerts_firing",
    "1 while the named SLO alert is firing, 0 otherwise.",
    labels=("alert",),
)

_OPS: dict[str, Callable[[float, float], bool]] = {
    ">": lambda value, threshold: value > threshold,
    "<": lambda value, threshold: value < threshold,
    ">=": lambda value, threshold: value >= threshold,
    "<=": lambda value, threshold: value <= threshold,
}

#: ``increase`` is computed per label set; the rest fold every value.
_AGGREGATES: dict[str, Callable[[list[float]], float] | None] = {
    "last": lambda values: values[-1],
    "max": max,
    "min": min,
    "avg": lambda values: sum(values) / len(values),
    "increase": None,
}

#: Quantile series derived from each histogram child at sample time.
_QUANTILES = ((0.50, "p50"), (0.99, "p99"))

#: One sample: ``(ts, {series: [(labels, value), …]})``.
_Sample = tuple[float, dict[str, list[tuple[dict[str, str], float]]]]


def _flatten(family: dict[str, Any]) -> Iterator[tuple[str, dict[str, str], float]]:
    """One family snapshot as ``(series, labels, value)`` readings."""
    name = family["name"]
    for child in family["series"]:
        labels = child["labels"]
        if family["type"] != "histogram":
            yield name, labels, float(child["value"])
            continue
        yield f"{name}_count", labels, float(child["count"])
        yield f"{name}_sum", labels, float(child["sum"])
        for q, suffix in _QUANTILES:
            yield (
                f"{name}_{suffix}",
                labels,
                bucket_quantile(family["bucket_bounds"], child["buckets"], q),
            )


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


def _aggregate(
    window: Iterable[_Sample],
    metric: str,
    agg: str,
    labels: dict[str, str] | None,
    since: float,
    until: float,
) -> float | None:
    """One number over the samples in ``[since, until]``, or ``None``.

    ``increase`` is each label set's newest-minus-oldest value, summed
    across matching label sets — the windowed growth of a counter.
    """
    points = [
        (child_labels, value)
        for ts, reading in window
        if since <= ts <= until
        for child_labels, value in reading.get(metric, ())
        if _labels_match(child_labels, labels)
    ]
    if not points:
        return None
    fold = _AGGREGATES[agg]
    if fold is not None:
        return fold([value for _, value in points])
    first: dict[tuple, float] = {}
    last: dict[tuple, float] = {}
    for child_labels, value in points:
        key = tuple(sorted(child_labels.items()))
        first.setdefault(key, value)
        last[key] = value
    return sum(last[key] - first[key] for key in last)


@dataclass(frozen=True)
class Rule:
    """One declarative SLO threshold over registry series.

    Args:
        name: stable alert identifier (``service_p99_latency``).
        metric: series name (a histogram's ``<name>_p99`` and so on).
        op: comparison that *fires* the alert (``value op threshold``).
        threshold: the SLO bound.
        window_seconds: trailing window the aggregation covers.
        aggregate: ``last`` / ``max`` / ``min`` / ``avg`` /
            ``increase`` (each label set's windowed growth, summed).
        labels: label subset filter; values may use ``fnmatch``
            wildcards.
        denominator_metric: when set, the evaluated value is
            ``metric / denominator_metric`` (both aggregated the same
            way) — how the error-*ratio* rule divides 5xx growth by
            total request growth.
        denominator_labels: label filter for the denominator.
        min_denominator: below this denominator the ratio is treated
            as no-data (three errors out of three requests at boot is
            noise, not an outage).
        component: the ``/healthz`` component this rule degrades.
        severity: free-form label (``warning`` / ``critical``).
        description: one line shown by ``repro-tlb alerts``.
    """

    name: str
    metric: str
    op: str
    threshold: float
    window_seconds: float = 60.0
    aggregate: str = "last"
    labels: dict[str, str] | None = None
    denominator_metric: str | None = None
    denominator_labels: dict[str, str] | None = None
    min_denominator: float = 1.0
    component: str = "service"
    severity: str = "warning"
    description: str = ""

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ObsError(
                f"rule {self.name!r}: unknown op {self.op!r}; "
                f"expected one of {tuple(_OPS)}"
            )
        if self.window_seconds <= 0:
            raise ObsError(
                f"rule {self.name!r}: window_seconds must be > 0, "
                f"got {self.window_seconds}"
            )
        if self.aggregate not in _AGGREGATES:
            raise ObsError(
                f"rule {self.name!r}: unknown aggregate {self.aggregate!r}; "
                f"expected one of {tuple(_AGGREGATES)}"
            )

    def evaluate(self, window: Iterable[_Sample], now: float) -> float | None:
        """The rule's value over the samples of its trailing window at
        ``now``, or ``None`` when there is no data."""
        since = now - self.window_seconds
        value = _aggregate(window, self.metric, self.aggregate, self.labels, since, now)
        if self.denominator_metric is None or value is None:
            return value
        denominator = _aggregate(
            window,
            self.denominator_metric,
            self.aggregate,
            self.denominator_labels,
            since,
            now,
        )
        if denominator is None or denominator < self.min_denominator:
            return None
        return value / denominator

    def breached(self, value: float) -> bool:
        return _OPS[self.op](value, self.threshold)


@dataclass
class AlertState:
    """Mutable per-rule alert record the engine maintains."""

    rule: Rule
    state: str = "ok"  # ok | firing | resolved
    since: float | None = None  # when the current state was entered
    fired_at: float | None = None  # start of the most recent incident
    resolved_at: float | None = None  # end of the most recent incident
    value: float | None = None  # last evaluated value
    transitions: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.rule.name,
            "state": self.state,
            "since": self.since,
            "fired_at": self.fired_at,
            "resolved_at": self.resolved_at,
            "value": self.value,
            "threshold": self.rule.threshold,
            "op": self.rule.op,
            "metric": self.rule.metric,
            "window_seconds": self.rule.window_seconds,
            "aggregate": self.rule.aggregate,
            "component": self.rule.component,
            "severity": self.rule.severity,
            "description": self.rule.description,
            "transitions": self.transitions,
        }


#: The oldest claimable job may wait this long (s) before the queue
#: degrades — the ``queue_oldest_claimable_age`` rule and the
#: ``/healthz`` queue probe both use it.
QUEUE_AGE_SLO_SECONDS = 120.0

#: A running job's lease may lapse this long (s) before the workers
#: degrade — the ``worker_heartbeat_stale`` rule and the ``/healthz``
#: workers probe both use it.
LEASE_OVERDUE_SLO_SECONDS = 5.0


def default_rules(
    p99_latency_seconds: float = 1.0,
    queue_age_seconds: float = QUEUE_AGE_SLO_SECONDS,
    heartbeat_overdue_seconds: float = LEASE_OVERDUE_SLO_SECONDS,
    error_ratio: float = 0.10,
    idle_sessions: int = 64,
    shed_per_minute: float = 30.0,
) -> list[Rule]:
    """The service's stock SLO rule set (thresholds overridable).

    Six rules, one per failure mode: slow requests, a backed-up queue,
    workers that stopped heartbeating, a 5xx error ratio, streaming
    sessions piling up idle, and sustained admission load-shedding.
    """
    return [
        Rule(
            name="service_p99_latency",
            metric="repro_http_request_seconds_p99",
            op=">",
            threshold=p99_latency_seconds,
            window_seconds=60.0,
            aggregate="max",
            component="service",
            severity="warning",
            description="service p99 request latency above SLO",
        ),
        Rule(
            name="queue_oldest_claimable_age",
            metric="repro_sched_oldest_queued_age_seconds",
            op=">",
            threshold=queue_age_seconds,
            window_seconds=60.0,
            aggregate="last",
            component="queue",
            severity="warning",
            description="oldest claimable job has waited too long",
        ),
        Rule(
            name="worker_heartbeat_stale",
            metric="repro_sched_lease_overdue_seconds",
            op=">",
            threshold=heartbeat_overdue_seconds,
            window_seconds=60.0,
            aggregate="last",
            component="workers",
            severity="critical",
            description="a running job's lease expired without a heartbeat",
        ),
        Rule(
            name="service_error_ratio",
            metric="repro_http_requests_total",
            op=">",
            threshold=error_ratio,
            window_seconds=120.0,
            aggregate="increase",
            labels={"status": "5*"},
            denominator_metric="repro_http_requests_total",
            min_denominator=10.0,
            component="service",
            severity="critical",
            description="5xx responses above the error-ratio SLO",
        ),
        Rule(
            name="stream_sessions_idle_pileup",
            metric="repro_stream_sessions",
            op=">",
            threshold=float(idle_sessions),
            window_seconds=60.0,
            aggregate="last",
            labels={"state": "active"},
            component="sessions",
            severity="warning",
            description="streaming sessions piling up without eviction",
        ),
        Rule(
            name="admission_shed_rate",
            metric="repro_admission_requests_total",
            op=">",
            threshold=shed_per_minute,
            window_seconds=60.0,
            aggregate="increase",
            labels={"outcome": "shed"},
            component="admission",
            severity="warning",
            description="load shedding above the admission SLO",
        ),
    ]


class RuleEngine:
    """Samples the series a rule set names and tracks alert state.

    Args:
        rules: the SLO rule set; duplicate names are rejected.
        registry: where :meth:`evaluate` reads the rules' series; a
            disabled registry records nothing.
        clock: time source for samples and transition timestamps.

    The engine keeps one in-memory reading per :meth:`evaluate`,
    trimmed to the longest rule window. :meth:`evaluate` is invoked
    from the watchdog thread *and* from ``GET /healthz`` handlers, so
    sampling and state mutation happen under an internal lock.
    """

    def __init__(
        self,
        rules: list[Rule],
        registry: MetricsRegistry = REGISTRY,
        clock: Callable[[], float] = time.time,
    ) -> None:
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise ObsError(f"duplicate rule names in {sorted(names)}")
        self.registry = registry
        self.clock = clock
        self._lock = threading.RLock()
        self._states = {rule.name: AlertState(rule) for rule in rules}
        self._series = {rule.metric for rule in rules} | {
            rule.denominator_metric for rule in rules if rule.denominator_metric
        }
        # A histogram's derived series are read from the family
        # ``<name>``; the other candidates are simply never registered.
        self._families = sorted(
            self._series | {series.rpartition("_")[0] for series in self._series}
        )
        self._horizon = max((rule.window_seconds for rule in rules), default=0.0)
        self._window: deque[_Sample] = deque()

    @property
    def rules(self) -> list[Rule]:
        return [state.rule for state in self._states.values()]

    def _sample(self, ts: float) -> None:
        """Append one reading of the rules' series; drop expired ones."""
        if self.registry.enabled:
            reading: dict[str, list[tuple[dict[str, str], float]]] = {}
            for name in self._families:
                family = self.registry.get(name)
                if family is None:
                    continue
                for series, labels, value in _flatten(family.snapshot()):
                    if series in self._series:
                        reading.setdefault(series, []).append((labels, value))
            self._window.append((ts, reading))
        while self._window and self._window[0][0] < ts - self._horizon:
            self._window.popleft()

    def evaluate(self, now: float | None = None) -> list[dict[str, Any]]:
        """Sample once, evaluate every rule; returns the alert records."""
        ts = self.clock() if now is None else now
        with self._lock:
            self._sample(ts)
            for state in self._states.values():
                value = state.rule.evaluate(self._window, now=ts)
                state.value = value
                breached = value is not None and state.rule.breached(value)
                if breached and state.state != "firing":
                    state.state = "firing"
                    state.since = ts
                    state.fired_at = ts
                    state.transitions += 1
                elif not breached and state.state == "firing":
                    state.state = "resolved"
                    state.since = ts
                    state.resolved_at = ts
                    state.transitions += 1
                _OBS_ALERTS_FIRING.set(
                    1.0 if state.state == "firing" else 0.0,
                    alert=state.rule.name,
                )
            return [state.to_dict() for state in self._states.values()]

    def alerts(self) -> list[dict[str, Any]]:
        """Current alert records without re-evaluating."""
        with self._lock:
            return [state.to_dict() for state in self._states.values()]

    def firing(self) -> list[str]:
        """Names of the alerts currently firing."""
        with self._lock:
            return [
                name
                for name, state in self._states.items()
                if state.state == "firing"
            ]

    def components_degraded(self) -> dict[str, list[str]]:
        """Firing alert names grouped by the component they degrade."""
        with self._lock:
            degraded: dict[str, list[str]] = {}
            for state in self._states.values():
                if state.state == "firing":
                    degraded.setdefault(state.rule.component, []).append(
                        state.rule.name
                    )
            return degraded
