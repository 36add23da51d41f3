"""Observability for the repro stack: metrics, traces, logs, profiling.

One import point for every layer (runner, engines, store, service,
scheduler)::

    from repro import obs

    obs.REGISTRY.counter("repro_store_result_hits_total").inc()
    with obs.trace("replay", engine="batch"):
        ...

Everything here is strictly off the determinism path — no metric,
span, or log line influences ``RunSpec.key()``, result rows, or
checkpoint digests. The whole subsystem can be switched off with
:func:`set_enabled` (or the ``REPRO_OBS_DISABLED`` environment
variable) to measure its own overhead; disabled, every update is a
branch-and-return.
"""

from __future__ import annotations

import os

from repro.obs.bench import SMOKE_GATES, check_gates
from repro.obs.logging import enable_console, get_logger
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricFamily,
    MetricsRegistry,
    parse_prometheus,
)
from repro.obs.profiling import PhaseProfiler, peak_rss_bytes
from repro.obs.tracing import (
    COLLECTOR,
    TRACE_HEADER,
    Span,
    SpanCollector,
    bind_context,
    current_context,
    drain_spans,
    render_flame,
    set_tracing_enabled,
    trace,
)

ENV_DISABLED = "REPRO_OBS_DISABLED"

#: The process-wide default registry every layer instruments into.
REGISTRY = MetricsRegistry(
    enabled=os.environ.get(ENV_DISABLED, "").strip() not in ("1", "true", "yes")
)
if not REGISTRY.enabled:
    set_tracing_enabled(False)


def set_enabled(flag: bool) -> None:
    """Enable/disable all telemetry (metrics and tracing) at runtime."""
    REGISTRY.enabled = bool(flag)
    set_tracing_enabled(bool(flag))


def is_enabled() -> bool:
    return REGISTRY.enabled


# Imported after REGISTRY exists: both modules register families
# against the process-wide registry at import time.
from repro.obs.health import HealthWatchdog, component_health  # noqa: E402
from repro.obs.rules import Rule, RuleEngine, default_rules  # noqa: E402

__all__ = [
    "COLLECTOR",
    "DEFAULT_LATENCY_BUCKETS",
    "ENV_DISABLED",
    "HealthWatchdog",
    "MetricFamily",
    "MetricsRegistry",
    "PhaseProfiler",
    "REGISTRY",
    "Rule",
    "RuleEngine",
    "SMOKE_GATES",
    "Span",
    "SpanCollector",
    "TRACE_HEADER",
    "bind_context",
    "check_gates",
    "component_health",
    "current_context",
    "default_rules",
    "drain_spans",
    "enable_console",
    "get_logger",
    "is_enabled",
    "parse_prometheus",
    "peak_rss_bytes",
    "render_flame",
    "set_enabled",
    "set_tracing_enabled",
    "trace",
]
