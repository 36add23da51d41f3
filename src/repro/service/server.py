"""The experiment query service: one route table, its handlers, HTTP plumbing.

Every route is one row of :data:`ROUTES`,
``Route(method, template, handler, access, fields)``, the only place
the route is described. :func:`_match` walks the table, and its answer
drives everything route-shaped:

- the ``route`` label of the request metrics and span: the row's
  template, or ``<unknown>`` for every unroutable request, so label
  cardinality is bounded by the table, not by traffic;
- admission: ``ops`` rows bypass it, so health probes answer while the
  service sheds; ``worker`` rows need a worker-capable token (they
  expose every tenant's specs or spans); ``tenant`` rows run in the
  caller's namespace;
- dispatch, and the 404 for a route that does not exist;
- validation: the ``POST`` body (a JSON object) or the ``GET`` query
  is checked against the row's ``fields``, and the handler receives
  the parsed values as keyword arguments. A template parameter
  captures the rest of the path, is percent-decoded, and is a 400 when
  empty or containing ``/``.

:class:`ExperimentService` is the pure request handler — method + path
+ query + body in, ``(status, payload)`` out — so every route is unit
testable without sockets. :func:`make_server` wraps it in a threading
stdlib HTTP server; :func:`serve` is the blocking CLI entry point.

Execution goes through a store-backed
:class:`~repro.run.runner.Runner`, so ``POST /runs`` serves previously
computed specs straight from the store and persists anything it had to
simulate. The distributed sweep scheduler keeps a persistent
:class:`~repro.sched.queue.JobQueue` at ``<store>/jobs.sqlite``:
submission and claims probe the store so a computed spec is never
handed out, and completions write rows back through the
content-addressed store. ``/streams`` sessions are suspendable
:class:`~repro.ckpt.ReplaySession` objects checkpointed on every
advance, so they survive idle eviction and server restarts with
byte-identical final statistics.

Before dispatch, an
:class:`~repro.service.admission.AdmissionController` maps API tokens
to tenants (tenant-scoped results, streams and sweeps over shared
content-addressed artifacts), applies each tenant's token-bucket rate
and sweep cost budget, and sheds overload past a bounded in-flight
pool with ``429`` + ``Retry-After``. With no tenants configured the
service runs open (anonymous, unlimited rate); only the in-flight
bound applies.
"""

from __future__ import annotations

import json
import math
import re
import sys
import threading
import time
import uuid
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Iterable, Iterator, NamedTuple
from urllib.parse import parse_qsl, unquote, urlparse

from repro.ckpt import CheckpointManager, ReplaySession
from repro.errors import CkptError, ReproError, StoreError, SweepOwnershipError
from repro.obs import (
    COLLECTOR,
    REGISTRY,
    TRACE_HEADER,
    HealthWatchdog,
    RuleEngine,
    bind_context,
    component_health,
    current_context,
    default_rules,
    enable_console,
    get_logger,
    is_enabled,
    trace,
)
from repro.run.results import ResultSet
from repro.run.runner import MissStreamCache, Runner, annotate_stats
from repro.run.spec import RunSpec
from repro.sched.queue import JobQueue
from repro.service.admission import (
    AdmissionController,
    TenantConfig,
    load_tenant_config,
)
from repro.sim.stats import PrefetchRunStats
from repro.store import ExperimentStore

#: Version stamp on every service response envelope.
SERVICE_SCHEMA = "repro.service/v1"

#: Longest a long-poll (``wait`` on ``POST /claim`` and
#: ``GET /progress``) may block, whatever the request asks for.
MAX_WAIT_SECONDS = 10.0

#: Upper bound on a POST body. Anything larger is refused with 413
#: before a byte is read — a bogus ``Content-Length: 1e18`` must not
#: turn into an allocation.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Per-route request accounting. Routes are *normalized* (keys and ids
#: replaced by ``:key``/``:id`` placeholders) so label cardinality is
#: bounded by the route table, not by the store's contents.
_OBS_HTTP_REQUESTS = REGISTRY.counter(
    "repro_http_requests_total",
    "HTTP requests served, by method, normalized route, and status.",
    labels=("method", "route", "status"),
)
_OBS_HTTP_SECONDS = REGISTRY.histogram(
    "repro_http_request_seconds",
    "HTTP request handling latency, by method and normalized route.",
    labels=("method", "route"),
)
_OBS_STORE_ENTRIES = REGISTRY.gauge(
    "repro_store_entries",
    "Store index entries per artifact kind at last scrape.",
    labels=("kind",),
)
_OBS_STORE_BYTES = REGISTRY.gauge(
    "repro_store_total_bytes",
    "Total bytes of stored artifacts at last scrape.",
)
_OBS_CACHE_ENTRIES = REGISTRY.gauge(
    "repro_stream_cache_entries",
    "Live entries in the service's miss-stream cache at last scrape.",
)
_OBS_SESSIONS = REGISTRY.gauge(
    "repro_stream_sessions",
    "Streaming replay sessions by lifecycle state.",
    labels=("state",),
)

_LOG = get_logger("service")

#: The current request thread's long-poll state: ``blocked``, the
#: seconds spent blocked, which :meth:`ExperimentService.handle` leaves
#: out of the request latency (the ``service_p99_latency`` SLO reads
#: it); and ``holds_slot``, whether it still holds its admission slot
#: after a long-poll parked it.
_REQUEST = threading.local()

#: Marks a :class:`Field` that has no default: absent or null is a 400.
_REQUIRED: Any = object()


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: Field kinds: what a valid value is (for the 400 message) and the
#: check. Integers exclude ``bool``; numbers must be finite, since a NaN
#: or infinite lease would never expire.
_KINDS: dict[str, tuple[str, Callable[[Any], bool]]] = {
    "str": ("a non-empty string", lambda v: isinstance(v, str) and v != ""),
    "id": (
        "a non-empty string without '/'",
        lambda v: isinstance(v, str) and v != "" and "/" not in v,
    ),
    "int>=0": ("a non-negative integer", lambda v: _is_int(v) and v >= 0),
    "int>=1": ("a positive integer", lambda v: _is_int(v) and v >= 1),
    "number>0": (
        "a finite number > 0",
        lambda v: (_is_int(v) or isinstance(v, float))
        and 0 < v <= sys.float_info.max,
    ),
    "number>=0": (
        "a finite number >= 0",
        lambda v: (_is_int(v) or isinstance(v, float))
        and 0 <= v <= sys.float_info.max,
    ),
    "list[str]": (
        "a list of strings",
        lambda v: isinstance(v, list) and all(isinstance(i, str) for i in v),
    ),
    "object": ("an object", lambda v: isinstance(v, dict)),
    "list": ("a list", lambda v: isinstance(v, list)),
}


class Field(NamedTuple):
    """One body (``POST``) or query (``GET``) value a handler reads.

    ``kind`` is a key of ``_KINDS``, or ``"filters"``: every query key
    no other field declares, typed best-effort. A field that is absent
    or null takes ``default``; without one it is required.
    """

    name: str
    kind: str
    default: Any = _REQUIRED


class Route(NamedTuple):
    """One row of :data:`ROUTES`.

    ``template`` is both the path pattern and the metric label.
    ``access`` is ``"ops"`` (no admission), ``"tenant"`` or
    ``"worker"`` (worker-capable tokens only).
    """

    method: str
    template: str
    handler: Callable[..., tuple[int, Any]]
    access: str
    fields: tuple[Field, ...] = ()


def _match(method: str, path: str) -> tuple[Route | None, str | None]:
    """The row serving ``method path`` and its raw template parameter.

    A parameter captures the rest of the path, slashes included, so a
    malformed id is a 400 from :func:`_arguments` rather than a 404.
    ``(None, None)`` when no row matches.
    """
    for route, pattern in _PATTERNS:
        found = route.method == method and pattern.fullmatch(path)
        if found:
            return route, next(iter(found.groups()), None)
    return None, None


def _coerce(value: str) -> Any:
    """Best-effort typing for query-string values (int, float, str)."""
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def _arguments(
    route: Route, param: str | None, query: dict[str, str], body: Any
) -> tuple[list[str], dict[str, Any]]:
    """The handler's parsed arguments, or :class:`ReproError` (a 400).

    The template parameter is percent-decoded (clients encode ids that
    embed user-chosen sweep ids) and must then be a valid ``id``: a
    ``/`` could otherwise forge the tenant separator of a namespaced
    session key. ``POST`` rows read the body, which must be a JSON
    object (absent is empty); ``GET`` rows read the query string,
    whose numbers arrive as text.
    """
    args = [] if param is None else [unquote(param)]
    if args and not _KINDS["id"][1](args[0]):
        raise ReproError(f"malformed path parameter {args[0]!r} in {route.template}")
    if route.method == "GET":
        return args, _values(route.fields, query, "query", text=True)
    return args, _values(route.fields, {} if body is None else body)


def _values(
    fields: tuple[Field, ...],
    source: Any,
    what: str = "request body",
    text: bool = False,
) -> dict[str, Any]:
    """``source`` checked against ``fields``, or :class:`ReproError`.

    ``source`` (named ``what`` in the message) must be an object;
    ``text`` marks a query string, whose numeric values are coerced
    from their text first.
    """
    if not isinstance(source, dict):
        raise ReproError(f"{what} must be an object, got {type(source).__name__}")
    values: dict[str, Any] = {}
    for name, kind, default in fields:
        if kind == "filters":
            declared = {field.name for field in fields}
            values[name] = {
                key: _coerce(raw)
                for key, raw in source.items()
                if key not in declared
            }
            continue
        value = source.get(name)
        if value is None and default is not _REQUIRED:
            values[name] = default
            continue
        if text and kind.startswith(("int", "number")) and isinstance(value, str):
            value = _coerce(value)
        description, valid = _KINDS[kind]
        if not valid(value):
            raise ReproError(f"'{name}' must be {description}, got {value!r}")
        values[name] = value
    return values


def _parse_specs(raw_specs: list) -> list[RunSpec]:
    """Body spec objects as :class:`RunSpec`; a bad one is a 400."""
    try:
        return [RunSpec.from_dict(raw) for raw in raw_specs]
    except (TypeError, ValueError) as exc:
        # Covers ConfigurationError plus raw type mistakes (e.g. a
        # string scale) the dataclass validators trip over.
        raise ReproError(str(exc)) from exc


class _SessionEntry:
    """One streaming session's slot in the session table.

    ``lock`` serializes everything that mutates *this* session —
    advance, checkpoint, restore — while other sessions proceed in
    parallel. ``dead`` marks an entry that has been evicted or
    discarded after a holder fetched it but before it acquired the
    lock: the holder must drop it and fetch a fresh entry. ``digest``
    is the session's last state digest, set by open, advance and
    restore.
    """

    __slots__ = ("lock", "session", "spec", "tenant", "touched", "dead", "digest")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.session: ReplaySession | None = None
        self.spec: RunSpec | None = None
        self.tenant: str | None = None
        self.touched = time.monotonic()
        self.dead = False
        self.digest: str | None = None


class _SessionTable:
    """Session map with per-session locks.

    One table lock guards the map and the counters, and is held only
    for dict operations (microseconds); the per-entry locks serialize
    work on one session without blocking any other. Lock ordering
    rule: the table lock is never held while *blocking* on an entry
    lock (eviction uses a non-blocking try-acquire), so the two layers
    cannot deadlock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[str, _SessionEntry] = {}
        self.restored = 0
        self.evicted = 0

    def get_or_create(self, session_id: str) -> _SessionEntry:
        """The live entry for ``session_id`` (a fresh one if absent/dead)."""
        with self._lock:
            entry = self._entries.get(session_id)
            if entry is None or entry.dead:
                entry = _SessionEntry()
                self._entries[session_id] = entry
            return entry

    def discard(self, session_id: str, entry: _SessionEntry) -> None:
        """Drop ``entry`` from the map; marks it dead."""
        with self._lock:
            if self._entries.get(session_id) is entry:
                del self._entries[session_id]
        entry.dead = True

    def __contains__(self, session_id: str) -> bool:
        with self._lock:
            entry = self._entries.get(session_id)
            return entry is not None and entry.session is not None

    def clear(self) -> None:
        """Forget every live session (tests simulate memory loss)."""
        with self._lock:
            for entry in self._entries.values():
                entry.dead = True
                entry.session = None
            self._entries.clear()

    def note_restored(self) -> None:
        with self._lock:
            self.restored += 1

    def evict_idle(self, max_idle_seconds: float) -> int:
        """Evict sessions idle past the threshold; returns the count.

        Entries busy in another request (entry lock held) are skipped
        — they are by definition not idle — and a session's persisted
        checkpoint survives eviction, so the next touch restores it.
        """
        if max_idle_seconds <= 0:
            return 0
        now = time.monotonic()
        with self._lock:
            stale = [
                (session_id, entry)
                for session_id, entry in self._entries.items()
                if entry.session is not None
                and now - entry.touched > max_idle_seconds
            ]
        evicted = 0
        for session_id, entry in stale:
            if not entry.lock.acquire(blocking=False):
                continue
            try:
                if (
                    entry.session is not None
                    and now - entry.touched > max_idle_seconds
                ):
                    self.discard(session_id, entry)
                    entry.session = None
                    evicted += 1
            finally:
                entry.lock.release()
        if evicted:
            with self._lock:
                self.evicted += evicted
        return evicted

    def census(self) -> dict[str, int]:
        """Live/restored/evicted counts for stats, healthz, gauges."""
        with self._lock:
            return {
                "active": sum(
                    1 for entry in self._entries.values()
                    if entry.session is not None
                ),
                "restored": self.restored,
                "evicted": self.evicted,
            }


class ExperimentService:
    """Route table + handlers over one store and one runner.

    Args:
        store: the persistent store to serve.
        runner: execution engine for ``POST /runs``; defaults to a
            serial store-backed runner with a private miss-stream cache
            (the service is long-lived — a private cache keeps its
            counters meaningful in ``GET /stats``).
        queue: the scheduler's job queue; defaults to a persistent one
            at ``<store root>/jobs.sqlite``, so a restarted server
            resumes exactly where the fleet left off.
        max_idle_seconds: streaming sessions untouched for this long
            are evicted from memory (their persisted checkpoint stays
            in the store; the next touch restores them transparently).
        admission: the admission controller every non-ops request
            passes through; defaults to an open-mode controller
            (anonymous, rate-unlimited, in-flight bounded). Configure
            tenants for token auth + per-tenant budgets.

    When telemetry is enabled, the service owns a
    :class:`~repro.obs.rules.RuleEngine` over
    :func:`~repro.obs.rules.default_rules`, whose in-memory window
    starts empty with each process; ``REPRO_OBS_DISABLED`` leaves both
    ``engine`` and ``watchdog`` as ``None`` and ``GET /healthz`` falls
    back to direct probes only.
    The :class:`~repro.obs.health.HealthWatchdog` (telemetry sampling
    and SLO evaluation on its own default cadence) is *constructed*
    here but only *started* by :func:`make_server`, so pure-handler
    tests stay single-threaded and drive ``GET /healthz``
    synchronously.
    """

    def __init__(
        self,
        store: ExperimentStore,
        runner: Runner | None = None,
        queue: JobQueue | None = None,
        max_idle_seconds: float = 300.0,
        admission: AdmissionController | None = None,
    ) -> None:
        self.store = store
        self.runner = (
            runner
            if runner is not None
            else Runner(cache=MissStreamCache(), store=store)
        )
        self.queue = (
            queue if queue is not None else JobQueue(store.root / "jobs.sqlite")
        )
        self.ckpt = CheckpointManager(store)
        self.max_idle_seconds = max_idle_seconds
        self.admission = (
            admission if admission is not None else AdmissionController()
        )
        # Session table with per-session locks: sessions mutate under
        # advance, so each one is serialized by its own entry lock —
        # but concurrent streams never wait on one another's work.
        self._sessions = _SessionTable()
        # sweep_id -> the submitting request's trace context, so jobs
        # claimed later (a different request, a different worker) can
        # join the sweep's trace. Bounded FIFO; purely observability.
        # Handler threads mutate it concurrently, hence the lock.
        # (Sweep *ownership* is not kept here: it lives in the job
        # queue's sweeps table, so it survives restarts and is checked
        # atomically with submission.)
        self._sweep_traces: dict[str, str] = {}
        self._sweep_traces_max = 256
        self._sweep_traces_lock = threading.Lock()
        self.engine: RuleEngine | None = None
        self.watchdog: HealthWatchdog | None = None
        if is_enabled():
            self.engine = RuleEngine(default_rules())
            self.watchdog = HealthWatchdog(
                self.engine, collect=self._refresh_gauges
            )

    def close(self) -> None:
        """Stop the watchdog.

        The store, queue, and runner are caller-owned; only the
        observability thread this service constructed is torn down.
        Safe to call more than once.
        """
        if self.watchdog is not None:
            self.watchdog.stop()

    # -- dispatch ----------------------------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        query: dict[str, str] | None = None,
        body: Any = None,
        trace_parent: str | None = None,
        authorization: str | None = None,
    ) -> tuple[int, Any]:
        """Dispatch one request; never raises — errors become payloads.

        The payload is a JSON envelope, except ``GET /metrics``, which
        answers Prometheus text. ``trace_parent`` is the caller's
        ``X-Repro-Trace`` context (if any): the request span — and
        everything the handler does under it, replays and store writes
        included — joins the caller's trace instead of starting a fresh
        one. ``authorization`` is the raw ``Authorization`` header,
        resolved to a tenant by the admission controller before any
        route runs. Time a long-poll spends blocked on the queue is left
        out of the request latency metric.
        """
        route, param = _match(method, path)
        label = "<unknown>" if route is None else route.template
        _REQUEST.blocked = 0.0
        began = time.perf_counter()
        with bind_context(trace_parent):
            with trace("http.request", method=method, route=label) as span:
                status, payload = self._admit(
                    method, path, route, param, query or {}, body, authorization
                )
                span.attrs["status"] = status
        _OBS_HTTP_REQUESTS.inc(method=method, route=label, status=str(status))
        _OBS_HTTP_SECONDS.observe(
            time.perf_counter() - began - _REQUEST.blocked,
            method=method,
            route=label,
        )
        return status, payload

    def _admit(
        self,
        method: str,
        path: str,
        route: Route | None,
        param: str | None,
        query: dict[str, str],
        body: Any,
        authorization: str | None,
    ) -> tuple[int, Any]:
        """Admission gauntlet: auth → capability → rate → slot → route.

        A 429 from any stage carries ``retry_after`` (seconds) in the
        payload, which the HTTP layer mirrors into a ``Retry-After``
        header. A shed or limited request never reaches a handler, so
        shedding is cheap by construction. Unknown routes pass the
        gauntlet like ``tenant`` rows before their 404.
        """
        if route is not None and route.access == "ops":
            # Ops routes skip admission entirely — and run with admin
            # (tenant-unscoped) visibility, which they don't use.
            return self._dispatch(route, param, query, body, None)
        tenant, auth_error = self.admission.authenticate(authorization)
        if auth_error is not None:
            return 401, self._envelope({"error": auth_error})
        if (
            tenant is not None
            and route is not None
            and route.access == "worker"
            and not tenant.worker
        ):
            self.admission.note(tenant.name, "forbidden")
            return 403, self._envelope(
                {
                    "error": f"tenant {tenant.name!r} is not worker-capable; "
                    f"{method} {route.template} requires a worker token"
                }
            )
        wait = self.admission.check_rate(tenant)
        if wait > 0.0:
            return self._retry_later("request rate limit exceeded", wait)
        shed = self.admission.try_enter(tenant)
        if shed is not None:
            return self._retry_later("service at capacity, request shed", shed)
        _REQUEST.holds_slot = True
        try:
            self.admission.note(
                tenant.name if tenant is not None else None, "admitted"
            )
            if route is None:
                return 404, self._envelope(
                    {"error": f"unknown route {method} {path}"}
                )
            return self._dispatch(route, param, query, body, tenant)
        finally:
            if _REQUEST.holds_slot:
                self.admission.leave()

    def _dispatch(
        self,
        route: Route,
        param: str | None,
        query: dict[str, str],
        body: Any,
        tenant: TenantConfig | None,
    ) -> tuple[int, Any]:
        try:
            args, values = _arguments(route, param, query, body)
            return route.handler(self, tenant, *args, **values)
        except (StoreError, CkptError) as exc:
            # A corrupt artifact (result row or checkpoint blob) is a
            # server-side problem, not a bad request.
            return 500, self._envelope({"error": str(exc)})
        except ReproError as exc:
            # Request validation and library-validated input (unknown
            # workload/mechanism, bad knob values, ...) are the
            # client's mistake.
            return 400, self._envelope({"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - service must stay alive
            # Anything else is a server bug: report it as one instead of
            # blaming the request, and keep serving.
            return 500, self._envelope(
                {"error": f"internal error: {type(exc).__name__}: {exc}"}
            )

    @staticmethod
    def _envelope(payload: dict) -> dict:
        return {"schema": SERVICE_SCHEMA, **payload}

    def _retry_later(self, error: str, wait: float) -> tuple[int, dict]:
        return 429, self._envelope(
            {"error": error, "retry_after": round(wait, 3)}
        )

    def _charge_cost(
        self, tenant: TenantConfig | None, specs: list[RunSpec]
    ) -> tuple[int, dict] | None:
        """Charge a sweep's cost before dispatch: one request, N specs
        of work. Nothing has executed yet, so the 429 it may return is
        free to retry once the budget refills."""
        wait = self.admission.charge_cost(tenant, len(specs))
        if wait <= 0.0:
            return None
        return self._retry_later(
            f"sweep cost budget exhausted ({len(specs)} specs requested)", wait
        )

    # -- routes ------------------------------------------------------------

    def _get_stats(self, tenant: TenantConfig | None) -> tuple[int, dict]:
        return 200, self._envelope(
            {
                "store": self.store.stats(),
                "stream_cache": self.runner.cache.stats(),
                "queue": self.queue.stats(),
                "streams": self._sessions.census(),
                "admission": self.admission.census(),
                "metrics": self._metrics_summary(),
            }
        )

    def _metrics_summary(self) -> dict:
        """Registry-derived latency/throughput digest for ``GET /stats``.

        The full registry is on ``GET /metrics``; this is the
        dashboard-sized cut (request latency quantiles, replay timing)
        that ``repro-tlb top`` polls.
        """
        http = _OBS_HTTP_SECONDS.summary()
        summary: dict[str, Any] = {
            "http_requests": int(http["count"]),
            "http_p50_ms": http["p50"] * 1000.0,
            "http_p99_ms": http["p99"] * 1000.0,
        }
        replay = REGISTRY.get("repro_replay_seconds")
        if replay is not None:
            rep = replay.summary()
            summary["replays"] = int(rep["count"])
            summary["replay_p50_ms"] = rep["p50"] * 1000.0
        summary["spans_collected"] = len(COLLECTOR)
        return summary

    def _refresh_gauges(self) -> None:
        """Refresh every scrape-time gauge from its owning layer.

        Shared by ``GET /metrics`` scrapes and the health watchdog's
        collect hook, so rule samples and expositions both reflect
        current state (queue depth *and* SLO lag, store entry counts,
        live sessions), not last-touch state.
        """
        self.queue.stats()  # refreshes the repro_sched_jobs gauges
        self.queue.slo_snapshot()  # refreshes queue-age / lease gauges
        store_stats = self.store.stats()
        for kind in ("result", "stream", "ckpt"):
            _OBS_STORE_ENTRIES.set(store_stats[f"{kind}_entries"], kind=kind)
        _OBS_STORE_BYTES.set(store_stats["total_bytes"])
        _OBS_CACHE_ENTRIES.set(self.runner.cache.stats()["entries"])
        sessions = self._sessions.census()
        for state in ("active", "restored", "evicted"):
            _OBS_SESSIONS.set(sessions[state], state=state)

    def _get_metrics(self, tenant: TenantConfig | None) -> tuple[int, str]:
        """Prometheus text for ``GET /metrics`` (gauges refreshed first)."""
        self._refresh_gauges()
        return 200, REGISTRY.render()

    # -- health routes -----------------------------------------------------

    def _store_writable(self) -> bool:
        """Probe the artifact root with a real write + unlink."""
        probe = self.store.root / f".healthz-{uuid.uuid4().hex[:8]}"
        try:
            probe.write_bytes(b"")
            probe.unlink()
            return True
        except OSError:
            return False

    def _get_healthz(self, tenant: TenantConfig | None) -> tuple[int, dict]:
        """Componentwise health: 200 when everything is ok, 503 if not.

        When the background watchdog is not running (pure-handler use,
        or a service that was never started), a synchronous watchdog
        tick samples the rules' series and re-evaluates them first, so
        the report is current either way. Works with telemetry
        disabled too — the componentwise probes don't need the
        registry, there are just no alerts to fold in.
        """
        if self.watchdog is not None and not self.watchdog.running:
            self.watchdog.tick()
        slo = self.queue.slo_snapshot()
        report = component_health(
            self._store_writable(), slo, self._sessions.census(), self.engine
        )
        return (200 if report["status"] == "ok" else 503), self._envelope(report)

    def _get_alerts(self, tenant: TenantConfig | None) -> tuple[int, dict]:
        """Alert records with firing/resolved state (re-evaluated if idle)."""
        if self.engine is None:
            return 200, self._envelope(
                {"enabled": False, "alerts": [], "firing": []}
            )
        if self.watchdog is not None and not self.watchdog.running:
            self.watchdog.tick()
        return 200, self._envelope(
            {
                "enabled": True,
                "alerts": self.engine.alerts(),
                "firing": self.engine.firing(),
            }
        )

    def _get_run(
        self, tenant: TenantConfig | None, key: str
    ) -> tuple[int, dict]:
        # An ungranted key answers like a missing one: a tenant cannot
        # probe for the existence of other tenants' results.
        granted = tenant is None or self.store.is_granted(tenant.name, "result", key)
        stats = self.store.get_result(key) if granted else None
        if stats is None:
            return 404, self._envelope({"error": f"no stored run for key {key!r}"})
        return 200, self._envelope(
            {"key": key, "run": json.loads(ResultSet([stats]).to_json())["runs"][0]}
        )

    def _get_results(
        self,
        tenant: TenantConfig | None,
        limit: int | None,
        offset: int,
        filters: dict[str, Any],
    ) -> tuple[int, dict]:
        if tenant is None and not filters:
            # Unfiltered pages go through the index's LIMIT/OFFSET: one
            # page of artifact reads, however large the store is.
            total = self.store.count_results()
            results = self.store.load_results(limit=limit, offset=offset)
        else:
            # Filters need every row in memory, and a tenant sees only
            # its granted keys (its working set, not the whole store);
            # page *after* filtering so offset/limit walk the filtered
            # set.
            results = self.store.load_results()
            if tenant is not None:
                granted = self.store.granted_keys(tenant.name, "result")
                results = ResultSet(
                    [row for row in results if row.extra.get("spec_key") in granted]
                )
            if filters:
                try:
                    results = results.filter(**filters)
                except KeyError as exc:
                    return 400, self._envelope({"error": str(exc)})
            total = len(results)
            end = None if limit is None else offset + limit
            results = results[offset:end]
        payload = json.loads(results.to_json())
        payload["count"] = len(results)
        payload["total"] = total
        payload["filters"] = filters
        payload.update(limit=limit, offset=offset)
        return 200, self._envelope(payload)

    def _post_runs(self, tenant: TenantConfig | None, specs: list) -> tuple[int, dict]:
        specs = _parse_specs(specs)
        refusal = self._charge_cost(tenant, specs)
        if refusal is not None:
            return refusal
        # Per-request accounting via index probes, not global-counter
        # deltas: concurrent requests share the store's persistent
        # counters, so differencing them would attribute other
        # requests' lookups to this one. One probe per unique key —
        # "state at submission time".
        unique_keys = list(dict.fromkeys(spec.key() for spec in specs))
        hits = sum(1 for key in unique_keys if self.store.has_result(key))
        results = self.runner.run(specs)
        if tenant is not None:
            # Visibility grant, not a copy: the artifacts stay shared
            # and content-addressed across tenants.
            self.store.grant(tenant.name, "result", unique_keys)
        payload = json.loads(results.to_json())
        payload.update(
            {
                "keys": [spec.key() for spec in specs],
                "count": len(results),
                "store_hits": hits,
                "store_misses": len(unique_keys) - hits,
            }
        )
        return 200, self._envelope(payload)

    # -- streaming routes --------------------------------------------------

    @staticmethod
    def _session_key(session_id: str, tenant: TenantConfig | None) -> str:
        """The table/checkpoint key for a tenant's view of ``session_id``.

        Session ids are namespaced per tenant: tenant ``alpha`` opening
        ``s1`` and tenant ``beta`` opening ``s1`` are two unrelated
        sessions. That makes cross-tenant ids not merely unreadable but
        *uncolliding* — ``POST /streams`` with a foreign id opens your
        own fresh session instead of leaking a 409. Unambiguous because
        session ids may not contain ``/`` (validated on every route)
        while the separator is one.
        """
        return session_id if tenant is None else f"{tenant.name}/{session_id}"

    def _restore_into(
        self, session_key: str, entry: _SessionEntry, session_id: str
    ) -> tuple[int, dict] | None:
        """Restore a bookmarked session into ``entry`` (lock held).

        ``session_key`` is the tenant-namespaced lookup key;
        ``session_id`` is the caller-visible id used in error messages.
        Returns ``None`` on success, or the ``(status, payload)`` error
        pair when the id is unknown (404) or its checkpoint blob has
        been garbage-collected (410). A corrupt bookmark raises
        :class:`~repro.errors.CkptError`.
        """
        resumed = self.ckpt.resume(
            self.ckpt.stream_key(session_key), self.runner.miss_stream_for
        )
        if resumed is None:
            return self._no_session(session_id)
        if resumed.session is None:
            return 410, self._envelope(
                {
                    "error": f"session {session_id!r} cannot be restored: "
                    f"checkpoint {resumed.digest} was garbage-collected"
                }
            )
        entry.session = resumed.session
        entry.spec = resumed.spec
        entry.tenant = resumed.tenant
        entry.digest = resumed.digest
        entry.touched = time.monotonic()
        self._sessions.note_restored()
        return None

    def _no_session(self, session_id: str) -> tuple[int, dict]:
        return 404, self._envelope({"error": f"no streaming session {session_id!r}"})

    @contextmanager
    def _session_entry(self, key: str) -> Iterator[_SessionEntry]:
        """Yield the table entry for ``key`` with its lock held.

        The lock is held for the caller's whole body, so an
        advance-and-checkpoint is atomic per session while other
        sessions run in parallel. An entry evicted between lookup and
        lock acquisition is detected by its ``dead`` flag and simply
        re-fetched. An entry still empty when the body exits — by a
        return, an error reply or an exception — is a placeholder and
        is dropped, so later requests cannot mistake it for a live
        session.
        """
        while True:
            entry = self._sessions.get_or_create(key)
            with entry.lock:
                if entry.dead:
                    continue
                try:
                    yield entry
                finally:
                    if entry.session is None:
                        self._sessions.discard(key, entry)
                return

    @contextmanager
    def _locked_session(
        self, session_id: str, tenant: TenantConfig | None
    ) -> Iterator[tuple[_SessionEntry | None, tuple[int, dict] | None]]:
        """Yield ``(entry, error)`` with the entry's lock held.

        Exactly one of the pair is non-``None``. An entry not in memory
        is restored from its checkpoint first.
        """
        key = self._session_key(session_id, tenant)
        with self._session_entry(key) as entry:
            if entry.session is None:
                error = self._restore_into(key, entry, session_id)
                if error is not None:
                    yield None, error
                    return
            if tenant is not None and entry.tenant != tenant.name:
                # Defense in depth: keys are tenant-namespaced, so a
                # foreign session can't even be addressed — but a
                # mismatched record still answers like a missing
                # session rather than trusting the key alone.
                yield None, self._no_session(session_id)
                return
            entry.touched = time.monotonic()
            yield entry, None

    def _session_payload(
        self,
        session_id: str,
        session: ReplaySession,
        spec: RunSpec,
        **extra: object,
    ) -> dict:
        stats = annotate_stats(session.stats(), spec)
        return self._envelope(
            {
                "session_id": session_id,
                "spec_key": spec.key(),
                "offset": session.offset,
                "total": session.total,
                "remaining": session.remaining,
                "finished": session.finished,
                "stats": json.loads(ResultSet([stats]).to_json())["runs"][0],
                **extra,
            }
        )

    def _post_streams(
        self, tenant: TenantConfig | None, spec: dict, session_id: str | None
    ) -> tuple[int, dict]:
        """Open a suspendable streaming session for one spec."""
        (spec,) = _parse_specs([spec])
        if session_id is None:
            session_id = f"stream-{uuid.uuid4().hex[:12]}"
        self._sessions.evict_idle(self.max_idle_seconds)
        # The tenant-namespaced key means an id collision can only be
        # with the caller's *own* sessions: another tenant's identical
        # id lives under a different key, so no 409 (or any other
        # signal) ever reveals it.
        key = self._session_key(session_id, tenant)
        with self._session_entry(key) as entry:
            if entry.session is not None or self.ckpt.exists(
                self.ckpt.stream_key(key)
            ):
                return 409, self._envelope(
                    {"error": f"streaming session {session_id!r} already exists"}
                )
            session = ReplaySession(
                self.runner.miss_stream_for(spec),
                spec.build_prefetcher(),
                buffer_entries=spec.buffer_entries,
                max_prefetches_per_miss=spec.max_prefetches_per_miss,
            )
            owner = tenant.name if tenant is not None else None
            digest = self.ckpt.write(
                self.ckpt.stream_key(key), spec, session, owner
            )
            entry.session = session
            entry.spec = spec
            entry.tenant = owner
            entry.digest = digest
            entry.touched = time.monotonic()
            return 200, self._session_payload(
                session_id, session, spec, state_digest=digest
            )

    def _post_stream_advance(
        self, tenant: TenantConfig | None, session_id: str, count: int | None
    ) -> tuple[int, dict]:
        """Replay the next chunk of a session (all of it when ``count``
        is null), then checkpoint it.

        An advance that replays nothing (``count`` 0, or a finished
        session) leaves the state, hence its bookmark, as it is: the
        bookmark is rewritten only if the store lost it.
        """
        self._sessions.evict_idle(self.max_idle_seconds)
        with self._locked_session(session_id, tenant) as (entry, error):
            if error is not None:
                return error
            advanced = entry.session.advance(count)
            key = self.ckpt.stream_key(self._session_key(session_id, tenant))
            if advanced or not self.ckpt.exists(key):
                entry.digest = self.ckpt.write(
                    key, entry.spec, entry.session, entry.tenant
                )
            return 200, self._session_payload(
                session_id,
                entry.session,
                entry.spec,
                advanced=advanced,
                state_digest=entry.digest,
            )

    def _get_stream_stats(
        self, tenant: TenantConfig | None, session_id: str
    ) -> tuple[int, dict]:
        """Progress and statistics-so-far; restores an evicted session."""
        with self._locked_session(session_id, tenant) as (entry, error):
            if error is not None:
                return error
            return 200, self._session_payload(
                session_id, entry.session, entry.spec
            )

    # -- scheduler routes --------------------------------------------------

    def _post_jobs(
        self,
        tenant: TenantConfig | None,
        specs: list,
        sweep_id: str | None,
        max_attempts: int | None,
    ) -> tuple[int, dict]:
        """Enqueue a sweep; store-known specs are precompleted on the spot."""
        specs = _parse_specs(specs)
        if not specs:
            # An empty sweep does no work but would still claim the
            # sweep id (ownership, trace slot) — reject it outright.
            return 400, self._envelope(
                {"error": "'specs' must be a non-empty list"}
            )
        if sweep_id is None:
            sweep_id = f"sweep-{uuid.uuid4().hex[:12]}"
        owner = tenant.name if tenant is not None else None
        if tenant is not None:
            # Probe-hiding pre-check before the cost charge: a sweep id
            # owned by someone else answers exactly like a missing one,
            # and the tenant is not billed for the collision. The
            # authoritative check is the one inside ``queue.submit`` —
            # atomic with enqueueing, so ownership cannot be raced.
            known, recorded = self.queue.sweep_owner(sweep_id)
            if known and recorded != tenant.name:
                return 404, self._envelope({"error": f"no sweep {sweep_id!r}"})
        refusal = self._charge_cost(tenant, specs)
        if refusal is not None:
            return refusal
        # Remember the submitting request's trace context so claims of
        # this sweep's jobs can hand it to workers (one connected trace
        # per sweep across client, service, and the whole fleet).
        sweep_ctx = current_context()
        if sweep_ctx is not None:
            with self._sweep_traces_lock:
                self._sweep_traces[sweep_id] = sweep_ctx
                while len(self._sweep_traces) > self._sweep_traces_max:
                    self._sweep_traces.pop(
                        next(iter(self._sweep_traces)), None
                    )
        keys = [spec.key() for spec in specs]
        stored = {key for key in set(keys) if self.store.has_result(key)}
        try:
            jobs = self.queue.submit(
                sweep_id,
                [(key, spec.to_dict()) for key, spec in zip(keys, specs)],
                precompleted=stored,
                max_attempts=max_attempts,
                owner=owner,
            )
        except SweepOwnershipError:
            # Lost the race between the pre-check and the transaction.
            return 404, self._envelope({"error": f"no sweep {sweep_id!r}"})
        if tenant is not None:
            # Granted at submission, not completion: the submitting
            # tenant may read the rows the moment workers land them.
            self.store.grant(tenant.name, "result", list(dict.fromkeys(keys)))
        counts: dict[str, int] = {}
        for job in jobs:
            counts[job["state"]] = counts.get(job["state"], 0) + 1
        return 200, self._envelope(
            {
                "sweep_id": sweep_id,
                "total": len(jobs),
                "queued": counts.get("queued", 0),
                "precompleted": sum(
                    job["state"] == "done" and job["result_source"] == "store"
                    for job in jobs
                ),
                "states": counts,
                "jobs": [
                    {"id": job["id"], "spec_key": job["spec_key"], "state": job["state"]}
                    for job in jobs
                ],
            }
        )

    def _sweep_trace(self, sweep_id: str) -> str | None:
        with self._sweep_traces_lock:
            return self._sweep_traces.get(sweep_id)

    def _long_poll(
        self,
        tenant: TenantConfig | None,
        wait: float,
        attempt: Callable[[], Any],
        done: Callable[[Any], bool],
    ) -> Any:
        """``attempt()`` until ``done`` with its answer, for up to ``wait`` s.

        Between attempts the request thread sleeps on the job queue,
        which wakes it after every commit that could change the answer;
        ``wait`` is capped at :data:`MAX_WAIT_SECONDS`, and ``wait=0``
        makes one attempt. Returns the last answer. A server shutting
        down stops the wait at once.

        While it sleeps the request gives its admission slot back
        (:meth:`AdmissionController.park`), so blocked long-polls never
        crowd out other requests. It answers at once instead when its
        tenant already has its quota of parked requests, and with the
        last answer when the service sheds it on waking.
        """
        deadline = time.monotonic() + min(wait, MAX_WAIT_SECONDS)
        while True:
            seen = self.queue.version
            answer = attempt()
            remaining = deadline - time.monotonic()
            if done(answer) or remaining <= 0:
                return answer
            if not self.admission.park(tenant):
                return answer
            blocked = time.perf_counter()
            waiting = self.queue.wait(seen, remaining)
            _REQUEST.blocked += time.perf_counter() - blocked
            _REQUEST.holds_slot = self.admission.unpark(tenant)
            if not (waiting and _REQUEST.holds_slot):
                return answer

    def _post_claim(
        self,
        tenant: TenantConfig | None,
        worker_id: str,
        limit: int,
        lease_seconds: float | None,
        wait: float,
    ) -> tuple[int, dict]:
        """Lease queued jobs to a worker, store-probing each handout.

        With ``wait``, an empty queue holds the request until a job can
        be handed out or the wait runs out (an empty ``jobs`` list).
        """
        handout = self._long_poll(
            tenant, wait, lambda: self._claim(worker_id, limit, lease_seconds), bool
        )
        return 200, self._envelope({"worker_id": worker_id, "jobs": handout})

    def _claim(
        self, worker_id: str, limit: int, lease_seconds: float | None
    ) -> list[dict]:
        handout: list[dict] = []
        while len(handout) < limit:
            batch = self.queue.claim(
                worker_id,
                limit=limit - len(handout),
                lease_seconds=lease_seconds,
            )
            if not batch:
                break
            # Consult the store before handing a job out: a spec
            # another worker (or another sweep) already landed is
            # completed here, never replayed again.
            fresh: list[dict] = []
            stored: list[str] = []
            for job in batch:
                if self.store.has_result(job["spec_key"]):
                    stored.append(job["id"])
                else:
                    fresh.append(job)
            if stored:
                self.queue.complete(stored, worker_id, source="store")
            handout += [
                {
                    "id": job["id"],
                    "sweep_id": job["sweep_id"],
                    "spec_key": job["spec_key"],
                    "spec": job["spec"],
                    "attempts": job["attempts"],
                    "max_attempts": job["max_attempts"],
                    "lease_expires": job["lease_expires"],
                    "trace": self._sweep_trace(job["sweep_id"]),
                }
                for job in fresh
            ]
        return handout

    def _post_complete(
        self,
        tenant: TenantConfig | None,
        worker_id: str | None,
        results: list | None,
        job_id: str | None,
        run: dict | None,
        error: str | None,
    ) -> tuple[int, dict]:
        """Record job outcomes; result rows land in the store first.

        The body is one outcome (``job_id`` with its ``run`` row or its
        ``error``) or carries a ``results`` list of them, one per job of
        a claim. Every outcome is checked before anything is written:
        one malformed item is a 400 and one unknown job a 404, and
        neither lands any row of the body. Then the new rows are
        written with one ``put_results``, the jobs completed in one
        queue transaction, and the errors reported job by job. A
        single outcome answers with its own reply; a list with
        ``results``, the replies in item order.
        """
        if results is None:
            items = [{"job_id": job_id, "run": run, "error": error}]
        elif (job_id, run, error) != (None, None, None):
            raise ReproError("send either 'results' or one 'job_id' outcome")
        else:
            items = results
        checked = []
        for item in items:
            outcome = _values(_OUTCOME, item, "each 'results' item")
            job = self.queue.job(outcome["job_id"])
            if job is None:
                return 404, self._envelope(
                    {"error": f"no job {outcome['job_id']!r}"}
                )
            stats = None
            if outcome["error"] is None:
                stats = self._result_row(job, outcome["run"])
            checked.append((job, outcome["error"], stats))
        # Content-addressed write-back: the first completion of a spec
        # stores its row; duplicates (late workers, client retries, an
        # item listed twice) find it present.
        fresh: dict[str, tuple[RunSpec, PrefetchRunStats]] = {}
        for job, _, stats in checked:
            key = job["spec_key"]
            if stats is None or key in fresh or self.store.has_result(key):
                continue
            fresh[key] = (RunSpec.from_dict(job["spec"]), stats)
        if fresh:
            self.store.put_results(fresh.values())
        ran = [job["id"] for job, _, stats in checked if stats is not None]
        completed = iter(self.queue.complete(ran, worker_id, source="worker"))
        replies = []
        for job, failure, stats in checked:
            if stats is None:
                failed = self.queue.fail(job["id"], worker_id, error=failure)
                replies.append(
                    {
                        "id": job["id"],
                        "state": failed["state"],
                        "attempts": failed["attempts"],
                    }
                )
                continue
            outcome = next(completed)
            # ``stored`` goes to the first item of each row written here.
            replies.append(
                {
                    "id": job["id"],
                    "state": outcome["state"],
                    "duplicate": outcome["duplicate"],
                    "stored": fresh.pop(job["spec_key"], None) is not None,
                }
            )
        if results is None:
            return 200, self._envelope(replies[0])
        return 200, self._envelope({"results": replies})

    @staticmethod
    def _result_row(job: dict, run: dict | None) -> PrefetchRunStats:
        """The ``run`` row a worker delivered for ``job``, checked."""
        if run is None:
            raise ReproError(
                "request body needs a 'run' result object (or an 'error')"
            )
        try:
            stats = PrefetchRunStats(**run)
        except TypeError as exc:
            raise ReproError(f"malformed result row: {exc}") from exc
        if stats.extra.get("spec_key") != job["spec_key"]:
            raise ReproError(
                f"result row is for spec {stats.extra.get('spec_key')!r} "
                f"but job {job['id']} holds spec {job['spec_key']!r}"
            )
        return stats

    def _post_heartbeat(
        self,
        tenant: TenantConfig | None,
        worker_id: str,
        job_ids: list[str],
        lease_seconds: float | None,
    ) -> tuple[int, dict]:
        beat = self.queue.heartbeat(
            worker_id, job_ids, lease_seconds=lease_seconds
        )
        return 200, self._envelope(beat)

    def _post_cancel(
        self, tenant: TenantConfig | None, sweep_id: str
    ) -> tuple[int, dict]:
        if not self._owns_sweep(tenant, sweep_id):
            return 404, self._envelope({"error": f"no sweep {sweep_id!r}"})
        cancelled = self.queue.cancel(sweep_id)
        return 200, self._envelope({"sweep_id": sweep_id, "cancelled": cancelled})

    def _post_trace(
        self, tenant: TenantConfig | None, spans: list
    ) -> tuple[int, dict]:
        """Ingest spans shipped from a remote process (worker, client)."""
        accepted = COLLECTOR.ingest(spans)
        return 200, self._envelope({"accepted": accepted})

    def _get_trace(
        self, tenant: TenantConfig | None, trace_id: str | None
    ) -> tuple[int, dict]:
        """One trace's spans (``?trace_id=``) or summaries of all."""
        if trace_id is not None:
            spans = [span.to_dict() for span in COLLECTOR.spans(trace_id)]
            return 200, self._envelope(
                {"trace_id": trace_id, "count": len(spans), "spans": spans}
            )
        return 200, self._envelope({"traces": COLLECTOR.traces()})

    def _owns_sweep(
        self, tenant: TenantConfig | None, sweep_id: str
    ) -> bool:
        """Whether ``tenant`` may act on ``sweep_id`` (admins always may).

        Ownership is read from the job queue's persistent record, so a
        tenant keeps access to their own sweeps across service restarts
        while other tenants keep getting 404s for them.
        """
        if tenant is None:
            return True
        known, owner = self.queue.sweep_owner(sweep_id)
        return known and owner == tenant.name

    def _get_job(
        self, tenant: TenantConfig | None, job_id: str
    ) -> tuple[int, dict]:
        job = self.queue.job(job_id)
        # A foreign job answers like a missing one: job ids embed sweep
        # ids, so a 403 would leak which sweeps exist.
        if job is None or not self._owns_sweep(tenant, job["sweep_id"]):
            return 404, self._envelope({"error": f"no job {job_id!r}"})
        return 200, self._envelope({"job": job})

    def _get_progress(
        self, tenant: TenantConfig | None, sweep_id: str | None, wait: float
    ) -> tuple[int, dict]:
        """State counts; with ``wait``, held until nothing is pending,
        a job has failed or been cancelled, or the wait runs out."""
        # Per-sweep progress is owner-only; the unscoped aggregate is
        # open to every tenant (counts only, no spec material). The
        # ownership check comes before any wait: a foreign sweep must
        # answer as fast as a missing one.
        if sweep_id is not None and not self._owns_sweep(tenant, sweep_id):
            return 404, self._envelope({"error": f"no sweep {sweep_id!r}"})
        report = self._long_poll(
            tenant,
            wait,
            lambda: self.queue.progress(sweep_id),
            lambda report: not report["pending"]
            or report["failed"]
            or report["cancelled"],
        )
        return 200, self._envelope(report)


_SVC = ExperimentService
_LEASE = Field("lease_seconds", "number>0", None)
#: Long-poll bound in seconds (capped at MAX_WAIT_SECONDS); 0 answers at once.
_WAIT = Field("wait", "number>=0", 0)
#: One job outcome for ``POST /complete``: the body itself, or each
#: item of its ``results`` list.
_OUTCOME = (
    Field("job_id", "str"),
    Field("run", "object", None),
    Field("error", "str", None),
)

#: The service's routes: the single description of each one's method,
#: path, handler, admission class and the body/query fields it reads.
ROUTES: tuple[Route, ...] = (
    Route("GET", "/healthz", _SVC._get_healthz, "ops"),
    Route("GET", "/alerts", _SVC._get_alerts, "ops"),
    Route("GET", "/metrics", _SVC._get_metrics, "ops"),
    Route("GET", "/stats", _SVC._get_stats, "tenant"),
    Route(
        "GET", "/results", _SVC._get_results, "tenant",
        (
            Field("limit", "int>=0", None),
            Field("offset", "int>=0", 0),
            Field("filters", "filters"),
        ),
    ),
    Route("GET", "/runs/:key", _SVC._get_run, "tenant"),
    Route(
        "POST", "/runs", _SVC._post_runs, "tenant", (Field("specs", "list"),),
    ),
    Route(
        "POST", "/streams", _SVC._post_streams, "tenant",
        (Field("spec", "object"), Field("session_id", "id", None)),
    ),
    Route(
        "POST", "/streams/:id/advance", _SVC._post_stream_advance, "tenant",
        (Field("count", "int>=0", None),),
    ),
    Route("GET", "/streams/:id/stats", _SVC._get_stream_stats, "tenant"),
    Route(
        "POST", "/jobs", _SVC._post_jobs, "tenant",
        (
            Field("specs", "list"),
            Field("sweep_id", "id", None),
            Field("max_attempts", "int>=1", None),
        ),
    ),
    Route("GET", "/jobs/:id", _SVC._get_job, "tenant"),
    Route(
        "GET", "/progress", _SVC._get_progress, "tenant",
        (Field("sweep_id", "str", None), _WAIT),
    ),
    Route(
        "POST", "/cancel", _SVC._post_cancel, "tenant",
        (Field("sweep_id", "str"),),
    ),
    Route(
        "POST", "/claim", _SVC._post_claim, "worker",
        (Field("worker_id", "str"), Field("limit", "int>=1", 1), _LEASE, _WAIT),
    ),
    Route(
        "POST", "/complete", _SVC._post_complete, "worker",
        (
            Field("worker_id", "str", None),
            Field("results", "list", None),
            Field("job_id", "str", None),
            Field("run", "object", None),
            Field("error", "str", None),
        ),
    ),
    Route(
        "POST", "/heartbeat", _SVC._post_heartbeat, "worker",
        (Field("worker_id", "str"), Field("job_ids", "list[str]"), _LEASE),
    ),
    # Spans carry every tenant's sweep and job ids, so reading them is
    # fleet-wide like a claim; any tenant may ship its own spans.
    Route(
        "GET", "/trace", _SVC._get_trace, "worker",
        (Field("trace_id", "str", None),),
    ),
    Route("POST", "/trace", _SVC._post_trace, "tenant", (Field("spans", "list"),)),
)
_PATTERNS = [
    (route, re.compile(re.sub(r":\w+", "(.*)", route.template))) for route in ROUTES
]


class _RequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: on a kept-alive connection, Nagle would hold each
    # response until the client's delayed ACK of the previous one
    # (~40 ms per request).
    disable_nagle_algorithm = True

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._serve("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._serve("POST")

    def _serve(self, method: str) -> None:
        began = time.perf_counter()
        status, payload = self._exchange(method)
        if isinstance(payload, str):
            data = payload.encode()
            content_type = "text/plain; version=0.0.4"
        else:
            data = json.dumps(payload, sort_keys=True).encode() + b"\n"
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        retry_after = None if isinstance(payload, str) else payload.get("retry_after")
        if retry_after is not None:
            # The header is integer seconds per RFC 9110; the payload
            # keeps the precise float for clients that parse JSON.
            self.send_header("Retry-After", str(max(1, math.ceil(retry_after))))
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        _LOG.info(
            "%s %s %s %s %.1fms",
            self.address_string(),
            method,
            self.path,
            status,
            (time.perf_counter() - began) * 1000.0,
        )

    def _exchange(self, method: str) -> tuple[int, Any]:
        """Read and frame the request, then hand it to the service.

        A ``POST`` body is hardened against hostile framing: a
        malformed or negative ``Content-Length`` is a 400 and an
        oversized one a 413, both before reading a single body byte.
        The connection is closed on these paths — the unread body
        would otherwise be parsed as the next request on the
        keep-alive socket.
        """
        body = None
        if method == "POST":
            raw_length = self.headers.get("Content-Length", "0")
            try:
                length = int(raw_length)
            except ValueError:
                length = -1
            if length < 0:
                self.close_connection = True
                return 400, ExperimentService._envelope(
                    {"error": f"malformed Content-Length header {raw_length!r}"}
                )
            if length > MAX_BODY_BYTES:
                self.close_connection = True
                return 413, ExperimentService._envelope(
                    {
                        "error": f"request body of {length} bytes exceeds "
                        f"the {MAX_BODY_BYTES} byte cap"
                    }
                )
            raw = self.rfile.read(length)
            try:
                body = json.loads(raw) if raw else None
            except json.JSONDecodeError as exc:
                return 400, ExperimentService._envelope(
                    {"error": f"request body is not JSON: {exc}"}
                )
        parsed = urlparse(self.path)
        return self.server.service.handle(
            method,
            parsed.path,
            dict(parse_qsl(parsed.query)),
            body,
            trace_parent=self.headers.get(TRACE_HEADER),
            authorization=self.headers.get("Authorization"),
        )

    def log_message(self, format: str, *args: object) -> None:
        # http.server's own lines (error responses, malformed requests)
        # go through the structured logger instead of being discarded —
        # quiet by default, visible with --verbose or REPRO_OBS_LOG.
        _LOG.debug("%s %s", self.address_string(), format % args)


class ExperimentServer(ThreadingHTTPServer):
    """Threading HTTP server bound to one :class:`ExperimentService`."""

    daemon_threads = True
    # The stdlib default listen backlog (5) resets connections under
    # concurrent load before admission control ever sees them; shedding
    # decisions belong to the AdmissionController, not the kernel.
    request_queue_size = 128

    def __init__(
        self,
        address: tuple[str, int],
        service: ExperimentService,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self.verbose = verbose
        if verbose:
            enable_console("info")
        super().__init__(address, _RequestHandler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def handle_error(self, request: Any, client_address: Any) -> None:
        """A client that hangs up before its answer is written is not an
        error: one log line, no traceback. Anything else goes to the
        stdlib handler."""
        exc = sys.exc_info()[1]
        if isinstance(exc, (BrokenPipeError, ConnectionResetError)):
            _LOG.info("client %s hung up: %s", client_address[0], exc)
            return
        super().handle_error(request, client_address)

    def server_close(self) -> None:
        """End blocked long-polls, tear down sockets, then the service's
        watchdog.

        A long-poll still blocked answers at once with what it has,
        instead of outliving the server and touching a closed queue.
        """
        self.service.queue.stop_waiting()
        super().server_close()
        self.service.close()


def make_server(
    store: ExperimentStore | str,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 0,
    verbose: bool = False,
    tenants: Iterable[TenantConfig] | None = None,
    max_inflight: int = 64,
    admission: AdmissionController | None = None,
) -> ExperimentServer:
    """Build a ready-to-run server (``port=0`` picks a free port).

    The health watchdog starts here (when telemetry is enabled): a
    served store samples its metrics and evaluates SLO rules until
    ``server_close()``.

    With no ``tenants`` the service runs open (anonymous, unmetered
    rates) but still sheds load past ``max_inflight`` plus the
    controller's queue. Pass a prebuilt ``admission`` controller to
    tune the queue and shed hints; it overrides ``tenants`` and
    ``max_inflight``.
    """
    if not isinstance(store, ExperimentStore):
        store = ExperimentStore(store)
    runner = Runner(workers=workers, cache=MissStreamCache(), store=store)
    if admission is None:
        admission = AdmissionController(
            tenants=tuple(tenants or ()), max_inflight=max_inflight
        )
    service = ExperimentService(store, runner, admission=admission)
    if service.watchdog is not None:
        service.watchdog.start()
    return ExperimentServer((host, port), service, verbose)


def serve(
    store: ExperimentStore | str,
    tenant_config: str | None = None,
    **options: Any,
) -> int:
    """Blocking CLI entry point: print the address and serve forever.

    ``options`` are :func:`make_server` keyword arguments; the tenant
    list is loaded from the ``tenant_config`` file, if one is given.
    """
    tenants = load_tenant_config(tenant_config) if tenant_config else ()
    server = make_server(store, tenants=tenants, **options)
    mode = f"{len(tenants)} tenants" if tenants else "open access"
    print(
        f"repro-tlb service on {server.url} "
        f"(store: {server.service.store.root}, "
        f"workers: {server.service.runner.workers}, {mode})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.server_close()
    return 0
