"""The experiment query service: routing, handlers, HTTP plumbing.

:class:`ExperimentService` is the pure request handler — method + path
+ query + body in, ``(status, payload)`` out — so every route is unit
testable without sockets. :func:`make_server` wraps it in a threading
stdlib HTTP server; :func:`serve` is the blocking CLI entry point.

Execution goes through a store-backed
:class:`~repro.run.runner.Runner`, so ``POST /runs`` serves previously
computed specs straight from the store and persists anything it had to
simulate — submitting the same batch twice costs one simulation pass,
total.

The service also hosts the distributed sweep scheduler: a persistent
:class:`~repro.sched.queue.JobQueue` (stored next to the experiment
artifacts as ``<store>/jobs.sqlite``) behind ``POST /jobs`` / ``/claim``
/ ``/complete`` / ``/heartbeat`` and ``GET /jobs/<id>`` /
``/progress``. Submission probes the store so already-computed specs
never enter the queue, claims re-probe it so a spec landed mid-sweep is
never handed out twice, and completions write rows back through the
store — content-addressed and deduplicated.

Streaming replay lives under ``/streams``: ``POST /streams`` opens a
suspendable :class:`~repro.ckpt.ReplaySession` for one spec, chunked
``POST /streams/<id>/advance`` replays the next N miss entries, and
``GET /streams/<id>/stats`` reports progress and statistics so far.
Every advance checkpoints the session (content-addressed snapshot +
descriptor record) through the store's ``ckpt`` artifacts, so sessions
survive idle eviction *and* full server restarts: an unknown session id
is restored from its persisted snapshot on the next touch, and the
final statistics are byte-identical to a single-shot replay no matter
how the stream was chunked or interrupted.

Health lives under ``GET /healthz`` (componentwise: store writable,
queue lag, worker leases, live sessions; 200 ok / 503 degraded) and
``GET /alerts`` (SLO alert records with firing→resolved state). When
telemetry is enabled the service also journals registry snapshots to
``<store>/telemetry.sqlite`` on a watchdog cadence, so latency and
queue history survive restarts and feed ``repro-tlb top`` trends.

Every request passes through an
:class:`~repro.service.admission.AdmissionController` first: API
tokens map to per-tenant namespaces (tenant-scoped result, stream, and
sweep visibility over the shared content-addressed artifacts), each
tenant has a token-bucket request rate and a sweep cost budget checked
before dispatch, and a bounded in-flight pool sheds overload with
``429`` + ``Retry-After`` instead of letting the threading server pile
up handler threads. The ops routes (``/healthz``, ``/alerts``,
``/metrics``) bypass admission so health probes keep answering while
the service sheds. With no tenants configured the service runs open
(anonymous, unlimited rate) exactly as before — only the in-flight
bound applies.
"""

from __future__ import annotations

import json
import math
import threading
import time
import uuid
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Iterable, Iterator
from urllib.parse import parse_qsl, unquote, urlparse

from repro.ckpt import CheckpointManager, ReplaySession, SessionSnapshot, verify_resume
from repro.errors import CkptError, ReproError, StoreError, SweepOwnershipError
from repro.obs import (
    COLLECTOR,
    REGISTRY,
    TRACE_HEADER,
    HealthWatchdog,
    MetricsJournal,
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

_KNOWN_ROUTES = frozenset(
    (
        "/stats", "/results", "/progress", "/runs", "/jobs", "/claim",
        "/complete", "/heartbeat", "/cancel", "/streams", "/metrics", "/trace",
        "/healthz", "/alerts",
    )
)

#: Stream sub-route verbs the dispatcher actually serves. Anything else
#: under ``/streams/<id>/`` is a 404 and must not mint its own label.
_STREAM_VERBS = frozenset(("advance", "stats"))

#: Routes that bypass admission entirely: health probes and the
#: metrics scrape must keep answering while the service sheds load —
#: ``wait_healthy`` is exactly how operators watch a shedding service
#: recover. (``/metrics`` is served before ``handle()`` but is listed
#: for completeness.)
_OPS_ROUTES = frozenset(("/healthz", "/alerts", "/metrics"))

#: Routes reserved for worker-capable tenants: the fleet protocol
#: hands out other tenants' specs, so a plain (non-worker) token gets
#: 403 here instead of a cross-tenant view.
_WORKER_ROUTES = frozenset(("/claim", "/complete", "/heartbeat"))

_LOG = get_logger("service")


def _route_label(path: str) -> str:
    """Collapse a request path onto its route template.

    Every unroutable path — including unknown ``/streams/<id>/<verb>``
    verbs — shares the single ``<unknown>`` label, so a client probing
    arbitrary paths cannot grow the ``/metrics`` exposition: label
    cardinality is bounded by the route table, not by request traffic.
    """
    if path.startswith("/runs/"):
        return "/runs/:key"
    if path.startswith("/jobs/"):
        return "/jobs/:id"
    if path.startswith("/streams/"):
        _, _, verb = path[len("/streams/"):].partition("/")
        if verb in _STREAM_VERBS:
            return f"/streams/:id/{verb}"
        return "<unknown>"
    return path if path in _KNOWN_ROUTES else "<unknown>"


def _coerce(value: str) -> Any:
    """Best-effort typing for query-string values (int, float, str)."""
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


class _SessionEntry:
    """One streaming session's slot in the sharded table.

    ``lock`` serializes everything that mutates *this* session —
    advance, checkpoint, restore — while other sessions proceed in
    parallel. ``dead`` marks an entry that has been evicted or
    discarded after a holder fetched it but before it acquired the
    lock: the holder must drop it and fetch a fresh entry.
    """

    __slots__ = ("lock", "session", "spec", "tenant", "touched", "dead")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.session: ReplaySession | None = None
        self.spec: RunSpec | None = None
        self.tenant: str | None = None
        self.touched = time.monotonic()
        self.dead = False


class _SessionShard:
    __slots__ = ("lock", "entries")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.entries: dict[str, _SessionEntry] = {}


class _SessionTable:
    """Sharded session map with per-session locks.

    Replaces the single service-wide ``_streams_lock`` RLock that
    serialized every ``/streams`` request: shard locks are held only
    for dict lookups (microseconds), and the per-entry locks serialize
    work on one session without blocking any other. Lock ordering
    rule: a shard lock is never held while *blocking* on an entry lock
    (eviction uses a non-blocking try-acquire), so the two layers
    cannot deadlock.
    """

    def __init__(self, shards: int = 16) -> None:
        self._shards = [_SessionShard() for _ in range(max(1, shards))]
        self._stats_lock = threading.Lock()
        self.restored = 0
        self.evicted = 0

    def _shard(self, session_id: str) -> _SessionShard:
        return self._shards[hash(session_id) % len(self._shards)]

    def get_or_create(self, session_id: str) -> _SessionEntry:
        """The live entry for ``session_id`` (a fresh one if absent/dead)."""
        shard = self._shard(session_id)
        with shard.lock:
            entry = shard.entries.get(session_id)
            if entry is None or entry.dead:
                entry = _SessionEntry()
                shard.entries[session_id] = entry
            return entry

    def discard(self, session_id: str, entry: _SessionEntry) -> None:
        """Drop ``entry`` (placeholder cleanup); marks it dead."""
        shard = self._shard(session_id)
        with shard.lock:
            if shard.entries.get(session_id) is entry:
                del shard.entries[session_id]
        entry.dead = True

    def __contains__(self, session_id: str) -> bool:
        shard = self._shard(session_id)
        with shard.lock:
            entry = shard.entries.get(session_id)
            return entry is not None and entry.session is not None

    def clear(self) -> None:
        """Forget every live session (tests simulate memory loss)."""
        for shard in self._shards:
            with shard.lock:
                for entry in shard.entries.values():
                    entry.dead = True
                    entry.session = None
                shard.entries.clear()

    def note_restored(self) -> None:
        with self._stats_lock:
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
        evicted = 0
        for shard in self._shards:
            with shard.lock:
                stale = [
                    (session_id, entry)
                    for session_id, entry in shard.entries.items()
                    if entry.session is not None
                    and now - entry.touched > max_idle_seconds
                ]
            for session_id, entry in stale:
                if not entry.lock.acquire(blocking=False):
                    continue
                try:
                    if (
                        entry.session is not None
                        and now - entry.touched > max_idle_seconds
                    ):
                        with shard.lock:
                            if shard.entries.get(session_id) is entry:
                                del shard.entries[session_id]
                        entry.dead = True
                        entry.session = None
                        evicted += 1
                finally:
                    entry.lock.release()
        if evicted:
            with self._stats_lock:
                self.evicted += evicted
        return evicted

    def census(self) -> dict[str, int]:
        """Live/restored/evicted counts for stats, healthz, gauges."""
        active = 0
        for shard in self._shards:
            with shard.lock:
                active += sum(
                    1 for entry in shard.entries.values()
                    if entry.session is not None
                )
        with self._stats_lock:
            return {
                "active": active,
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
        watchdog_interval_seconds: cadence of the background health
            watchdog (telemetry sampling + SLO evaluation). The
            watchdog is *constructed* here but only *started* by
            :func:`make_server`, so pure-handler tests stay
            single-threaded and drive ``GET /healthz`` synchronously.
        admission: the admission controller every non-ops request
            passes through; defaults to an open-mode controller
            (anonymous, rate-unlimited, in-flight bounded). Configure
            tenants for token auth + per-tenant budgets.

    When telemetry is enabled, the service owns a
    :class:`~repro.obs.journal.MetricsJournal` at
    ``<store root>/telemetry.sqlite`` (GC-exempt, survives restarts)
    and a :class:`~repro.obs.rules.RuleEngine` over
    :func:`~repro.obs.rules.default_rules`; ``REPRO_OBS_DISABLED``
    leaves all three of ``journal``/``engine``/``watchdog`` as
    ``None`` and ``GET /healthz`` falls back to direct probes only.
    """

    def __init__(
        self,
        store: ExperimentStore,
        runner: Runner | None = None,
        queue: JobQueue | None = None,
        max_idle_seconds: float = 300.0,
        watchdog_interval_seconds: float = 5.0,
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
        # Sharded session table with per-session locks: sessions mutate
        # under advance, so each one is serialized by its own entry
        # lock — but thousands of concurrent streams no longer funnel
        # through one service-wide lock.
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
        self.journal: MetricsJournal | None = None
        self.engine: RuleEngine | None = None
        self.watchdog: HealthWatchdog | None = None
        if is_enabled():
            self.journal = MetricsJournal(store.journal_path)
            self.engine = RuleEngine(self.journal, default_rules())
            self.watchdog = HealthWatchdog(
                self.journal,
                self.engine,
                interval_seconds=watchdog_interval_seconds,
                collect=self._refresh_gauges,
            )

    def close(self) -> None:
        """Stop the watchdog and close the telemetry journal.

        The store, queue, and runner are caller-owned; only the
        observability resources this service constructed are torn
        down. Safe to call more than once.
        """
        if self.watchdog is not None:
            self.watchdog.stop()
        if self.journal is not None:
            self.journal.close()

    # -- dispatch ----------------------------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        query: dict[str, str] | None = None,
        body: dict | None = None,
        trace_parent: str | None = None,
        authorization: str | None = None,
    ) -> tuple[int, dict]:
        """Dispatch one request; never raises — errors become payloads.

        ``trace_parent`` is the caller's ``X-Repro-Trace`` context (if
        any): the request span — and everything the handler does under
        it, replays and store writes included — joins the caller's
        trace instead of starting a fresh one. ``authorization`` is
        the raw ``Authorization`` header, resolved to a tenant by the
        admission controller before any route runs.
        """
        query = query or {}
        route = _route_label(path)
        began = time.perf_counter()
        with bind_context(trace_parent):
            with trace("http.request", method=method, route=route) as span:
                status, payload = self._admit(
                    method, path, query, body, authorization
                )
                span.attrs["status"] = status
        _OBS_HTTP_REQUESTS.inc(method=method, route=route, status=str(status))
        _OBS_HTTP_SECONDS.observe(
            time.perf_counter() - began, method=method, route=route
        )
        return status, payload

    def _admit(
        self,
        method: str,
        path: str,
        query: dict[str, str],
        body: dict | None,
        authorization: str | None,
    ) -> tuple[int, dict]:
        """Admission gauntlet: auth → capability → rate → slot → route.

        A 429 from any stage carries ``retry_after`` (seconds) in the
        payload, which the HTTP layer mirrors into a ``Retry-After``
        header. A shed or limited request never reaches a handler, so
        shedding is cheap by construction.
        """
        if path in _OPS_ROUTES:
            # Ops routes skip admission entirely — and run with admin
            # (tenant-unscoped) visibility, which they don't use.
            return self._dispatch(method, path, query, body, None)
        tenant, auth_error = self.admission.authenticate(authorization)
        if auth_error is not None:
            return 401, self._envelope({"error": auth_error})
        if (
            tenant is not None
            and path in _WORKER_ROUTES
            and not tenant.worker
        ):
            self.admission.note(tenant.name, "forbidden")
            return 403, self._envelope(
                {
                    "error": f"tenant {tenant.name!r} is not worker-capable; "
                    f"{path} requires a worker token"
                }
            )
        wait = self.admission.check_rate(tenant)
        if wait > 0.0:
            return 429, self._envelope(
                {
                    "error": "request rate limit exceeded",
                    "retry_after": round(wait, 3),
                }
            )
        shed = self.admission.try_enter(tenant)
        if shed is not None:
            return 429, self._envelope(
                {
                    "error": "service at capacity, request shed",
                    "retry_after": round(shed, 3),
                }
            )
        try:
            self.admission.note(
                tenant.name if tenant is not None else None, "admitted"
            )
            return self._dispatch(method, path, query, body, tenant)
        finally:
            self.admission.leave()

    def _dispatch(
        self,
        method: str,
        path: str,
        query: dict[str, str],
        body: dict | None,
        tenant: TenantConfig | None = None,
    ) -> tuple[int, dict]:
        try:
            if method == "GET" and path == "/stats":
                return self._get_stats()
            if method == "GET" and path == "/healthz":
                return self._get_healthz()
            if method == "GET" and path == "/alerts":
                return self._get_alerts()
            if method == "GET" and path == "/results":
                return self._get_results(query, tenant)
            if method == "GET" and path == "/progress":
                return self._get_progress(query, tenant)
            if method == "GET" and path.startswith("/runs/"):
                return self._get_run(path[len("/runs/"):], tenant)
            if method == "GET" and path.startswith("/jobs/"):
                return self._get_job(path[len("/jobs/"):], tenant)
            if method == "GET" and path.startswith("/streams/"):
                session_id, _, verb = path[len("/streams/"):].partition("/")
                if verb == "stats":
                    return self._get_stream_stats(unquote(session_id), tenant)
                return 404, self._envelope(
                    {"error": f"unknown route {method} {path}"}
                )
            if method == "POST" and path == "/streams":
                return self._post_streams(
                    body if body is not None else {}, tenant
                )
            if method == "POST" and path.startswith("/streams/"):
                session_id, _, verb = path[len("/streams/"):].partition("/")
                if verb == "advance":
                    return self._post_stream_advance(
                        unquote(session_id),
                        body if body is not None else {},
                        tenant,
                    )
                return 404, self._envelope(
                    {"error": f"unknown route {method} {path}"}
                )
            if method == "POST" and path == "/runs":
                return self._post_runs(body if body is not None else {}, tenant)
            if method == "POST" and path == "/jobs":
                return self._post_jobs(body if body is not None else {}, tenant)
            if method == "POST" and path == "/claim":
                return self._post_claim(body if body is not None else {})
            if method == "POST" and path == "/complete":
                return self._post_complete(body if body is not None else {})
            if method == "POST" and path == "/heartbeat":
                return self._post_heartbeat(body if body is not None else {})
            if method == "POST" and path == "/cancel":
                return self._post_cancel(body if body is not None else {}, tenant)
            if method == "POST" and path == "/trace":
                return self._post_trace(body if body is not None else {})
            if method == "GET" and path == "/trace":
                return self._get_trace(query)
            return 404, self._envelope({"error": f"unknown route {method} {path}"})
        except (StoreError, CkptError) as exc:
            # A corrupt artifact (result row or checkpoint blob) is a
            # server-side problem, not a bad request.
            return 500, self._envelope({"error": str(exc)})
        except ReproError as exc:
            # Library-validated input (unknown workload/mechanism, bad
            # knob values, ...) is the client's mistake.
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

    # -- routes ------------------------------------------------------------

    def _get_stats(self) -> tuple[int, dict]:
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
        collect hook, so journal samples and expositions both reflect
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
        self.admission.refresh_gauges()

    def scrape_metrics(self) -> str:
        """Prometheus text for ``GET /metrics`` (gauges refreshed first)."""
        self._refresh_gauges()
        return REGISTRY.render()

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

    def _get_healthz(self) -> tuple[int, dict]:
        """Componentwise health: 200 when everything is ok, 503 if not.

        When the background watchdog is not running (pure-handler use,
        or a service that was never started), a synchronous watchdog
        tick samples the journal and re-evaluates the rules first, so
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

    def _get_alerts(self) -> tuple[int, dict]:
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
        self, key: str, tenant: TenantConfig | None = None
    ) -> tuple[int, dict]:
        if not key or "/" in key:
            return 400, self._envelope({"error": f"malformed run key {key!r}"})
        if tenant is not None and not self.store.is_granted(
            tenant.name, "result", key
        ):
            # Same answer as a missing key: a tenant cannot probe for
            # the existence of other tenants' results.
            return 404, self._envelope({"error": f"no stored run for key {key!r}"})
        stats = self.store.get_result(key)
        if stats is None:
            return 404, self._envelope({"error": f"no stored run for key {key!r}"})
        return 200, self._envelope(
            {"key": key, "run": json.loads(ResultSet([stats]).to_json())["runs"][0]}
        )

    def _get_results(
        self, query: dict[str, str], tenant: TenantConfig | None = None
    ) -> tuple[int, dict]:
        query = dict(query)
        page = {}
        for name, default in (("limit", None), ("offset", 0)):
            raw = query.pop(name, None)
            if raw is None:
                page[name] = default
                continue
            value = _coerce(raw)
            if not isinstance(value, int) or value < 0:
                return 400, self._envelope(
                    {"error": f"'{name}' must be a non-negative integer, got {raw!r}"}
                )
            page[name] = value
        filters = {name: _coerce(value) for name, value in query.items()}
        if tenant is not None:
            # Tenant-scoped view: only granted keys, filtered and paged
            # in memory (the grant set is the tenant's working set, not
            # the whole store).
            granted = self.store.granted_keys(tenant.name, "result")
            results = ResultSet(
                [
                    row
                    for row in self.store.load_results()
                    if row.extra.get("spec_key") in granted
                ]
            )
            if filters:
                try:
                    results = results.filter(**filters)
                except KeyError as exc:
                    return 400, self._envelope({"error": str(exc)})
            total = len(results)
            if page["offset"]:
                results = results[page["offset"]:]
            if page["limit"] is not None:
                results = results[:page["limit"]]
        elif filters:
            # Filters need every row in memory; page *after* filtering
            # so offset/limit walk the filtered set.
            try:
                results = self.store.load_results().filter(**filters)
            except KeyError as exc:
                return 400, self._envelope({"error": str(exc)})
            total = len(results)
            if page["offset"]:
                results = results[page["offset"]:]
            if page["limit"] is not None:
                results = results[:page["limit"]]
        else:
            # Unfiltered pages go through the index's LIMIT/OFFSET: one
            # page of artifact reads, however large the store is.
            total = self.store.count_results()
            results = self.store.load_results(
                limit=page["limit"], offset=page["offset"]
            )
        payload = json.loads(results.to_json())
        payload["count"] = len(results)
        payload["total"] = total
        payload["filters"] = filters
        payload.update(page)
        return 200, self._envelope(payload)

    def _post_runs(
        self, body: dict, tenant: TenantConfig | None = None
    ) -> tuple[int, dict]:
        if not isinstance(body, dict):
            return 400, self._envelope(
                {"error": f"request body must be an object, got {type(body).__name__}"}
            )
        raw_specs = body.get("specs")
        if not isinstance(raw_specs, list):
            return 400, self._envelope(
                {"error": "request body needs a 'specs' list of RunSpec objects"}
            )
        workers = body.get("workers", 0)
        if not isinstance(workers, int) or workers < 0:
            return 400, self._envelope(
                {"error": f"'workers' must be a non-negative integer, got {workers!r}"}
            )
        try:
            specs = [RunSpec.from_dict(raw) for raw in raw_specs]
        except (TypeError, ValueError) as exc:
            # Covers ConfigurationError plus raw type mistakes (e.g. a
            # string scale) the dataclass validators trip over.
            return 400, self._envelope({"error": str(exc)})
        # Sweep cost is charged *before* dispatch: one request, N specs
        # of work. Nothing has executed yet, so a 429 here is free to
        # retry once the budget refills.
        cost_wait = self.admission.charge_cost(tenant, len(specs))
        if cost_wait > 0.0:
            return 429, self._envelope(
                {
                    "error": f"sweep cost budget exhausted "
                    f"({len(specs)} specs requested)",
                    "retry_after": round(cost_wait, 3),
                }
            )
        runner = self.runner
        if workers > 1:
            runner = Runner(workers=workers, cache=self.runner.cache, store=self.store)
        # Per-request accounting via index probes, not global-counter
        # deltas: concurrent requests share the store's persistent
        # counters, so differencing them would attribute other
        # requests' lookups to this one. One probe per unique key —
        # "state at submission time".
        unique_keys = list(dict.fromkeys(spec.key() for spec in specs))
        hits = sum(1 for key in unique_keys if self.store.has_result(key))
        results = runner.run(specs)
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

    def _checkpoint_session(
        self,
        session_key: str,
        spec: RunSpec,
        session: ReplaySession,
        tenant: str | None = None,
    ) -> str:
        """Persist the session's snapshot and descriptor; returns the digest.

        Blob first, record second: a crash between the writes leaves at
        worst an orphan blob, never a record pointing at nothing newer
        than the previous checkpoint. The owning tenant rides in the
        descriptor record, so scoping survives eviction and restarts.
        """
        digest = self.ckpt.save(session.snapshot())
        self.ckpt.save_session(
            session_key,
            {
                "spec": spec.to_dict(),
                "spec_key": spec.key(),
                "stream_offset": session.offset,
                "state_digest": digest,
                "tenant": tenant,
            },
        )
        return digest

    def _restore_into(
        self, session_key: str, entry: _SessionEntry, session_id: str
    ) -> tuple[int, dict] | None:
        """Restore a persisted session into ``entry`` (lock held).

        ``session_key`` is the tenant-namespaced lookup key;
        ``session_id`` is the caller-visible id used in error messages.
        Returns ``None`` on success, or the ``(status, payload)`` error
        pair when the id is unknown (404) or its checkpoint blob has
        been garbage-collected (410). A record that disagrees with its
        snapshot or spec raises :class:`~repro.errors.CkptError`.
        """
        record = self.ckpt.load_session(session_key)
        if record is None:
            return 404, self._envelope(
                {"error": f"no streaming session {session_id!r}"}
            )
        digest = record.get("state_digest")
        if not isinstance(digest, str):
            raise CkptError(
                f"corrupt session record {session_id!r}: no state digest"
            )
        snap = self.ckpt.load(digest)
        if snap is None:
            return 410, self._envelope(
                {
                    "error": f"session {session_id!r} cannot be restored: "
                    f"checkpoint {digest} was garbage-collected"
                }
            )
        if not isinstance(snap, SessionSnapshot):
            raise CkptError(
                f"session {session_id!r} points at a {type(snap).__name__}, "
                "not a session snapshot"
            )
        try:
            spec = RunSpec.from_dict(record.get("spec"))
        except (TypeError, ValueError) as error:
            # The record came from our own store, so a spec that no
            # longer parses is corruption, not a client mistake.
            raise CkptError(
                f"corrupt session record {session_id!r}: {error}"
            ) from error
        # The record must describe the snapshot it points at and the
        # spec it carries; otherwise resuming would replay another run.
        verify_resume(record, snap, spec)
        entry.session = ReplaySession.resume(
            snap, self.runner.miss_stream_for(spec), spec.build_prefetcher()
        )
        entry.spec = spec
        entry.tenant = record.get("tenant")
        entry.touched = time.monotonic()
        self._sessions.note_restored()
        return None

    @contextmanager
    def _locked_session(
        self, session_id: str, tenant: TenantConfig | None
    ) -> Iterator[tuple[_SessionEntry | None, tuple[int, dict] | None]]:
        """Yield ``(entry, error)`` with the entry's lock held.

        Exactly one of the pair is non-``None``. The lock is held for
        the caller's whole body, so an advance-and-checkpoint is atomic
        per session while other sessions run in parallel. An entry
        evicted between lookup and lock acquisition is detected by its
        ``dead`` flag and simply re-fetched (the restore path then
        brings it back from its checkpoint).
        """
        if not session_id or "/" in session_id:
            # No such id can ever be created (``POST /streams`` rejects
            # them), and a percent-encoded ``/`` must not reach the
            # tenant-namespaced key where it could forge a separator.
            yield None, (
                400,
                self._envelope({"error": f"malformed session id {session_id!r}"}),
            )
            return
        key = self._session_key(session_id, tenant)
        while True:
            entry = self._sessions.get_or_create(key)
            with entry.lock:
                if entry.dead:
                    continue
                if entry.session is None:
                    try:
                        error = self._restore_into(key, entry, session_id)
                    except BaseException:
                        self._sessions.discard(key, entry)
                        raise
                    if error is not None:
                        self._sessions.discard(key, entry)
                        yield None, error
                        return
                if tenant is not None and entry.tenant != tenant.name:
                    # Defense in depth: keys are tenant-namespaced, so
                    # a foreign session can't even be addressed — but a
                    # mismatched record still answers like a missing
                    # session rather than trusting the key alone.
                    yield None, (
                        404,
                        self._envelope(
                            {"error": f"no streaming session {session_id!r}"}
                        ),
                    )
                    return
                entry.touched = time.monotonic()
                yield entry, None
                return

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
        self, body: dict, tenant: TenantConfig | None = None
    ) -> tuple[int, dict]:
        """Open a suspendable streaming session for one spec."""
        if not isinstance(body, dict):
            return 400, self._envelope(
                {"error": f"request body must be an object, got {type(body).__name__}"}
            )
        raw_spec = body.get("spec")
        if not isinstance(raw_spec, dict):
            return 400, self._envelope(
                {"error": "request body needs a 'spec' RunSpec object"}
            )
        try:
            spec = RunSpec.from_dict(raw_spec)
        except (TypeError, ValueError) as exc:
            return 400, self._envelope({"error": str(exc)})
        session_id = body.get("session_id")
        if session_id is None:
            session_id = f"stream-{uuid.uuid4().hex[:12]}"
        if not isinstance(session_id, str) or not session_id or "/" in session_id:
            return 400, self._envelope(
                {"error": f"malformed session id {session_id!r}"}
            )
        self._sessions.evict_idle(self.max_idle_seconds)
        # The tenant-namespaced key means an id collision can only be
        # with the caller's *own* sessions: another tenant's identical
        # id lives under a different key, so no 409 (or any other
        # signal) ever reveals it.
        key = self._session_key(session_id, tenant)
        while True:
            entry = self._sessions.get_or_create(key)
            with entry.lock:
                if entry.dead:
                    continue
                try:
                    if (
                        entry.session is not None
                        or self.ckpt.load_session(key) is not None
                    ):
                        # A 409 must not leave a fresh placeholder behind:
                        # later opens would mistake it for a live session.
                        if entry.session is None:
                            self._sessions.discard(key, entry)
                        return 409, self._envelope(
                            {
                                "error": f"streaming session {session_id!r} "
                                "already exists"
                            }
                        )
                    session = ReplaySession(
                        self.runner.miss_stream_for(spec),
                        spec.build_prefetcher(),
                        buffer_entries=spec.buffer_entries,
                        max_prefetches_per_miss=spec.max_prefetches_per_miss,
                    )
                    owner = tenant.name if tenant is not None else None
                    digest = self._checkpoint_session(
                        key, spec, session, owner
                    )
                    entry.session = session
                    entry.spec = spec
                    entry.tenant = owner
                    entry.touched = time.monotonic()
                except BaseException:
                    if entry.session is None:
                        self._sessions.discard(key, entry)
                    raise
                return 200, self._session_payload(
                    session_id, session, spec, state_digest=digest
                )

    def _post_stream_advance(
        self, session_id: str, body: dict, tenant: TenantConfig | None = None
    ) -> tuple[int, dict]:
        """Replay the next chunk of a session, then checkpoint it."""
        if not isinstance(body, dict):
            return 400, self._envelope(
                {"error": f"request body must be an object, got {type(body).__name__}"}
            )
        count = body.get("count")
        if count is not None and (
            not isinstance(count, int) or isinstance(count, bool) or count < 0
        ):
            return 400, self._envelope(
                {
                    "error": "'count' must be a non-negative integer or "
                    f"null, got {count!r}"
                }
            )
        self._sessions.evict_idle(self.max_idle_seconds)
        with self._locked_session(session_id, tenant) as (entry, error):
            if error is not None:
                return error
            advanced = entry.session.advance(count)
            digest = self._checkpoint_session(
                self._session_key(session_id, tenant),
                entry.spec,
                entry.session,
                entry.tenant,
            )
            return 200, self._session_payload(
                session_id,
                entry.session,
                entry.spec,
                advanced=advanced,
                state_digest=digest,
            )

    def _get_stream_stats(
        self, session_id: str, tenant: TenantConfig | None = None
    ) -> tuple[int, dict]:
        """Progress and statistics-so-far; restores an evicted session."""
        with self._locked_session(session_id, tenant) as (entry, error):
            if error is not None:
                return error
            return 200, self._session_payload(
                session_id, entry.session, entry.spec
            )

    # -- scheduler routes --------------------------------------------------

    @staticmethod
    def _parse_specs(body: dict) -> list[RunSpec] | tuple[int, dict]:
        raw_specs = body.get("specs")
        if not isinstance(raw_specs, list):
            return 400, {"error": "request body needs a 'specs' list of RunSpec objects"}
        try:
            return [RunSpec.from_dict(raw) for raw in raw_specs]
        except (TypeError, ValueError) as exc:
            return 400, {"error": str(exc)}

    def _post_jobs(
        self, body: dict, tenant: TenantConfig | None = None
    ) -> tuple[int, dict]:
        """Enqueue a sweep; store-known specs are precompleted on the spot."""
        if not isinstance(body, dict):
            return 400, self._envelope(
                {"error": f"request body must be an object, got {type(body).__name__}"}
            )
        specs = self._parse_specs(body)
        if not isinstance(specs, list):
            status, payload = specs
            return status, self._envelope(payload)
        if not specs:
            # An empty sweep does no work but would still claim the
            # sweep id (ownership, trace slot) — reject it outright.
            return 400, self._envelope(
                {"error": "'specs' must be a non-empty list"}
            )
        sweep_id = body.get("sweep_id") or f"sweep-{uuid.uuid4().hex[:12]}"
        if not isinstance(sweep_id, str):
            return 400, self._envelope(
                {"error": f"'sweep_id' must be a string, got {sweep_id!r}"}
            )
        max_attempts = body.get("max_attempts")
        if max_attempts is not None and (
            not isinstance(max_attempts, int) or max_attempts < 1
        ):
            return 400, self._envelope(
                {"error": f"'max_attempts' must be a positive integer, got {max_attempts!r}"}
            )
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
        cost_wait = self.admission.charge_cost(tenant, len(specs))
        if cost_wait > 0:
            return 429, self._envelope(
                {
                    "error": "sweep cost budget exhausted "
                    f"({len(specs)} specs requested)",
                    "retry_after": round(cost_wait, 3),
                }
            )
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

    def _post_claim(self, body: dict) -> tuple[int, dict]:
        """Lease queued jobs to a worker, store-probing each handout."""
        worker_id = body.get("worker_id")
        if not isinstance(worker_id, str) or not worker_id:
            return 400, self._envelope(
                {"error": f"'worker_id' must be a non-empty string, got {worker_id!r}"}
            )
        limit = body.get("limit", 1)
        if not isinstance(limit, int) or limit < 1:
            return 400, self._envelope(
                {"error": f"'limit' must be a positive integer, got {limit!r}"}
            )
        lease = body.get("lease_seconds")
        if lease is not None and (
            not isinstance(lease, (int, float)) or lease <= 0
        ):
            return 400, self._envelope(
                {"error": f"'lease_seconds' must be > 0, got {lease!r}"}
            )
        handout: list[dict] = []
        while len(handout) < limit:
            batch = self.queue.claim(
                worker_id, limit=limit - len(handout), lease_seconds=lease
            )
            if not batch:
                break
            for job in batch:
                # Consult the store before handing a job out: a spec
                # another worker (or another sweep) already landed is
                # completed here, never replayed again.
                if self.store.has_result(job["spec_key"]):
                    self.queue.complete(job["id"], worker_id, source="store")
                else:
                    handout.append(
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
                    )
        return 200, self._envelope({"worker_id": worker_id, "jobs": handout})

    def _post_complete(self, body: dict) -> tuple[int, dict]:
        """Record a job outcome; result rows land in the store first."""
        job_id = body.get("job_id")
        if not isinstance(job_id, str) or not job_id:
            return 400, self._envelope(
                {"error": f"'job_id' must be a non-empty string, got {job_id!r}"}
            )
        worker_id = body.get("worker_id")
        job = self.queue.job(job_id)
        if job is None:
            return 404, self._envelope({"error": f"no job {job_id!r}"})
        error = body.get("error")
        if error is not None:
            failed = self.queue.fail(job_id, worker_id, error=str(error))
            return 200, self._envelope(
                {"id": job_id, "state": failed["state"], "attempts": failed["attempts"]}
            )
        run = body.get("run")
        if not isinstance(run, dict):
            return 400, self._envelope(
                {"error": "request body needs a 'run' result object (or an 'error')"}
            )
        try:
            stats = PrefetchRunStats(**run)
        except TypeError as exc:
            return 400, self._envelope({"error": f"malformed result row: {exc}"})
        if stats.extra.get("spec_key") != job["spec_key"]:
            return 400, self._envelope(
                {
                    "error": (
                        f"result row is for spec {stats.extra.get('spec_key')!r} "
                        f"but job {job_id} holds spec {job['spec_key']!r}"
                    )
                }
            )
        # Content-addressed write-back: first completion stores the row,
        # duplicates (late workers, client retries) find it present.
        stored = False
        if not self.store.has_result(job["spec_key"]):
            self.store.put_result(RunSpec.from_dict(job["spec"]), stats)
            stored = True
        outcome = self.queue.complete(job_id, worker_id, source="worker")
        return 200, self._envelope(
            {
                "id": job_id,
                "state": outcome["state"],
                "duplicate": outcome["duplicate"],
                "stored": stored,
            }
        )

    def _post_heartbeat(self, body: dict) -> tuple[int, dict]:
        worker_id = body.get("worker_id")
        if not isinstance(worker_id, str) or not worker_id:
            return 400, self._envelope(
                {"error": f"'worker_id' must be a non-empty string, got {worker_id!r}"}
            )
        job_ids = body.get("job_ids")
        if not isinstance(job_ids, list) or not all(
            isinstance(job_id, str) for job_id in job_ids
        ):
            return 400, self._envelope(
                {"error": "'job_ids' must be a list of job id strings"}
            )
        lease = body.get("lease_seconds")
        if lease is not None and (
            not isinstance(lease, (int, float)) or lease <= 0
        ):
            return 400, self._envelope(
                {"error": f"'lease_seconds' must be > 0, got {lease!r}"}
            )
        beat = self.queue.heartbeat(worker_id, job_ids, lease_seconds=lease)
        return 200, self._envelope(beat)

    def _post_cancel(
        self, body: dict, tenant: TenantConfig | None = None
    ) -> tuple[int, dict]:
        sweep_id = body.get("sweep_id")
        if not isinstance(sweep_id, str) or not sweep_id:
            return 400, self._envelope(
                {"error": f"'sweep_id' must be a non-empty string, got {sweep_id!r}"}
            )
        if not self._owns_sweep(tenant, sweep_id):
            return 404, self._envelope({"error": f"no sweep {sweep_id!r}"})
        cancelled = self.queue.cancel(sweep_id)
        return 200, self._envelope({"sweep_id": sweep_id, "cancelled": cancelled})

    def _post_trace(self, body: dict) -> tuple[int, dict]:
        """Ingest spans shipped from a remote process (worker, client)."""
        if not isinstance(body, dict):
            return 400, self._envelope(
                {"error": f"request body must be an object, got {type(body).__name__}"}
            )
        spans = body.get("spans")
        if not isinstance(spans, list):
            return 400, self._envelope(
                {"error": "request body needs a 'spans' list of span objects"}
            )
        accepted = COLLECTOR.ingest(spans)
        return 200, self._envelope({"accepted": accepted})

    def _get_trace(self, query: dict[str, str]) -> tuple[int, dict]:
        """One trace's spans (``?trace_id=``) or summaries of all."""
        trace_id = query.get("trace_id")
        if trace_id:
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
        self, job_id: str, tenant: TenantConfig | None = None
    ) -> tuple[int, dict]:
        if not job_id or "/" in job_id:
            return 400, self._envelope({"error": f"malformed job id {job_id!r}"})
        # Clients percent-encode the path segment (job ids embed the
        # user-supplied sweep id); decode it before the lookup.
        job_id = unquote(job_id)
        job = self.queue.job(job_id)
        if job is None:
            return 404, self._envelope({"error": f"no job {job_id!r}"})
        if not self._owns_sweep(tenant, job["sweep_id"]):
            # Same message as the missing case: job ids embed sweep ids,
            # so a 403 would leak which sweeps exist.
            return 404, self._envelope({"error": f"no job {job_id!r}"})
        return 200, self._envelope({"job": job})

    def _get_progress(
        self, query: dict[str, str], tenant: TenantConfig | None = None
    ) -> tuple[int, dict]:
        sweep_id = query.get("sweep_id")
        # Per-sweep progress is owner-only; the unscoped aggregate is
        # open to every tenant (counts only, no spec material).
        if sweep_id and not self._owns_sweep(tenant, sweep_id):
            return 404, self._envelope({"error": f"no sweep {sweep_id!r}"})
        return 200, self._envelope(self.queue.progress(sweep_id))


class _RequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def _respond(self, status: int, payload: dict) -> None:
        data = json.dumps(payload, sort_keys=True).encode() + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        retry_after = payload.get("retry_after")
        if retry_after is not None:
            # The header is integer seconds per RFC 9110; the payload
            # keeps the precise float for clients that parse JSON.
            self.send_header("Retry-After", str(max(1, math.ceil(retry_after))))
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _respond_text(self, status: int, text: str) -> None:
        data = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _access_log(self, method: str, status: int, began: float) -> None:
        _LOG.info(
            "%s %s %s %s %.1fms",
            self.address_string(),
            method,
            self.path,
            status,
            (time.perf_counter() - began) * 1000.0,
        )

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        began = time.perf_counter()
        parsed = urlparse(self.path)
        if parsed.path == "/metrics":
            # Prometheus text, not a JSON envelope: rendered straight
            # from the registry, counted like any other route.
            text = self.server.service.scrape_metrics()
            _OBS_HTTP_REQUESTS.inc(method="GET", route="/metrics", status="200")
            _OBS_HTTP_SECONDS.observe(
                time.perf_counter() - began, method="GET", route="/metrics"
            )
            self._respond_text(200, text)
            self._access_log("GET", 200, began)
            return
        status, payload = self.server.service.handle(
            "GET",
            parsed.path,
            dict(parse_qsl(parsed.query)),
            trace_parent=self.headers.get(TRACE_HEADER),
            authorization=self.headers.get("Authorization"),
        )
        self._respond(status, payload)
        self._access_log("GET", status, began)

    def _read_body(self, began: float) -> bytes | None:
        """The request body, or ``None`` after responding with an error.

        Hardened against hostile framing: a malformed or negative
        ``Content-Length`` is a 400 and an oversized one a 413, both
        before reading a single body byte. The connection is closed on
        these paths — the unread body would otherwise be parsed as the
        next request on the keep-alive socket.
        """
        raw_length = self.headers.get("Content-Length")
        length: int | None
        try:
            length = int(raw_length) if raw_length is not None else 0
        except ValueError:
            length = None
        if length is None or length < 0:
            self.close_connection = True
            self._respond(
                400,
                {
                    "schema": SERVICE_SCHEMA,
                    "error": f"malformed Content-Length header {raw_length!r}",
                },
            )
            self._access_log("POST", 400, began)
            return None
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            self._respond(
                413,
                {
                    "schema": SERVICE_SCHEMA,
                    "error": (
                        f"request body of {length} bytes exceeds the "
                        f"{MAX_BODY_BYTES} byte cap"
                    ),
                },
            )
            self._access_log("POST", 413, began)
            return None
        return self.rfile.read(length)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        began = time.perf_counter()
        raw = self._read_body(began)
        if raw is None:
            return
        try:
            body = json.loads(raw) if raw else {}
        except json.JSONDecodeError as exc:
            self._respond(
                400,
                {"schema": SERVICE_SCHEMA, "error": f"request body is not JSON: {exc}"},
            )
            self._access_log("POST", 400, began)
            return
        parsed = urlparse(self.path)
        status, payload = self.server.service.handle(
            "POST",
            parsed.path,
            dict(parse_qsl(parsed.query)),
            body,
            trace_parent=self.headers.get(TRACE_HEADER),
            authorization=self.headers.get("Authorization"),
        )
        self._respond(status, payload)
        self._access_log("POST", status, began)

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

    def server_close(self) -> None:
        """Tear down sockets, then the service's watchdog + journal."""
        super().server_close()
        self.service.close()


def make_server(
    store: ExperimentStore | str,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 0,
    verbose: bool = False,
    max_idle_seconds: float = 300.0,
    watchdog_interval_seconds: float = 5.0,
    tenants: Iterable[TenantConfig] | None = None,
    max_inflight: int = 64,
    max_queue: int = 256,
    admission: AdmissionController | None = None,
) -> ExperimentServer:
    """Build a ready-to-run server (``port=0`` picks a free port).

    The health watchdog starts here (when telemetry is enabled): a
    served store journals its metrics and evaluates SLO rules on the
    ``watchdog_interval_seconds`` cadence until ``server_close()``.

    With no ``tenants`` the service runs open (anonymous, unmetered
    rates) but still sheds load past ``max_inflight`` + ``max_queue``.
    Pass a prebuilt ``admission`` controller to tune the queue-wait
    and shed hints; it overrides the other three knobs.
    """
    if not isinstance(store, ExperimentStore):
        store = ExperimentStore(store)
    runner = Runner(workers=workers, cache=MissStreamCache(), store=store)
    if admission is None:
        admission = AdmissionController(
            tenants=tuple(tenants or ()),
            max_inflight=max_inflight,
            max_queue=max_queue,
        )
    service = ExperimentService(
        store,
        runner,
        max_idle_seconds=max_idle_seconds,
        watchdog_interval_seconds=watchdog_interval_seconds,
        admission=admission,
    )
    if service.watchdog is not None:
        service.watchdog.start()
    return ExperimentServer((host, port), service, verbose)


def serve(
    store: ExperimentStore | str,
    host: str = "127.0.0.1",
    port: int = 8321,
    workers: int = 0,
    verbose: bool = False,
    max_inflight: int = 64,
    tenant_config: str | None = None,
) -> int:
    """Blocking CLI entry point: print the address and serve forever."""
    tenants = load_tenant_config(tenant_config) if tenant_config else ()
    server = make_server(
        store,
        host=host,
        port=port,
        workers=workers,
        verbose=verbose,
        tenants=tenants,
        max_inflight=max_inflight,
    )
    mode = f"{len(tenants)} tenants" if tenants else "open access"
    print(
        f"repro-tlb service on {server.url} "
        f"(store: {server.service.store.root}, workers: {workers}, {mode})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.server_close()
    return 0
