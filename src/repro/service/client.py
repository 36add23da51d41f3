"""Minimal stdlib client for the repro-tlb experiment service.

Used by the service tests and the CI ``store-smoke`` scripted client;
also convenient from a notebook::

    from repro.service import ServiceClient

    client = ServiceClient("http://127.0.0.1:8321")
    client.wait_ready()
    batch = client.submit([{"workload": "galgel", "mechanism": "DP",
                            "scale": 0.1, "params": {"rows": 256}}])
    print(client.results(workload="galgel")["count"])

Each client keeps one persistent HTTP/1.1 connection per thread (a
worker's heartbeat thread gets its own), so a run of requests pays for
one TCP handshake instead of one each. A kept-alive connection is
dropped when a request on it fails, when the server's response says it
will close, and in the child of a fork, which must not share its
parent's socket. Before a connection is reused, a zero-timeout
readability check looks for the server's EOF: a server that closed the
idle socket (its handler's idle timeout, a restart) gets a fresh
connection before anything is sent.

Transient transport failures (connection refused/reset mid-poll — the
service restarting, a worker fleet hammering one socket) are retried
with exponential backoff and jitter, but only for *idempotent*
requests: every GET, plus POSTs the caller explicitly marks idempotent
(the scheduler's ``/claim`` — a lost claim is recovered by lease
expiry). The same requests, when a send or read fails on a reused
connection (the server closed it as the request went out), are sent
once more at once on a fresh one. A non-idempotent POST is never sent
twice: its transport failure is a ``ServiceError`` with status 0. The
total retry count is surfaced as :attr:`ServiceClient.retries`.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import threading
import time
import urllib.parse
from typing import Any

from repro.errors import ReproError
from repro.obs import REGISTRY, TRACE_HEADER, current_context

#: Client-side transport telemetry (satellite: surface retry/backoff
#: behaviour in the registry, not just the bare ``client.retries`` int).
_OBS_REQUESTS = REGISTRY.counter(
    "repro_client_requests_total",
    "Client requests by method and outcome (ok, http_error, unreachable).",
    labels=("method", "outcome"),
)
_OBS_RETRIES = REGISTRY.counter(
    "repro_client_retries_total",
    "Transient-failure retries by cause.",
    labels=("cause",),
)
_OBS_BACKOFF = REGISTRY.counter(
    "repro_client_backoff_seconds_total",
    "Cumulative seconds slept in retry backoff.",
)

#: What a failed exchange raises: socket errors (refused, reset,
#: timeout) and http.client's protocol errors (a truncated response).
_TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


def _retry_cause(exc: BaseException) -> str:
    """Classify a transient transport failure for the retry counter."""
    if isinstance(exc, TimeoutError):
        return "timeout"
    if isinstance(exc, ConnectionRefusedError):
        return "connection_refused"
    if isinstance(exc, ConnectionResetError):
        return "connection_reset"
    if isinstance(exc, ConnectionError):
        return "connection_error"
    if isinstance(exc, OSError):
        return "os_error"
    return "unreachable"


def _closed_by_peer(sock: Any) -> bool:
    """Whether the server closed this idle kept-alive socket.

    A server sends nothing unasked, so a socket readable at zero
    timeout holds its EOF (or a reset). ``None`` is a connection that
    has not connected yet.
    """
    if sock is None:
        return False
    try:
        return bool(select.select([sock], [], [], 0)[0])
    except (OSError, ValueError):
        return True


class ServiceError(ReproError):
    """The service answered with a non-2xx status.

    Attributes:
        status: HTTP status code (0 when the server was unreachable).
        payload: decoded JSON error payload, when there was one.
        retry_after: the server's retry hint in seconds (from the
            payload's precise float, falling back to the integer
            ``Retry-After`` header), or ``None`` when it sent none.
    """

    def __init__(
        self,
        status: int,
        payload: dict | None,
        message: str,
        retry_after: float | None = None,
    ) -> None:
        self.status = status
        self.payload = payload or {}
        self.retry_after = retry_after
        super().__init__(message)


def _retry_after_hint(payload: dict | None, header: str | None) -> float | None:
    """The server's retry hint: JSON float preferred, header fallback."""
    if payload is not None:
        value = payload.get("retry_after")
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return max(0.0, float(value))
    if header is not None:
        try:
            return max(0.0, float(header))
        except ValueError:
            return None
    return None


class ServiceClient:
    """Tiny JSON-over-HTTP client bound to one service base URL.

    Args:
        base_url: service address, e.g. ``http://127.0.0.1:8321``.
        timeout: per-request socket timeout in seconds.
        max_retries: transient-failure retries per idempotent request
            (0 disables retrying).
        retry_backoff: base delay in seconds; attempt ``n`` sleeps
            ``retry_backoff * 2**n`` plus up to one extra
            ``retry_backoff`` of jitter (decorrelates a worker fleet
            retrying in lockstep).
        token: API token sent as ``Authorization: Bearer <token>`` on
            every request (required when the service runs with
            tenants; ignored by an open-mode service).
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        max_retries: int = 3,
        retry_backoff: float = 0.1,
        token: str | None = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        parts = urllib.parse.urlsplit(self.base_url)
        self._address = (parts.hostname, parts.port)
        self._prefix = parts.path
        self.timeout = timeout
        self.token = token
        self.max_retries = max(0, int(max_retries))
        self.retry_backoff = retry_backoff
        #: Total transient-failure retries this client has performed.
        self.retries = 0
        #: Total seconds this client has slept in retry backoff.
        self.backoff_seconds = 0.0
        # Private jitter source: drawing from the module-global RNG
        # would perturb the seeded stream of any host process (the
        # differential harness and hypothesis suites seed it).
        self._rng = random.Random()
        # This thread's kept-alive connection and the pid that made it.
        self._local = threading.local()

    def _connect(self, timeout: float) -> http.client.HTTPConnection:
        """A new, not yet connected, connection to the service."""
        host, port = self._address
        return http.client.HTTPConnection(host, port, timeout=timeout)

    def _checkout(self, timeout: float) -> tuple[http.client.HTTPConnection, bool]:
        """This thread's connection, taken out while a request uses it,
        and whether it has carried a request before.

        A new one replaces a connection made before a fork (the parent
        owns that socket) or one the server has closed while it idled.
        Only a request that completes puts its connection back
        (:meth:`request`), so one interrupted mid-exchange is never
        reused.
        """
        local = self._local
        connection = getattr(local, "connection", None)
        local.connection = None
        if connection is not None:
            if local.pid == os.getpid() and not _closed_by_peer(connection.sock):
                connection.timeout = timeout
                if connection.sock is not None:
                    connection.sock.settimeout(timeout)
                return connection, True
            # In a fork's child this closes only the child's descriptor.
            connection.close()
        local.pid = os.getpid()
        return self._connect(timeout), False

    def request(
        self,
        path: str,
        payload: dict | None = None,
        method: str | None = None,
        idempotent: bool | None = None,
        timeout: float | None = None,
    ) -> dict:
        """One request; returns the decoded payload or raises ServiceError.

        ``idempotent`` controls transient-failure retrying; by default
        only GETs qualify. An HTTP error status is not retried — the
        server answered, retrying would not change its mind — with one
        exception: a 429 or 503 carrying a ``Retry-After`` hint is the
        server explicitly saying "ask again in N seconds", and those
        are retried (any method — an admission rejection means the
        request never reached a handler) after sleeping the hinted
        delay. Hinted sleeps draw on one request-level budget of
        ``timeout`` seconds: each sleep is capped by what remains, and
        once the budget is spent the error is raised instead of
        retried — so a call never blocks for hint-sleeps longer than
        its own ``timeout``, however many retries the server invites.
        ``timeout`` also overrides the client-wide socket timeout for
        this one request (a long streaming advance next to quick
        polls).
        """
        data = json.dumps(payload).encode() if payload is not None else None
        method = method or ("POST" if data is not None else "GET")
        if idempotent is None:
            idempotent = method == "GET"
        if timeout is None:
            timeout = self.timeout
        attempt = 0
        # A failure on a reused connection is resent at once, once.
        resent = False
        # One deadline for all hinted (Retry-After) sleeps this call
        # makes — a budget, not a per-attempt cap.
        hint_deadline = time.monotonic() + timeout
        headers = {"Content-Type": "application/json"}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        # Propagate the active trace so the server's spans (and any
        # worker spans downstream of it) join the caller's trace.
        trace_ctx = current_context()
        if trace_ctx is not None:
            headers[TRACE_HEADER] = trace_ctx
        url = self._prefix + path
        while True:
            connection, reused = self._checkout(timeout)
            try:
                connection.request(method, url, body=data, headers=headers)
                response = connection.getresponse()
                body = response.read()
            except _TRANSPORT_ERRORS as exc:
                connection.close()
                if idempotent and reused and not resent and not isinstance(exc, TimeoutError):
                    # The server closed the kept-alive socket as this
                    # request went out: no backoff, a fresh connection.
                    # (A timeout is a slow server, not a stale socket.)
                    resent = True
                    self.retries += 1
                    _OBS_RETRIES.inc(cause=_retry_cause(exc))
                    continue
                if not idempotent or attempt >= self.max_retries:
                    _OBS_REQUESTS.inc(method=method, outcome="unreachable")
                    raise ServiceError(
                        0, None, f"service unreachable at {self.base_url}: {exc}"
                    ) from exc
                delay = self.retry_backoff * (2 ** attempt)
                delay += self._rng.uniform(0.0, self.retry_backoff)
                attempt += 1
                self.retries += 1
                self.backoff_seconds += delay
                _OBS_RETRIES.inc(cause=_retry_cause(exc))
                _OBS_BACKOFF.inc(delay)
                time.sleep(delay)
                continue
            if response.will_close:
                connection.close()
            else:
                self._local.connection = connection
            status = response.status
            if 200 <= status < 300:
                decoded = json.loads(body)
                _OBS_REQUESTS.inc(method=method, outcome="ok")
                return decoded
            try:
                decoded = json.loads(body)
            except (json.JSONDecodeError, ValueError):
                decoded = None
            message = (decoded or {}).get("error", body.decode(errors="replace"))
            retry_after = _retry_after_hint(decoded, response.getheader("Retry-After"))
            hint_budget = hint_deadline - time.monotonic()
            if (
                status in (429, 503)
                and retry_after is not None
                and attempt < self.max_retries
                and hint_budget > 0
            ):
                # Honor the server's hint instead of the blind
                # exponential schedule, but never sleep past what
                # remains of this request's timeout budget — large
                # hints across several attempts must not stack into a
                # multi-timeout stall.
                delay = min(retry_after, hint_budget)
                attempt += 1
                self.retries += 1
                self.backoff_seconds += delay
                _OBS_RETRIES.inc(cause=f"http_{status}")
                _OBS_BACKOFF.inc(delay)
                time.sleep(delay)
                continue
            _OBS_REQUESTS.inc(method=method, outcome="http_error")
            raise ServiceError(
                status,
                decoded,
                f"{method} {path} -> {status}: {message}",
                retry_after=retry_after,
            )

    def wait_ready(self, timeout: float = 10.0, interval: float = 0.1) -> dict:
        """Poll ``GET /stats`` until the service answers (or time out)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.stats()
            except ServiceError as exc:
                # 429 means the socket answered but admission shed the
                # poll — the service is up and busy; keep waiting.
                if exc.status not in (0, 429) or time.monotonic() >= deadline:
                    raise
                time.sleep(interval)

    def wait_healthy(self, timeout: float = 10.0, interval: float = 0.1) -> dict:
        """Poll ``GET /healthz`` until the service reports ``ok``.

        Stronger than :meth:`wait_ready`: the socket answering is not
        enough — every component (store writable, queue lag, worker
        leases, sessions) must probe healthy. Keeps polling through
        both "unreachable" (service still binding) and 503 "degraded"
        (a component still recovering); anything else — or the
        deadline — raises the last :class:`ServiceError`. Works with
        telemetry disabled too: ``/healthz`` probes components
        directly and just has no alerts to fold in.
        """
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.healthz()
            except ServiceError as exc:
                # ``/healthz`` bypasses admission, so a 429 here can
                # only come from a proxy in front of the service —
                # still worth waiting out, like 503 "degraded".
                retryable = exc.status in (0, 503, 429)
                if not retryable or time.monotonic() >= deadline:
                    raise
                time.sleep(interval)

    # -- endpoint wrappers -------------------------------------------------

    def stats(self) -> dict:
        return self.request("/stats")

    def healthz(self) -> dict:
        """``GET /healthz``; raises ``ServiceError(503)`` when degraded."""
        return self.request("/healthz")

    def alerts(self) -> dict:
        """``GET /alerts``: SLO alert records with firing state."""
        return self.request("/alerts")

    def run(self, key: str) -> dict:
        return self.request(f"/runs/{key}")

    def results(
        self, limit: int | None = None, offset: int | None = None, **filters: Any
    ) -> dict:
        """``GET /results``: stored rows, filtered and (optionally) paged.

        With ``limit``/``offset`` the envelope's ``runs`` hold one page,
        ``count`` is the page size, and ``total`` is the full filtered
        row count — large stores are walked page by page instead of
        serialized into one response.
        """
        query = dict(filters)
        if limit is not None:
            query["limit"] = limit
        if offset is not None:
            query["offset"] = offset
        encoded = urllib.parse.urlencode(query)
        return self.request("/results" + (f"?{encoded}" if encoded else ""))

    def submit(self, specs: list[dict], timeout: float | None = None) -> dict:
        """``POST /runs``: execute (or fetch) a batch of spec dicts."""
        return self.request("/runs", {"specs": specs}, timeout=timeout)

    # -- streaming wrappers --------------------------------------------------

    def stream_open(
        self,
        spec: dict,
        session_id: str | None = None,
        timeout: float | None = None,
    ) -> dict:
        """``POST /streams``: open a suspendable replay session."""
        body: dict[str, Any] = {"spec": spec}
        if session_id is not None:
            body["session_id"] = session_id
        return self.request("/streams", body, timeout=timeout)

    def stream_advance(
        self,
        session_id: str,
        count: int | None = None,
        timeout: float | None = None,
    ) -> dict:
        """``POST /streams/<id>/advance``: replay the next chunk.

        ``count=None`` replays everything remaining — pair that with a
        generous ``timeout`` for large streams.
        """
        quoted = urllib.parse.quote(session_id, safe="")
        return self.request(
            f"/streams/{quoted}/advance", {"count": count}, timeout=timeout
        )

    def stream_stats(self, session_id: str, timeout: float | None = None) -> dict:
        """``GET /streams/<id>/stats``: progress + statistics so far.

        The client side of the route README's route table lists; no
        code in the package reads a stream's stats without advancing.
        """
        quoted = urllib.parse.quote(session_id, safe="")
        return self.request(f"/streams/{quoted}/stats", timeout=timeout)
