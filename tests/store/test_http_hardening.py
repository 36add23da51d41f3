"""HTTP transport regression tests: hostile framing and keep-alive.

A client library can't send a malformed ``Content-Length``, so the
framing tests write HTTP/1.1 requests straight onto the socket and
assert the server answers with a structured error envelope — not an
unhandled exception in the handler thread (which surfaces as a dropped
connection).

The keep-alive tests hold :class:`ServiceClient`'s one connection per
thread to its contract: authentication stays per request, a parked
long-poll gives its admission slot back, a socket the server closed
(idle timeout, restart, ``server_close``) is replaced before anything
is sent, and a closed server is unreachable, not a 500.
"""

import http.client
import json
import logging
import socket
import statistics
import struct
import threading
import time

import pytest

from repro.sched import SchedulerClient
from repro.service import (
    MAX_BODY_BYTES,
    SERVICE_SCHEMA,
    ServiceClient,
    ServiceError,
    TenantConfig,
    make_server,
)
from repro.service.server import _RequestHandler


def _start(store, **options):
    server = make_server(store, **options)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _stop(server, thread):
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


@pytest.fixture
def server(tmp_path):
    server, thread = _start(tmp_path / "store", port=0)
    try:
        yield server
    finally:
        _stop(server, thread)


def _counting_connects(monkeypatch) -> list:
    """Record every new connection a ServiceClient opens."""
    opened = []
    real_connect = ServiceClient._connect

    def connect(self, timeout):
        opened.append(timeout)
        return real_connect(self, timeout)

    monkeypatch.setattr(ServiceClient, "_connect", connect)
    return opened


def _wait_until(condition, what, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, what
        time.sleep(0.005)


STREAM_SPEC = {
    "workload": "galgel",
    "mechanism": "DP",
    "scale": 0.02,
    "params": {"rows": 64},
}


def _raw_post(server, headers: list[str], body: bytes = b"") -> tuple[int, dict]:
    """POST /runs with hand-rolled headers; returns (status, envelope)."""
    host, port = server.server_address[:2]
    request = "\r\n".join(
        ["POST /runs HTTP/1.1", f"Host: {host}:{port}", *headers, "", ""]
    ).encode() + body
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(request)
        sock.settimeout(10)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            # The error paths close the connection, but don't rely on
            # it: stop once a complete JSON body has arrived.
            head, _, rest = b"".join(chunks).partition(b"\r\n\r\n")
            if rest.endswith(b"\n") and rest.count(b"{") == rest.count(b"}"):
                break
    response = b"".join(chunks)
    head, _, payload = response.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(payload)


class TestContentLengthHardening:
    def test_malformed_content_length_is_400(self, server):
        status, payload = _raw_post(
            server, ["Content-Length: banana", "Content-Type: application/json"]
        )
        assert status == 400
        assert payload["schema"] == SERVICE_SCHEMA
        assert "Content-Length" in payload["error"]
        assert "banana" in payload["error"]

    def test_negative_content_length_is_400(self, server):
        status, payload = _raw_post(
            server, ["Content-Length: -5", "Content-Type: application/json"]
        )
        assert status == 400
        assert payload["schema"] == SERVICE_SCHEMA
        assert "Content-Length" in payload["error"]

    def test_huge_content_length_is_413_before_reading(self, server):
        # 10**18 bytes obviously never arrive: the server must refuse
        # from the header alone instead of trying to allocate or read.
        status, payload = _raw_post(
            server,
            [f"Content-Length: {10**18}", "Content-Type: application/json"],
        )
        assert status == 413
        assert payload["schema"] == SERVICE_SCHEMA
        assert str(MAX_BODY_BYTES) in payload["error"]

    def test_exponent_notation_is_rejected_not_parsed(self, server):
        status, payload = _raw_post(
            server, ["Content-Length: 1e18", "Content-Type: application/json"]
        )
        assert status == 400
        assert "1e18" in payload["error"]

    def test_server_still_answers_after_an_attack(self, server):
        _raw_post(server, ["Content-Length: banana"])
        _raw_post(server, [f"Content-Length: {10**18}"])
        status, payload = _raw_post(
            server,
            ["Content-Length: 2", "Content-Type: application/json"],
            body=b"{}",
        )
        # A well-formed (if useless) body reaches the handler, which
        # rejects it for missing 'specs' — proof the thread survived.
        assert status == 400
        assert "specs" in payload["error"]

    def test_missing_content_length_reads_empty_body(self, server):
        status, payload = _raw_post(server, ["Content-Type: application/json"])
        assert status == 400
        assert "specs" in payload["error"]


class TestClientHangUp:
    def test_hang_up_before_the_answer_is_one_log_line(
        self, server, capfd, caplog
    ):
        """A client that resets its connection while its request is held
        costs the server one log line: no traceback on stderr, and the
        next request is served."""
        caplog.set_level(logging.INFO, logger="repro.obs")
        finished = threading.Event()
        shutdown_request = server.shutdown_request

        def shutdown_and_signal(request):
            shutdown_request(request)
            finished.set()

        server.shutdown_request = shutdown_and_signal
        host, port = server.server_address[:2]
        body = json.dumps({"worker_id": "gone", "wait": 0.5}).encode()
        request = "\r\n".join(
            [
                "POST /claim HTTP/1.1",
                f"Host: {host}:{port}",
                "Content-Type: application/json",
                f"Content-Length: {len(body)}",
                "",
                "",
            ]
        ).encode() + body
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(request)
            # The empty queue holds the claim; hang up (RST, not FIN)
            # while it is parked, so the server's write is what fails.
            deadline = time.monotonic() + 10
            while server.service.admission.census()["parked"] == 0:
                assert time.monotonic() < deadline, "claim never parked"
                time.sleep(0.005)
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        assert finished.wait(timeout=10)

        assert "Traceback" not in capfd.readouterr().err
        assert any("hung up" in r.getMessage() for r in caplog.records)
        status, payload = _raw_post(
            server,
            ["Content-Length: 2", "Content-Type: application/json"],
            body=b"{}",
        )
        assert status == 400
        assert "specs" in payload["error"]


class TestKeepAlive:
    def test_reused_connection_does_not_wait_for_delayed_acks(self, server):
        """Responses on a kept-alive connection go out at once: with
        Nagle on, each one waited ~40 ms for the client's delayed ACK."""
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            elapsed = []
            for _ in range(50):
                began = time.perf_counter()
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                elapsed.append(time.perf_counter() - began)
                assert response.status == 200
        finally:
            connection.close()
        assert statistics.median(elapsed) < 0.020, elapsed


class TestClosedServer:
    def test_a_kept_alive_client_finds_a_closed_server_unreachable(
        self, tmp_path, capfd, monkeypatch
    ):
        """After ``server_close`` no handler thread is left to answer on a
        kept-alive connection: every request is a status-0
        ``ServiceError`` (which a worker retries), never a 500 from a
        closed server."""
        opened = _counting_connects(monkeypatch)
        server, thread = _start(tmp_path / "store", port=0)
        client = SchedulerClient(server.url, retry_backoff=0.001)
        client.stats()
        client.progress()
        assert client.claim("w1") == []
        assert len(opened) == 1
        began = time.monotonic()
        _stop(server, thread)
        # The idle connection closed at once, not after its idle timeout.
        assert time.monotonic() - began < _RequestHandler.timeout / 3
        for call in (client.stats, client.progress, lambda: client.claim("w1")):
            with pytest.raises(ServiceError) as excinfo:
                call()
            assert excinfo.value.status == 0
        assert "Traceback" not in capfd.readouterr().err

    def test_a_request_being_answered_finishes_first(self, tmp_path):
        """``server_close`` lets a parked long-poll answer, on a
        connection that then closes, before the service goes."""
        server, thread = _start(tmp_path / "store", port=0)
        client = SchedulerClient(server.url)
        answers = []
        claimer = threading.Thread(
            target=lambda: answers.append(client.claim("w1", wait=5.0))
        )
        claimer.start()
        _wait_until(
            lambda: server.service.admission.census()["parked"] == 1, "claim never parked"
        )
        _stop(server, thread)
        claimer.join(timeout=10)
        assert answers == [[]]
        assert not server._open


class TestKeepAliveContract:
    def test_one_connection_carries_two_tenants_tokens(self, tmp_path, monkeypatch):
        """Authentication is per request, not per connection: tenant B's
        probe of A's stream, sent on the socket that just carried A's
        token, answers exactly as for a stream nobody opened."""
        opened = _counting_connects(monkeypatch)
        tenants = [
            TenantConfig(name="alpha", token="alpha-token"),
            TenantConfig(name="beta", token="beta-token"),
        ]
        server, thread = _start(tmp_path / "store", port=0, tenants=tenants)
        try:
            client = ServiceClient(server.url, token="beta-token")

            def probe():
                with pytest.raises(ServiceError) as excinfo:
                    client.stream_stats("s1")
                error = excinfo.value
                return error.status, json.dumps(error.payload, sort_keys=True), str(error)

            missing = probe()
            assert missing[0] == 404
            client.token = "alpha-token"
            client.stream_open(STREAM_SPEC, session_id="s1")
            assert client.stream_stats("s1")["offset"] == 0
            client.token = "beta-token"
            assert probe() == missing
            client.token = None
            with pytest.raises(ServiceError) as excinfo:
                client.stats()
            assert excinfo.value.status == 401
            assert len(opened) == 1
        finally:
            _stop(server, thread)

    def test_a_long_poll_on_a_reused_connection_gives_its_slot_back(
        self, server, monkeypatch
    ):
        opened = _counting_connects(monkeypatch)
        admission = server.service.admission
        client = SchedulerClient(server.url)
        client.stats()
        parked = []
        claimer = threading.Thread(
            target=lambda: parked.append(client.claim("w1", wait=0.5))
        )
        claimer.start()
        _wait_until(lambda: admission.census()["parked"] == 1, "claim never parked")
        # While it is parked, the claim holds no admission slot.
        assert admission.census()["inflight"] == 0
        claimer.join(timeout=10)
        assert parked == [[]]
        census = client.stats()["admission"]
        assert (census["inflight"], census["parked"]) == (1, 0)
        assert admission.census()["inflight"] == 0
        # The main thread's connection, then the claimer thread's own.
        assert len(opened) == 2

    def test_an_idle_connection_is_closed_and_replaced_before_a_post(
        self, tmp_path, monkeypatch
    ):
        """The server closes a connection idle past the handler timeout;
        the client's next non-idempotent POST goes out on a fresh socket,
        with no retry."""
        monkeypatch.setattr(_RequestHandler, "timeout", 0.2)
        opened = _counting_connects(monkeypatch)
        server, thread = _start(tmp_path / "store", port=0)
        try:
            client = ServiceClient(server.url)
            total = client.stream_open(STREAM_SPEC, session_id="idle")["total"]
            _wait_until(lambda: not server._open, "idle connection never closed")
            time.sleep(0.05)
            step = client.stream_advance("idle", count=total // 2)
            assert step["advanced"] == total // 2
            assert client.retries == 0
            assert len(opened) == 2
        finally:
            _stop(server, thread)

    def test_one_client_survives_a_restart_on_the_same_port(self, tmp_path, monkeypatch):
        opened = _counting_connects(monkeypatch)
        store = tmp_path / "store"
        server, thread = _start(store, port=0)
        port = server.server_address[1]
        client = ServiceClient(server.url)
        total = client.stream_open(STREAM_SPEC, session_id="r")["total"]
        first = client.stream_advance("r", count=total // 2)
        _stop(server, thread)
        server, thread = _start(store, port=port)
        try:
            second = client.stream_advance("r")
            assert first["offset"] + second["advanced"] == total
            assert second["finished"]
            assert client.retries == 0
            assert len(opened) == 2
        finally:
            _stop(server, thread)
