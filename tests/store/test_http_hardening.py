"""Raw-socket regression tests for hostile request framing.

``urllib`` can't send a malformed ``Content-Length``, so these tests
write HTTP/1.1 requests straight onto the socket and assert the server
answers with a structured error envelope — not an unhandled exception
in the handler thread (which surfaces as a dropped connection).
"""

import json
import logging
import socket
import struct
import threading
import time

import pytest

from repro.service import MAX_BODY_BYTES, SERVICE_SCHEMA, make_server


@pytest.fixture
def server(tmp_path):
    server = make_server(tmp_path / "store", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


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
