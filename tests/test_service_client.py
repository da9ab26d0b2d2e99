"""``ServiceClient`` on the wire, against a byte-level stub server.

Each stub accepts one connection, reads the request, sends scripted
bytes in separate writes and then either closes or holds the socket
open, so framing, split reads and error bodies are pinned without a
real service.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from typing import List, Optional

import pytest

from repro.service import ServiceClient, ServiceError


class Stub:
    """One-connection HTTP peer that replies with scripted chunks."""

    def __init__(self, chunks: List[bytes], hold_open: bool = False,
                 respond: bool = True) -> None:
        self.chunks = chunks
        self.hold_open = hold_open
        self.respond = respond
        self.request: Optional[bytes] = None
        self.release = threading.Event()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def client(self, timeout: float = 5.0) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, timeout=timeout)

    def _serve(self) -> None:
        conn, _ = self._listener.accept()
        with conn:
            data = b""
            while b"\r\n\r\n" not in data:
                data += conn.recv(65536)
            head, _, body = data.partition(b"\r\n\r\n")
            for line in head.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    while len(body) < int(value):
                        body += conn.recv(65536)
            self.request = data
            if not self.respond:
                self.release.wait(30)
                return
            for chunk in self.chunks:
                conn.sendall(chunk)
                time.sleep(0.02)  # a separate read for each chunk
            if self.hold_open:
                self.release.wait(30)

    def close(self) -> None:
        self.release.set()
        self._thread.join(timeout=30)
        self._listener.close()


def response(status: int, body: bytes, reason: str = "X",
             extra: str = "") -> bytes:
    return (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n{extra}"
        f"Connection: close\r\n\r\n"
    ).encode("latin-1") + body


@pytest.fixture
def stubs():
    made: List[Stub] = []

    def make(*args, **kwargs) -> Stub:
        made.append(Stub(*args, **kwargs))
        return made[-1]

    yield make
    for stub in made:
        stub.close()


class TestFraming:
    def test_returns_at_content_length_while_peer_keeps_socket(
            self, stubs):
        stub = stubs([response(200, b'{"ok": true}')], hold_open=True)
        start = time.monotonic()
        assert stub.client(timeout=3).healthz() == {"ok": True}
        assert time.monotonic() - start < 2

    def test_body_larger_than_one_read(self, stubs):
        doc = {"cells": [{"index": i, "stats": "x" * 180}
                         for i in range(1000)]}
        body = json.dumps(doc).encode("utf-8")
        assert len(body) > 187_000
        wire = response(200, body)
        # The head alone, then the body in three uneven pieces.
        cut = wire.index(b"\r\n\r\n") + 4
        stub = stubs([wire[:20], wire[20:cut], wire[cut:cut + 1000],
                      wire[cut + 1000:cut + 90_000], wire[cut + 90_000:]],
                     hold_open=True)
        assert stub.client().results("j1") == doc
        assert stub.request.startswith(
            b"GET /v1/jobs/j1/results HTTP/1.1\r\n")

    def test_submit_sends_a_framed_json_body(self, stubs):
        stub = stubs([response(202, b'{"job_id": "j1"}')])
        assert stub.client().submit({"kind": "sweep"}, tenant="t") == {
            "job_id": "j1"}
        head, _, body = stub.request.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        assert lines[0] == b"POST /v1/jobs HTTP/1.1"
        assert f"Content-Length: {len(body)}".encode() in lines
        assert b"Content-Type: application/json" in lines
        assert json.loads(body) == {"campaign": {"kind": "sweep"},
                                    "tenant": "t"}

    def test_bodyless_post_sends_zero_length(self, stubs):
        stub = stubs([response(200, b'{"state": "cancelled"}')])
        assert stub.client().cancel("j1") == {"state": "cancelled"}
        assert b"\r\nContent-Length: 0\r\n" in stub.request

    def test_empty_body_decodes_to_empty_dict(self, stubs):
        stub = stubs([response(200, b"")], hold_open=True)
        assert stub.client().stats() == {}


class TestErrors:
    @pytest.mark.parametrize("status", [400, 404, 429])
    def test_error_status_raises_with_decoded_payload(self, stubs, status):
        payload = {"error": "no", "queued_cells": 3}
        stub = stubs([response(status, json.dumps(payload).encode(),
                               extra="Retry-After: 1\r\n")],
                     hold_open=True)
        with pytest.raises(ServiceError) as info:
            stub.client().status("j1")
        assert info.value.status == status
        assert info.value.payload == payload
        assert info.value.is_backpressure == (status == 429)

    def test_non_json_error_body_becomes_error_field(self, stubs):
        stub = stubs([response(500, b"<html>oops</html>")])
        with pytest.raises(ServiceError) as info:
            stub.client().jobs()
        assert info.value.payload == {"error": "<html>oops</html>"}

    def test_stream_error_status_raises(self, stubs):
        stub = stubs([response(404, b'{"error": "unknown job"}')],
                     hold_open=True)
        with pytest.raises(ServiceError) as info:
            list(stub.client().stream("nope"))
        assert info.value.status == 404
        assert info.value.payload == {"error": "unknown job"}

    def test_connection_refused(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        with pytest.raises(ConnectionRefusedError):
            ServiceClient("127.0.0.1", port, timeout=5).healthz()

    def test_silent_peer_times_out(self, stubs):
        stub = stubs([], respond=False)
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            stub.client(timeout=0.3).healthz()
        assert time.monotonic() - start < 5

    def test_unframed_json_response_is_refused(self, stubs):
        wire = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                b"Connection: close\r\n\r\n{}")
        stub = stubs([wire], hold_open=True)
        with pytest.raises(ValueError, match="Content-Length"):
            stub.client().healthz()

    def test_close_mid_body_is_a_connection_error(self, stubs):
        wire = response(200, b'{"ok": true}')
        stub = stubs([wire[:-3]])
        with pytest.raises(ConnectionError):
            stub.client().healthz()


class TestStream:
    HEAD = (b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
            b"Cache-Control: no-store\r\nConnection: close\r\n\r\n")

    def test_lines_split_across_reads(self, stubs):
        stub = stubs([self.HEAD + b'{"seq": 1}\n{"se', b'q": 2}',
                      b"\n\n", b'{"seq": 3}\n'])
        events = list(stub.client().stream("j1", follow=True, cursor=2))
        assert events == [{"seq": 1}, {"seq": 2}, {"seq": 3}]
        assert stub.request.startswith(
            b"GET /v1/jobs/j1/events?follow=1&cursor=2 HTTP/1.1\r\n")

    def test_trailing_partial_line_is_dropped(self, stubs):
        stub = stubs([self.HEAD, b'{"seq": 1}\n{"seq": 2}\n{"se'])
        assert list(stub.client().stream("j1", follow=False)) == [
            {"seq": 1}, {"seq": 2}]

    def test_stream_yields_before_the_feed_ends(self, stubs):
        stub = stubs([self.HEAD + b'{"seq": 1}\n'], hold_open=True)
        events = stub.client(timeout=3).stream("j1")
        assert next(events) == {"seq": 1}
        events.close()


def test_service_imports_no_http_client():
    """The service's client, server and CLI parse HTTP themselves."""
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import sys, repro.service, repro.service.cli, "
            "repro.service.server; print(sorted(m for m in sys.modules "
            "if m == 'http.client' or m.startswith('email')))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
