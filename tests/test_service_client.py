"""``ServiceClient`` on the wire, against byte-level stub servers.

A :class:`Stub` accepts one connection, reads the request, sends
scripted bytes in separate writes and then either closes or holds the
socket open, so framing, split reads and error bodies are pinned
without a real service.  A :class:`KeepAliveStub` serves requests in a
loop on every connection it accepts, for connection reuse.
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
             extra: str = "", close: bool = True) -> bytes:
    return (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n{extra}"
        + ("Connection: close\r\n" if close else "") + "\r\n"
    ).encode("latin-1") + body


def chunk(payload: bytes) -> bytes:
    return b"%x\r\n%s\r\n" % (len(payload), payload)


#: The zero-length chunk that ends a chunked body.
END = b"0\r\n\r\n"
#: The head of an event stream.
STREAM = (b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
          b"Cache-Control: no-store\r\nTransfer-Encoding: chunked\r\n\r\n")


class KeepAliveStub:
    """HTTP peer that serves every connection's requests in a loop.

    ``reply(path)`` returns the response bytes and what follows them:
    ``"keep"`` reads the next request, ``"close"`` closes the
    connection, ``"hold"`` sends nothing more until the peer closes.
    """

    def __init__(self, reply) -> None:
        self.reply = reply
        self.accepted = 0
        self.paths: List[str] = []
        #: Set each time a connection ends on the stub's side.
        self.ended = threading.Event()
        self._conns: List[socket.socket] = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        threading.Thread(target=self._accept, daemon=True).start()

    def client(self, timeout: float = 5.0) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, timeout=timeout)

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self.accepted += 1
            self._conns.append(conn)
            threading.Thread(target=self._serve, args=(conn,),
                             daemon=True).start()

    def _serve(self, conn: socket.socket) -> None:
        buf = b""
        try:
            while True:
                while b"\r\n\r\n" not in buf:
                    data = conn.recv(65536)
                    if not data:
                        return
                    buf += data
                head, _, buf = buf.partition(b"\r\n\r\n")
                path = head.split(b" ")[1].decode("latin-1")
                self.paths.append(path)
                wire, then = self.reply(path)
                conn.sendall(wire)
                if then == "close":
                    return
                if then == "hold":
                    while conn.recv(65536):
                        pass
                    return
        except OSError:
            pass
        finally:
            conn.close()
            self.ended.set()

    def stop(self) -> None:
        """Stop listening and end every open connection."""
        for sock in [self._listener] + self._conns:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()


@pytest.fixture
def stubs():
    made: List[Stub] = []

    def make(*args, **kwargs) -> Stub:
        made.append(Stub(*args, **kwargs))
        return made[-1]

    yield make
    for stub in made:
        stub.close()


@pytest.fixture
def keep_alive():
    made: List[KeepAliveStub] = []

    def make(reply) -> KeepAliveStub:
        made.append(KeepAliveStub(reply))
        return made[-1]

    yield make
    for stub in made:
        stub.stop()


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
    def test_lines_split_across_reads(self, stubs):
        stub = stubs([STREAM + chunk(b'{"seq": 1}\n{"se'),
                      chunk(b'q": 2}'), chunk(b"\n\n"),
                      chunk(b'{"seq": 3}\n') + END])
        with stub.client() as client:
            events = list(client.stream("j1", follow=True, cursor=2))
        assert events == [{"seq": 1}, {"seq": 2}, {"seq": 3}]
        assert stub.request.startswith(
            b"GET /v1/jobs/j1/events?follow=1&cursor=2 HTTP/1.1\r\n")

    def test_trailing_partial_line_is_dropped(self, stubs):
        stub = stubs([STREAM, chunk(b'{"seq": 1}\n{"seq": 2}\n{"se'),
                      END])
        with stub.client() as client:
            assert list(client.stream("j1", follow=False)) == [
                {"seq": 1}, {"seq": 2}]

    def test_stream_yields_before_the_feed_ends(self, stubs):
        stub = stubs([STREAM + chunk(b'{"seq": 1}\n')], hold_open=True)
        events = stub.client(timeout=3).stream("j1")
        assert next(events) == {"seq": 1}
        events.close()

    def test_chunk_size_line_split_across_reads(self, stubs):
        payload = b'{"seq": 1, "pad": "%s"}\n' % (b"x" * 20)
        size = b"%x" % len(payload)
        assert len(size) == 2
        stub = stubs([STREAM + size[:1], size[1:] + b"\r",
                      b"\n" + payload + b"\r\n0", b"\r\n\r\n"])
        with stub.client() as client:
            assert list(client.stream("j1")) == [
                {"seq": 1, "pad": "x" * 20}]

    def test_unchunked_stream_is_refused(self, stubs):
        head = STREAM.replace(b"Transfer-Encoding: chunked\r\n",
                              b"Connection: close\r\n")
        stub = stubs([head + b'{"seq": 1}\n'])
        with pytest.raises(ValueError, match="chunked"):
            list(stub.client().stream("j1"))

    def test_close_before_the_last_chunk_is_a_connection_error(
            self, stubs):
        stub = stubs([STREAM + chunk(b'{"seq": 1}\n')])
        events = stub.client().stream("j1")
        assert next(events) == {"seq": 1}
        with pytest.raises(ConnectionError):
            next(events)


class TestConnectionReuse:
    @staticmethod
    def healthz(then: str = "keep", close: bool = False):
        def reply(path):
            return response(200, b'{"ok": true}', close=close), then
        return reply

    def test_requests_share_one_connection(self, keep_alive):
        stub = keep_alive(self.healthz())
        with stub.client() as client:
            for _ in range(5):
                assert client.healthz() == {"ok": True}
        assert stub.accepted == 1
        assert len(stub.paths) == 5
        assert stub.ended.wait(5)  # close() closed the idle socket

    def test_finished_stream_leaves_the_connection_reusable(
            self, keep_alive):
        def reply(path):
            if "/events" in path:
                return STREAM + chunk(b'{"seq": 1}\n') + END, "keep"
            return response(200, b'{"ok": true}', close=False), "keep"

        stub = keep_alive(reply)
        with stub.client() as client:
            for event in client.stream("j1"):
                break  # the end arrived with the last line
            assert client.healthz() == {"ok": True}
        assert stub.accepted == 1

    def test_peer_connection_close_is_honoured(self, keep_alive):
        stub = keep_alive(self.healthz(then="keep", close=True))
        client = stub.client()
        assert client.healthz() == {"ok": True}
        assert client.healthz() == {"ok": True}
        assert stub.accepted == 2

    def test_idle_socket_closed_by_server_is_reconnected_once(
            self, keep_alive):
        stub = keep_alive(self.healthz(then="close"))
        client = stub.client()
        assert client.healthz() == {"ok": True}
        assert stub.ended.wait(5)
        stub.ended.clear()
        assert client.healthz() == {"ok": True}
        assert stub.accepted == 2
        assert len(stub.paths) == 2
        # Listener gone too: the retry's fresh connection is refused.
        assert stub.ended.wait(5)
        stub.stop()
        with pytest.raises(ConnectionRefusedError):
            client.healthz()

    def test_abandoned_stream_closes_its_socket(self, keep_alive):
        def reply(path):
            if "/events" in path:
                return STREAM + chunk(b'{"seq": 1}\n'), "hold"
            return response(200, b'{"ok": true}', close=False), "keep"

        stub = keep_alive(reply)
        with stub.client() as client:
            events = client.stream("j1")
            assert next(events) == {"seq": 1}
            events.close()
            assert stub.ended.wait(5)
            assert client.healthz() == {"ok": True}
        assert stub.accepted == 2

    def test_threads_share_one_client(self, keep_alive):
        """More threads than cores, switching every microsecond: each
        request still gets its own response, and no thread opens a
        second connection while it holds none."""
        def reply(path):
            body = json.dumps({"job_id": path.rsplit("/", 1)[1]})
            return response(200, body.encode(), close=False), "keep"

        stub = keep_alive(reply)
        client = stub.client()
        errors: List[BaseException] = []

        def calls(thread: int) -> None:
            try:
                for i in range(50):
                    job_id = f"j{thread}-{i}"
                    assert client.status(job_id) == {"job_id": job_id}
            except BaseException as exc:  # noqa: BLE001 - report below
                errors.append(exc)

        threads = [threading.Thread(target=calls, args=(n,))
                   for n in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(stub.paths) == 200
        assert stub.accepted <= 4
        client.close()


class TestWait:
    def test_follows_the_stream_then_reads_status_once(self, keep_alive):
        def reply(path):
            if "/events" in path:
                return STREAM + chunk(b'{"event": "submitted"}\n'
                                      b'{"event": "job_done"}\n') + END, \
                    "keep"
            return response(200, b'{"state": "done"}', close=False), "keep"

        stub = keep_alive(reply)
        with stub.client() as client:
            assert client.wait("j1", timeout=5) == {"state": "done"}
        assert stub.paths == ["/v1/jobs/j1/events?follow=1&cursor=0",
                              "/v1/jobs/j1"]
        assert stub.accepted == 1

    def test_times_out_on_a_stream_that_does_not_end(self, keep_alive):
        def reply(path):
            if "/events" in path:
                return STREAM + chunk(b'{"event": "submitted"}\n'), "hold"
            return response(200, b'{"state": "running"}',
                            close=False), "keep"

        stub = keep_alive(reply)
        start = time.monotonic()
        with stub.client() as client, pytest.raises(
                TimeoutError, match=r"job j1 still running after 0.3s"):
            client.wait("j1", timeout=0.3)
        assert time.monotonic() - start < 3
        assert stub.paths == ["/v1/jobs/j1/events?follow=1&cursor=0",
                              "/v1/jobs/j1"]


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
