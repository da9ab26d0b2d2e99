"""Stdlib HTTP client for the sweep service.

Mirrors the ``/v1`` API one method per endpoint.  Every method raises
:class:`ServiceError` on a non-2xx response, carrying the HTTP status
and the decoded error payload — a 429 therefore surfaces as
``ServiceError`` with ``status == 429`` and the queue details intact,
which is what callers implementing backoff need.

The client speaks the server's HTTP/1.1 over plain sockets and keeps
its connection open between requests.  A request takes an idle
connection when there is one and opens a new one otherwise; the
connection goes back only once its response was read whole.  A JSON
response is framed by its ``Content-Length``, the NDJSON event stream
by chunked transfer coding, so neither waits for the server to close.

:meth:`ServiceClient.stream` yields event dicts live from the NDJSON
feed until the job reaches a terminal state (or the non-follow dump
ends).  :func:`discover` finds a running server from the ``server.json``
a service writes into its state directory.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.procs import pid_alive

DEFAULT_TIMEOUT = 60.0
_RECV = 65536


class ServiceError(Exception):
    """Non-2xx response from the service."""

    def __init__(self, status: int, payload: Dict) -> None:
        self.status = status
        self.payload = payload
        super().__init__(
            f"HTTP {status}: {payload.get('error', payload)}"
        )

    @property
    def is_backpressure(self) -> bool:
        return self.status == 429


class _Stale(Exception):
    """A kept connection was closed by the server while idle."""


class ServiceClient:
    """One service endpoint over persistent connections.

    Threads may share a client: each request holds its connection
    alone.  :meth:`close` (or leaving a ``with`` block) closes the idle
    connections; a later request opens a new one.
    """

    def __init__(self, host: str, port: int,
                 timeout: float = DEFAULT_TIMEOUT) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self._idle: List[socket.socket] = []
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close the idle connections."""
        with self._lock:
            idle, self._idle = self._idle, []
        for sock in idle:
            sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- plumbing ------------------------------------------------------

    def _open(self, method: str, path: str, body: Optional[Dict] = None
              ) -> Tuple[socket.socket, int, Dict[str, str], bytes]:
        """Send one request; return the socket, the response's status
        and headers, and the body bytes read along with the head.

        A kept connection that the server closed while it was idle
        fails before any response byte; the request then goes once
        more over a new connection.  The server closes only idle
        connections, so no request is sent twice.
        """
        head = (f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n")
        payload = b""
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            head += "Content-Type: application/json\r\n"
        if body is not None or method == "POST":
            head += f"Content-Length: {len(payload)}\r\n"
        wire = head.encode("latin-1") + b"\r\n" + payload
        with self._lock:
            sock = self._idle.pop() if self._idle else None
        if sock is not None:
            try:
                return self._exchange(sock, wire, reused=True)
            except _Stale:
                pass
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)
        return self._exchange(sock, wire, reused=False)

    @staticmethod
    def _exchange(sock: socket.socket, wire: bytes, reused: bool
                  ) -> Tuple[socket.socket, int, Dict[str, str], bytes]:
        try:
            try:
                sock.sendall(wire)
                chunk = sock.recv(_RECV)
            except ConnectionError:
                if not reused:
                    raise
                chunk = b""
            data = chunk
            while chunk and b"\r\n\r\n" not in data:
                chunk = sock.recv(_RECV)
                data += chunk
            if not chunk:
                if reused and not data:
                    raise _Stale
                raise ConnectionResetError(
                    "service closed the connection before a response"
                )
            raw_head, _, rest = data.partition(b"\r\n\r\n")
            lines = raw_head.decode("latin-1").split("\r\n")
            status = int(lines[0].split(None, 2)[1])
            headers = {}
            for line in lines[1:]:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        except BaseException:
            sock.close()
            raise
        return sock, status, headers, rest

    def _release(self, sock: socket.socket,
                 headers: Dict[str, str]) -> None:
        """Keep a connection whose response was read whole, unless the
        server said it closes it."""
        if "close" in headers.get("connection", "").lower():
            sock.close()
        else:
            with self._lock:
                self._idle.append(sock)

    def _body(self, sock: socket.socket, headers: Dict[str, str],
              rest: bytes) -> bytes:
        """The response body: exactly ``Content-Length`` bytes; the
        connection is then released."""
        try:
            length = headers.get("content-length")
            if length is None:
                raise ValueError("service response has no Content-Length")
            buf = bytearray(int(length))
            got = min(len(rest), len(buf))
            buf[:got] = rest[:got]
            view = memoryview(buf)
            while got < len(buf):
                n = sock.recv_into(view[got:])
                if not n:
                    raise ConnectionResetError(
                        f"service closed the connection after {got} of "
                        f"{len(buf)} body bytes"
                    )
                got += n
        except BaseException:
            sock.close()
            raise
        if len(rest) > len(buf):  # bytes past the body: out of step
            sock.close()
        else:
            self._release(sock, headers)
        return buf

    @staticmethod
    def _decode(status: int, body: bytes) -> Dict:
        raw = body.decode("utf-8")
        try:
            doc = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            doc = {"error": raw}
        if status >= 400:
            raise ServiceError(status, doc)
        return doc

    def _request(self, method: str, path: str,
                 body: Optional[Dict] = None) -> Dict:
        sock, status, headers, rest = self._open(method, path, body)
        return self._decode(status, self._body(sock, headers, rest))

    def _events(self, job_id: str, follow: bool, cursor: int,
                deadline: Optional[float]) -> Iterator[Dict]:
        follow_q = "1" if follow else "0"
        sock, status, headers, raw = self._open(
            "GET",
            f"/v1/jobs/{job_id}/events?follow={follow_q}&cursor={cursor}",
        )
        if status >= 400:  # raises ServiceError
            self._decode(status, self._body(sock, headers, raw))
        ended = False
        try:
            if headers.get("transfer-encoding", "").lower() != "chunked":
                raise ValueError("service event stream is not chunked")
            text = b""
            while True:
                data, raw, ended = _dechunk(raw)
                *lines, text = (text + data).split(b"\n")
                for line in lines:
                    if line.strip():
                        yield json.loads(line.decode("utf-8"))
                if ended:
                    return
                if deadline is not None:
                    left = deadline - time.monotonic()
                    if left <= 0:
                        raise TimeoutError("event stream deadline passed")
                    sock.settimeout(min(self.timeout, left))
                chunk = sock.recv(_RECV)
                if not chunk:
                    raise ConnectionResetError(
                        "service closed the connection before the end "
                        "of the event stream"
                    )
                raw += chunk
        finally:
            if ended and not raw:
                if deadline is not None:
                    sock.settimeout(self.timeout)
                self._release(sock, headers)
            else:
                sock.close()

    # -- API -----------------------------------------------------------

    def healthz(self) -> Dict:
        return self._request("GET", "/v1/healthz")

    def stats(self) -> Dict:
        return self._request("GET", "/v1/stats")

    def submit(self, campaign: Dict,
               tenant: Optional[str] = None) -> Dict:
        body: Dict = {"campaign": campaign}
        if tenant is not None:
            body["tenant"] = tenant
        return self._request("POST", "/v1/jobs", body)

    def jobs(self) -> Dict:
        return self._request("GET", "/v1/jobs")

    def status(self, job_id: str) -> Dict:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def results(self, job_id: str, lite: bool = False) -> Dict:
        suffix = "?lite=1" if lite else ""
        return self._request(
            "GET", f"/v1/jobs/{job_id}/results{suffix}"
        )

    def cancel(self, job_id: str) -> Dict:
        return self._request("POST", f"/v1/jobs/{job_id}/cancel")

    def stream(self, job_id: str, follow: bool = True,
               cursor: int = 0) -> Iterator[Dict]:
        """Yield event dicts from the job's NDJSON feed.

        The feed ends with the response's zero-length chunk; a last
        line without its newline is incomplete and is dropped.  An
        iterator abandoned before that chunk was read closes its
        connection.
        """
        return self._events(job_id, follow, cursor, None)

    def wait(self, job_id: str, timeout: float = 300.0) -> Dict:
        """Follow the job's stream to its end; return the final status.

        A drain also ends the stream, with the job still queued; the
        stream is then followed again from where it stopped.
        """
        deadline = time.monotonic() + timeout
        cursor = 0
        while True:
            try:
                for _ in self._events(job_id, True, cursor, deadline):
                    cursor += 1
            except TimeoutError:
                pass
            status = self.status(job_id)
            if status["state"] in ("done", "failed", "cancelled"):
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} after "
                    f"{timeout}s"
                )


def _dechunk(raw: bytes) -> Tuple[bytes, bytes, bool]:
    """Split the complete chunks off the front of a chunked body.

    Returns their joined payload, the bytes that do not make a whole
    chunk yet, and whether the zero-length last chunk was read (the
    service sends no chunk extensions and no trailers).
    """
    parts = []
    pos = 0
    while True:
        eol = raw.find(b"\r\n", pos)
        if eol < 0:
            break
        size = int(raw[pos:eol], 16)
        end = eol + 2 + size
        if len(raw) < end + 2:
            break
        if raw[end:end + 2] != b"\r\n":
            raise ValueError("malformed chunk in the service event stream")
        if size == 0:
            return b"".join(parts), raw[end + 2:], True
        parts.append(raw[eol + 2:end])
        pos = end + 2
    return b"".join(parts), raw[pos:], False


def discover(state_dir: str, timeout: float = DEFAULT_TIMEOUT,
             wait_s: float = 0.0) -> ServiceClient:
    """Client for the server advertised in ``<state_dir>/server.json``.

    ``wait_s`` polls for the file to appear — useful right after
    spawning a server process.  A file whose recorded ``pid`` is not
    running was left by a killed server and counts as no file.
    """
    path = os.path.join(state_dir, "server.json")
    deadline = time.monotonic() + wait_s
    while True:
        stale = None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            if pid_alive(doc["pid"]):
                return ServiceClient(
                    doc["host"], doc["port"], timeout=timeout
                )
            stale = doc["pid"]
        except (OSError, ValueError, KeyError):
            pass
        if time.monotonic() >= deadline:
            if stale is not None:
                raise FileNotFoundError(
                    f"server.json under {state_dir!r} names pid {stale}, "
                    "which is not running — is the service running?"
                )
            raise FileNotFoundError(
                f"no readable server.json under {state_dir!r} — "
                "is the service running?"
            )
        time.sleep(0.05)
