"""Stdlib HTTP client for the sweep service.

Mirrors the ``/v1`` API one method per endpoint.  Every method raises
:class:`ServiceError` on a non-2xx response, carrying the HTTP status
and the decoded error payload — a 429 therefore surfaces as
``ServiceError`` with ``status == 429`` and the queue details intact,
which is what callers implementing backoff need.

The client speaks the server's HTTP/1.1 over a plain socket, one
connection per request.  A JSON response is framed by its
``Content-Length``: the client stops reading once the body is in, so a
peer that keeps the socket open cannot stall it.  Only the NDJSON event
stream is read until the server closes the connection.

:meth:`ServiceClient.stream` yields event dicts live from the NDJSON
feed until the job reaches a terminal state (or the non-follow dump
ends).  :func:`discover` finds a running server from the ``server.json``
a service writes into its state directory.
"""

from __future__ import annotations

import json
import os
import socket
import time
from typing import Dict, Iterator, Optional, Tuple

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


class ServiceClient:
    """One service endpoint; connections are per-request."""

    def __init__(self, host: str, port: int,
                 timeout: float = DEFAULT_TIMEOUT) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout

    # -- plumbing ------------------------------------------------------

    def _open(self, method: str, path: str, body: Optional[Dict] = None
              ) -> Tuple[socket.socket, int, Dict[str, str], bytes]:
        """Send one request; return the socket, the response's status
        and headers, and the body bytes read along with the head."""
        head = (f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n")
        payload = b""
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            head += "Content-Type: application/json\r\n"
        if body is not None or method == "POST":
            head += f"Content-Length: {len(payload)}\r\n"
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)
        try:
            sock.sendall(head.encode("latin-1") + b"\r\n" + payload)
            data = b""
            while b"\r\n\r\n" not in data:
                chunk = sock.recv(_RECV)
                if not chunk:
                    raise ConnectionResetError(
                        "service closed the connection before a response"
                    )
                data += chunk
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

    @staticmethod
    def _body(sock: socket.socket, headers: Dict[str, str],
              rest: bytes) -> bytes:
        """The response body: exactly ``Content-Length`` bytes."""
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
        try:
            return self._decode(status, self._body(sock, headers, rest))
        finally:
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

        The feed ends when the server closes the connection; a last
        line without its newline is incomplete and is dropped.
        """
        follow_q = "1" if follow else "0"
        sock, status, headers, buffer = self._open(
            "GET",
            f"/v1/jobs/{job_id}/events?follow={follow_q}&cursor={cursor}",
        )
        try:
            if status >= 400:  # raises ServiceError
                self._decode(status, self._body(sock, headers, buffer))
            while True:
                *lines, buffer = buffer.split(b"\n")
                for line in lines:
                    if line.strip():
                        yield json.loads(line.decode("utf-8"))
                chunk = sock.recv(_RECV)
                if not chunk:
                    break
                buffer += chunk
        finally:
            sock.close()

    def wait(self, job_id: str, timeout: float = 300.0,
             poll_s: float = 0.05) -> Dict:
        """Poll status until the job is terminal; returns final status."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in ("done", "failed", "cancelled"):
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} after "
                    f"{timeout}s"
                )
            time.sleep(poll_s)


def discover(state_dir: str, timeout: float = DEFAULT_TIMEOUT,
             wait_s: float = 0.0) -> ServiceClient:
    """Client for the server advertised in ``<state_dir>/server.json``.

    ``wait_s`` polls for the file to appear — useful right after
    spawning a server process.
    """
    path = os.path.join(state_dir, "server.json")
    deadline = time.monotonic() + wait_s
    while True:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            return ServiceClient(
                doc["host"], doc["port"], timeout=timeout
            )
        except (OSError, ValueError, KeyError):
            if time.monotonic() >= deadline:
                raise FileNotFoundError(
                    f"no readable server.json under {state_dir!r} — "
                    "is the service running?"
                ) from None
            time.sleep(0.05)
