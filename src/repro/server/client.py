"""Stdlib client for the SSRQ HTTP API.

:class:`ServerClient` is the package's own consumer of the wire format
— the conformance suite, the operator CLI and the load benchmark all
speak to the server through it: JSON in, JSON out, typed errors
re-raised as :class:`ServerApiError`.  It reads HTTP itself: the API
answers with ``Content-Length`` bodies plus one chunked
``text/event-stream`` (``/subscribe``, which ``http.client`` cannot
read incrementally), so one small reader serves both
:meth:`ServerClient.request`, over a keep-alive socket, and
:meth:`ServerClient.tail`.

One client holds one keep-alive connection and is **not** thread-safe;
concurrent callers (the backpressure tests, the load generator) create
one client per thread.
"""

from __future__ import annotations

import json
import socket
from typing import Iterator, Optional
from urllib.parse import urlencode

from repro.core.request import QueryRequest

__all__ = ["ServerApiError", "ServerClient"]


class ServerApiError(Exception):
    """A non-2xx API response, carrying the typed error body."""

    def __init__(self, status: int, code: str, message: str, *, headers=None) -> None:
        super().__init__(f"[{status} {code}] {message}")
        self.status = status
        self.code = code
        self.message = message
        self.headers = dict(headers or {})

    @classmethod
    def from_response(cls, status: int, headers: dict, payload: object) -> "ServerApiError":
        error = payload.get("error", {}) if isinstance(payload, dict) else {}
        return cls(
            status, error.get("type", "unknown"), error.get("message", str(payload)), headers=headers
        )

    @property
    def retry_after(self) -> "float | None":
        raw = self.headers.get("Retry-After")
        return float(raw) if raw is not None else None


class ServerClient:
    """Synchronous client for one :class:`~repro.server.SSRQServer`."""

    def __init__(self, host: str, port: int, *, timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: "socket.socket | None" = None
        self._reader = None

    # -- plumbing ------------------------------------------------------

    def _connect(self, timeout: "float | None" = None):
        """A fresh ``(socket, buffered reader)`` pair."""
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout if timeout is None else timeout
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock, sock.makefile("rb")

    def close(self) -> None:
        if self._sock is not None:
            self._reader.close()
            self._sock.close()
            self._sock = self._reader = None

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _message(self, method: str, target: str, headers: dict, body: bytes = b"") -> bytes:
        lines = [f"{method} {target} HTTP/1.1", f"Host: {self.host}:{self.port}"]
        lines += [f"{name}: {value}" for name, value in headers.items()]
        lines.append(f"Content-Length: {len(body)}\r\n\r\n")
        return "\r\n".join(lines).encode("latin-1") + body

    def _exchange(self, message: bytes) -> "tuple[int, dict, object]":
        if self._sock is None:
            self._sock, self._reader = self._connect()
        self._sock.sendall(message)
        status, headers = _read_response_head(self._reader)
        return status, headers, _read_body(self._reader, headers)

    def request(
        self,
        method: str,
        path: str,
        body: "dict | None" = None,
        *,
        headers: "dict | None" = None,
    ) -> "tuple[int, dict, object]":
        """One request; returns ``(status, response_headers, payload)``
        without raising on error statuses (the raw-access path the
        tests use to inspect error bodies)."""
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
        send_headers = {"Content-Type": "application/json"}
        send_headers.update(headers or {})
        message = self._message(method, path, send_headers, payload)
        try:
            response = self._exchange(message)
        except (ConnectionError, socket.timeout):
            # the server closes connections after framing errors and
            # during shutdown; retry once on a fresh connection
            self.close()
            response = self._exchange(message)
        if response[1].get("Connection", "").lower() == "close":
            self.close()
        return response

    def call(
        self,
        method: str,
        path: str,
        body: "dict | None" = None,
        *,
        headers: "dict | None" = None,
    ) -> dict:
        """Like :meth:`request` but raises :class:`ServerApiError` on
        any non-2xx status."""
        status, response_headers, payload = self.request(
            method, path, body, headers=headers
        )
        if not 200 <= status < 300:
            raise ServerApiError.from_response(status, response_headers, payload)
        return payload

    @staticmethod
    def _deadline_headers(deadline_ms: "float | None") -> "dict | None":
        return None if deadline_ms is None else {"X-Deadline-Ms": str(deadline_ms)}

    # -- queries -------------------------------------------------------

    def query(
        self,
        user: "int | QueryRequest",
        *,
        k: "int | None" = None,
        alpha: "float | None" = None,
        method: "str | None" = None,
        budget: "float | None" = None,
        deadline_ms: "float | None" = None,
    ) -> dict:
        """``POST /query`` for one request (a user id plus overrides of
        the :class:`~repro.core.request.QueryRequest` defaults, or a
        ready-made request — validated here, with the wording the
        server would answer)."""
        request = QueryRequest.coerce(user, k, alpha, method, budget)
        return self.call(
            "POST", "/query", request.payload(), headers=self._deadline_headers(deadline_ms)
        )

    def query_batch(
        self,
        requests: "list[dict]",
        *,
        deadline_ms: "float | None" = None,
        **defaults,
    ) -> dict:
        body = dict(defaults)
        body["requests"] = requests
        return self.call(
            "POST", "/query/batch", body, headers=self._deadline_headers(deadline_ms)
        )

    # -- updates -------------------------------------------------------

    def move(self, user: int, x: float, y: float) -> dict:
        return self.call("POST", "/update/location", {"user": user, "x": x, "y": y})

    def forget(self, user: int) -> dict:
        return self.call("POST", "/update/location", {"user": user, "forget": True})

    def update_edge(self, u: int, v: int, weight: "float | None") -> dict:
        return self.call("POST", "/update/edge", {"u": u, "v": v, "weight": weight})

    # -- snapshots -----------------------------------------------------

    def snapshot(self, root: str, *, fold: bool = True) -> dict:
        return self.call("POST", "/snapshot", {"root": root, "fold": fold})

    def restore(self, root: str) -> dict:
        return self.call("POST", "/restore", {"root": root})

    # -- introspection -------------------------------------------------

    def healthz(self) -> dict:
        return self.call("GET", "/healthz")

    def stats(self) -> dict:
        return self.call("GET", "/stats")

    def metrics(self, *, format: str = "text") -> "str | dict":
        path = "/metrics?format=json" if format == "json" else "/metrics"
        return self.call("GET", path)

    # -- subscription streaming ---------------------------------------

    def tail(
        self,
        user: "int | QueryRequest",
        *,
        k: "int | None" = None,
        alpha: "float | None" = None,
        method: "str | None" = None,
        heartbeats: bool = False,
        timeout: "float | None" = None,
    ) -> "Iterator[tuple[str, object]]":
        """Stream ``(event, payload)`` pairs from ``/subscribe`` until
        the server ends the stream (after an ``end`` event) or the
        caller closes the generator.

        Events are ``snapshot``/``suspended`` (full subscription
        state), ``delta`` (what changed), ``end`` — and, with
        ``heartbeats=True``, ``("heartbeat", None)`` for the server's
        keep-alive comments."""
        request = QueryRequest.coerce(user, k, alpha, method)
        params = {name: v for name, v in request.payload().items() if v is not None}
        target = f"/subscribe?{urlencode(params)}"
        sock, reader = self._connect(timeout)
        try:
            sock.sendall(self._message("GET", target, {"Accept": "text/event-stream"}))
            status, headers = _read_response_head(reader)
            if status != 200:
                raise ServerApiError.from_response(status, headers, _read_body(reader, headers))
            for frame in _iter_chunks(reader):
                parsed = _parse_sse_frame(frame)
                if parsed is None:
                    if heartbeats:
                        yield "heartbeat", None
                    continue
                yield parsed
                if parsed[0] == "end":
                    return
        finally:
            reader.close()
            sock.close()


def _read_response_head(reader) -> "tuple[int, dict]":
    """Status and headers (names as sent) of the next response.  A
    connection the server has closed, or anything that is not a status
    line, is a ``ConnectionError``."""
    status_line = reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection before responding")
    try:
        status = int(status_line.split(None, 2)[1])
    except (IndexError, ValueError):
        raise ConnectionError(f"malformed status line: {status_line!r}") from None
    headers: dict = {}
    while True:
        line = reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip()] = value.strip()
    return status, headers


def _read_body(reader, headers: dict) -> object:
    """The ``Content-Length`` body of a response whose head was read:
    JSON decoded (``None`` when empty), anything else as text."""
    length = int(headers.get("Content-Length", 0))
    raw = reader.read(length) if length else b""
    if len(raw) < length:
        raise ConnectionError("server closed the connection mid-body")
    if headers.get("Content-Type", "").startswith("application/json"):
        return json.loads(raw) if raw else None
    return raw.decode("utf-8", "replace")


def _iter_chunks(reader) -> "Iterator[bytes]":
    """Decode HTTP/1.1 chunked framing; each SSE frame is one chunk."""
    while True:
        size_line = reader.readline()
        if not size_line:
            return  # connection dropped mid-stream
        size = int(size_line.strip().split(b";")[0], 16)
        if size == 0:
            reader.readline()  # trailing CRLF after the last chunk
            return
        data = reader.read(size)
        reader.read(2)  # chunk-terminating CRLF
        yield data


def _parse_sse_frame(frame: bytes) -> "Optional[tuple[str, object]]":
    """``(event, payload)`` from one SSE frame; ``None`` for comments."""
    event = "message"
    data_lines = []
    for line in frame.decode("utf-8").splitlines():
        if line.startswith(":"):
            return None
        if line.startswith("event:"):
            event = line[len("event:"):].strip()
        elif line.startswith("data:"):
            data_lines.append(line[len("data:"):].strip())
    if not data_lines:
        return None
    return event, json.loads("\n".join(data_lines))
