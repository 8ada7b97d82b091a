"""Stdlib client for the SSRQ HTTP API.

:class:`ServerClient` is the package's own consumer of the wire format
— the conformance suite, the operator CLI and the load benchmark all
speak to the server through it.  It is a thin veneer over
``http.client`` (JSON in, JSON out, typed errors re-raised as
:class:`ServerApiError`), plus a hand-rolled SSE reader for
``/subscribe``: ``http.client`` cannot incrementally read a chunked
``text/event-stream``, so :meth:`ServerClient.tail` opens a raw socket
and decodes the chunk framing itself.

One client holds one keep-alive connection and is **not** thread-safe;
concurrent callers (the backpressure tests, the load generator) create
one client per thread.
"""

from __future__ import annotations

import http.client
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
        self._conn: "http.client.HTTPConnection | None" = None

    # -- plumbing ------------------------------------------------------

    def _connection(self) -> "http.client.HTTPConnection":
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

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
        payload = None if body is None else json.dumps(body).encode("utf-8")
        send_headers = {"Content-Type": "application/json"}
        send_headers.update(headers or {})
        conn = self._connection()
        try:
            conn.request(method, path, body=payload, headers=send_headers)
            response = conn.getresponse()
            raw = response.read()
        except (ConnectionError, http.client.HTTPException, socket.timeout):
            # the server closes connections after framing errors and
            # during shutdown; retry once on a fresh connection
            self.close()
            conn = self._connection()
            conn.request(method, path, body=payload, headers=send_headers)
            response = conn.getresponse()
            raw = response.read()
        if response.getheader("Connection", "").lower() == "close":
            self.close()
        content_type = response.getheader("Content-Type", "")
        if content_type.startswith("application/json"):
            decoded: object = json.loads(raw) if raw else None
        else:
            decoded = raw.decode("utf-8")
        return response.status, dict(response.getheaders()), decoded

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
            error = (payload or {}).get("error", {}) if isinstance(payload, dict) else {}
            raise ServerApiError(
                status,
                error.get("type", "unknown"),
                error.get("message", str(payload)),
                headers=response_headers,
            )
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
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout if timeout is None else timeout
        )
        try:
            request = (
                f"GET {target} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                "Accept: text/event-stream\r\n\r\n"
            )
            sock.sendall(request.encode("ascii"))
            reader = sock.makefile("rb")
            status, headers = _read_response_head(reader)
            if status != 200:
                payload = _read_plain_body(reader, headers)
                error = (payload or {}).get("error", {}) if isinstance(payload, dict) else {}
                raise ServerApiError(
                    status,
                    error.get("type", "unknown"),
                    error.get("message", str(payload)),
                    headers=headers,
                )
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
            sock.close()


def _read_response_head(reader) -> "tuple[int, dict]":
    status_line = reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection before responding")
    parts = status_line.decode("latin-1").split(None, 2)
    status = int(parts[1])
    headers: dict = {}
    while True:
        line = reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip()] = value.strip()
    return status, headers


def _read_plain_body(reader, headers: dict) -> "object":
    length = int(headers.get("Content-Length", 0))
    raw = reader.read(length) if length else b""
    try:
        return json.loads(raw) if raw else None
    except ValueError:
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
