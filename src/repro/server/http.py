"""Minimal HTTP/1.1 framing over asyncio streams.

The serving boundary is deliberately hand-rolled on ``asyncio``'s
stream primitives: the repo's hard rule is *no new runtime
dependencies*, and the subset of HTTP/1.1 the API needs — request line,
headers, ``Content-Length`` bodies, keep-alive, chunked responses for
the SSE subscription stream — is small enough that owning the framing
keeps the whole network path auditable (and byte-deterministic for the
conformance suite).

Unsupported constructs are rejected early rather than half-parsed:
chunked *request* bodies, oversized bodies and malformed framing all
raise :class:`ProtocolError`, which the server answers with a typed
``400`` body and a connection close (the stream position is no longer
trustworthy after a framing error).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING
from urllib.parse import parse_qs, urlsplit

from repro.service.model import json_bytes

if TYPE_CHECKING:  # pragma: no cover
    import asyncio

#: one line of request framing (request line or a single header)
MAX_LINE = 8192
MAX_HEADERS = 100
#: request-body ceiling — batches of a few thousand queries fit well
#: under it, and it bounds a single connection's memory
MAX_BODY = 8 * 1024 * 1024

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ProtocolError(Exception):
    """Malformed HTTP framing; the connection is answered 400 and
    closed (the stream position is no longer trustworthy)."""


@dataclass
class HTTPRequest:
    """One parsed request."""

    method: str
    #: path with the query string stripped
    path: str
    #: decoded query-string parameters (first value wins)
    params: dict = field(default_factory=dict)
    headers: dict = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"

    def json(self) -> dict:
        """The body as a JSON object (``{}`` for an empty body)."""
        if not self.body:
            return {}
        try:
            data = json.loads(self.body)
        except (ValueError, UnicodeDecodeError) as err:
            raise ProtocolError(f"request body is not valid JSON: {err}") from None
        if not isinstance(data, dict):
            raise ProtocolError("request body must be a JSON object")
        return data


async def _read_line(reader: "asyncio.StreamReader") -> bytes:
    try:
        line = await reader.readline()
    except ValueError:
        # no newline within the stream's buffer limit (64 KiB): asyncio
        # reports the overrun as ValueError before a length can be read
        raise ProtocolError("header line too long") from None
    if len(line) > MAX_LINE:
        raise ProtocolError("header line too long")
    return line


async def read_request(reader: "asyncio.StreamReader") -> HTTPRequest | None:
    """Read one request off the stream; ``None`` on a clean EOF
    between requests (client closed a keep-alive connection)."""
    line = await _read_line(reader)
    if not line:
        return None
    try:
        method, target, version = line.decode("ascii").split()
    except ValueError:
        raise ProtocolError(f"malformed request line: {line!r}") from None
    if not version.startswith("HTTP/1."):
        raise ProtocolError(f"unsupported protocol version {version!r}")
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = await _read_line(reader)
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise ProtocolError("connection closed mid-headers")
        try:
            name, _, value = line.decode("latin-1").partition(":")
        except UnicodeDecodeError:  # pragma: no cover - latin-1 total
            raise ProtocolError("undecodable header") from None
        if not _ or not name.strip():
            raise ProtocolError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise ProtocolError("too many headers")
    if headers.get("transfer-encoding", "").lower() == "chunked":
        # refused (a 400 and a close) rather than left to hang: the API
        # never needs chunked request bodies and the parser does not
        # implement them
        raise ProtocolError("chunked request bodies are not supported")
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise ProtocolError("malformed Content-Length") from None
        if length < 0:
            raise ProtocolError("malformed Content-Length")
        if length > MAX_BODY:
            raise ProtocolError("request body too large")
        try:
            body = await reader.readexactly(length)
        except Exception as err:  # IncompleteReadError subclasses vary
            raise ProtocolError(f"connection closed mid-body: {err}") from None
    parts = urlsplit(target)
    params = {key: values[0] for key, values in parse_qs(parts.query).items()}
    return HTTPRequest(
        method=method.upper(), path=parts.path, params=params, headers=headers, body=body
    )


def encode_response(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    headers: "dict | None" = None,
    keep_alive: bool = True,
) -> bytes:
    """A full response with ``Content-Length`` framing."""
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


async def send_response(
    writer: "asyncio.StreamWriter",
    status: int,
    payload: object,
    *,
    headers: "dict | None" = None,
    keep_alive: bool = True,
) -> None:
    """Send one JSON response; ``payload`` that is already ``bytes``
    (encoded off the event loop, or a memoised answer) goes out as is."""
    body = payload if isinstance(payload, bytes) else json_bytes(payload)
    writer.write(encode_response(status, body, headers=headers, keep_alive=keep_alive))
    await writer.drain()


# -- server-sent events (chunked responses) ----------------------------


async def start_sse(writer: "asyncio.StreamWriter") -> None:
    """Open a chunked ``text/event-stream`` response."""
    writer.write(
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: text/event-stream\r\n"
        b"Cache-Control: no-store\r\n"
        b"Transfer-Encoding: chunked\r\n"
        b"Connection: close\r\n\r\n"
    )
    await writer.drain()


def _chunk(data: bytes) -> bytes:
    return f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n"


async def send_sse(
    writer: "asyncio.StreamWriter", event: str, payload: object
) -> None:
    """One ``event:``/``data:`` frame as a single chunk."""
    data = b"event: " + event.encode("ascii") + b"\ndata: " + json_bytes(payload) + b"\n\n"
    writer.write(_chunk(data))
    await writer.drain()


async def send_sse_comment(writer: "asyncio.StreamWriter") -> None:
    """A comment frame (``: hb``) — the stream's keep-alive heartbeat."""
    writer.write(_chunk(b": hb\n\n"))
    await writer.drain()


async def end_sse(writer: "asyncio.StreamWriter") -> None:
    """Terminate the chunked stream cleanly."""
    writer.write(b"0\r\n\r\n")
    await writer.drain()
