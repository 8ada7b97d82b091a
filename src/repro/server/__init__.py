"""The network boundary: an asyncio HTTP API over the query service.

The package splits the serving stack into orthogonal layers —
:mod:`~repro.server.http` (hand-rolled HTTP/1.1 framing over asyncio
streams, zero new dependencies), :mod:`~repro.server.errors` (typed
error bodies and the single exception → status mapping),
:mod:`~repro.server.protocol` (wire shapes: batch parsing, the
``/stats`` aggregate), :mod:`~repro.server.metrics` (Prometheus text
rendering) and :mod:`~repro.server.app` (the server itself: admission
control, one admitted request as one job, deadlines, SSE subscription
streams, graceful drain).  :mod:`~repro.server.client` is the matching stdlib
client, shared by the conformance tests, the operator CLI and the load
benchmark.
"""

from repro.server.app import ServerConfig, ServerStats, ServerThread, SSRQServer
from repro.server.client import ServerApiError, ServerClient
from repro.server.errors import ApiError, classify_exception, error_body
from repro.server.metrics import render_prometheus
from repro.server.protocol import stats_payload

__all__ = [
    "ApiError",
    "SSRQServer",
    "ServerApiError",
    "ServerClient",
    "ServerConfig",
    "ServerStats",
    "ServerThread",
    "classify_exception",
    "error_body",
    "render_prometheus",
    "stats_payload",
]
