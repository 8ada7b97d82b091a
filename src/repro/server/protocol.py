"""Request parsing and introspection payloads for the HTTP API.

The wire shapes live in one place each: query requests in
:mod:`repro.core.request` (``QueryRequest.from_payload`` / ``.payload``),
responses in :mod:`repro.service.model` (``QueryResponse.payload``),
subscription deltas in :mod:`repro.stream.deltas`, and the operational
read-outs here —
``/stats`` aggregates every stats object the stack exposes
(:class:`~repro.service.model.ServiceStats`, cache info,
:class:`~repro.plan.PlannerStats`,
:class:`~repro.stream.subscription.StreamStats`, and the server's own
admission counters) into one JSON document, which ``/metrics`` also
flattens into Prometheus text format via :mod:`repro.server.metrics`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.request import QueryRequest
from repro.server.errors import ApiError, INVALID_ARGUMENT

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.service import QueryService


def parse_batch(obj: dict) -> "list[QueryRequest]":
    """The requests of a batch body::

        {"requests": [{"user": 1}, {"user": 2, "k": 5}],
         "k": 10, "alpha": 0.5, "method": "auto"}

    Top-level request fields act as defaults for the per-request
    objects, mirroring ``QueryService.query_many``.
    """
    requests = obj.get("requests")
    if not isinstance(requests, list) or not requests:
        raise ApiError(
            400, INVALID_ARGUMENT, "batch body needs a non-empty 'requests' array"
        )
    return [QueryRequest.from_payload(item, obj) for item in requests]


def stats_payload(
    service: "QueryService", server=None, registry=None
) -> dict:
    """Every layer's counters in one document (stable section names)."""
    payload: dict = {
        "service": service.stats.snapshot(),
        "cache": service.cache_info(),
    }
    engine = service.engine
    # touching ``engine.planner`` would *build* one; only report a
    # planner that auto traffic has actually instantiated
    planner = getattr(engine, "_planner", None)
    if planner is not None:
        payload["planner"] = planner.stats.snapshot()
    if registry is not None:
        payload["stream"] = registry.stats.snapshot()
    if server is not None:
        payload["server"] = server.stats_snapshot()
    payload["engine"] = {
        "kind": type(engine).__name__,
        "users": engine.graph.n,
        "backend": getattr(getattr(engine, "kernels", None), "name", "unknown"),
    }
    return payload
