"""Response model and serving statistics for the query service.

The service layer speaks in small immutable dataclasses rather than
positional arguments: a :class:`~repro.core.request.QueryRequest`
carries everything one SSRQ needs (user, ``k``, ``α``, method,
accuracy ``budget``), a :class:`QueryResponse` pairs the request with
its :class:`~repro.core.result.SSRQResult` and serving metadata (was it
a cache hit? how long did it take?), and :class:`ServiceStats` aggregates latency and cache behaviour across the
service's lifetime — including a cumulative
:class:`~repro.core.stats.SearchStats` merged from every executed query,
so the paper's cost metrics (heap pops, evaluations) remain observable
at the serving layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core.request import QueryRequest
from repro.core.result import Neighbor, SSRQResult
from repro.core.stats import SearchStats

_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def json_bytes(payload: object) -> bytes:
    """Compact, key-sorted JSON encoding — the wire form of every
    payload this package sends.

    ``inf`` round-trips as the JSON5-style ``Infinity`` literal — the
    wire format is consumed by this package's own client and CLI, and
    neighbour records legitimately carry infinite distances (a social
    distance is never computed at ``alpha == 0``), so preserving the
    exact float beats a lossy ``null``."""
    return _encode(payload).encode("utf-8")


def neighbor_payload(nb: Neighbor) -> dict:
    """One ranked neighbour as a plain dict (the wire/CLI shape).

        >>> from repro import Neighbor
        >>> from repro.service.model import neighbor_payload
        >>> neighbor_payload(Neighbor(9, 0.25, 1.0, 0.1))
        {'user': 9, 'score': 0.25, 'social': 1.0, 'spatial': 0.1}
    """
    return {"user": nb.user, "score": nb.score, "social": nb.social, "spatial": nb.spatial}


def result_payload(result: SSRQResult) -> dict:
    """An :class:`~repro.core.result.SSRQResult` as a plain dict.

    Floats are carried as-is (``json.dumps`` preserves them exactly via
    ``repr`` round-tripping), so a serialized result is bit-identical
    to the in-process one — the property the server conformance suite
    asserts end to end.
    """
    return {
        "query_user": result.query_user,
        "k": result.k,
        "alpha": result.alpha,
        "method": result.method,
        "error_bound": result.error_bound,
        "users": result.users,
        "neighbors": [neighbor_payload(nb) for nb in result.neighbors],
    }


def result_wire(result: SSRQResult) -> bytes:
    """``json_bytes(result_payload(result))``, encoded once per result
    object and kept with it (two threads racing the first call store
    the same bytes)."""
    wire = result._wire
    if wire is None:
        wire = result._wire = json_bytes(result_payload(result))
    return wire


@dataclass(frozen=True)
class QueryResponse:
    """One served SSRQ: the result plus how it was produced.

    ``cached`` marks answers taken from the result cache;
    ``deduplicated`` marks answers shared with an identical request in
    the same batch (computed once, returned to both).  ``latency`` is
    the wall-clock seconds this response cost the service — ``0.0`` for
    cache hits and duplicates.

        >>> from repro import Neighbor, SSRQResult
        >>> from repro.service import QueryRequest, QueryResponse
        >>> result = SSRQResult(0, 1, 0.5, [Neighbor(9, 0.25, 1.0, 0.1)])
        >>> response = QueryResponse(QueryRequest(0, k=1), result, cached=True)
        >>> response.users, response.cached
        ([9], True)
    """

    request: QueryRequest
    result: SSRQResult
    cached: bool = False
    deduplicated: bool = False
    latency: float = 0.0

    @property
    def users(self) -> list[int]:
        """Ranked user ids (delegates to the result)."""
        return self.result.users

    def payload(self) -> dict:
        """The response as a plain dict (the wire/CLI shape): the full
        result, how it was served, and the request it answers."""
        return {
            "result": result_payload(self.result),
            "cached": self.cached,
            "deduplicated": self.deduplicated,
            "latency": self.latency,
            "request": self.request.payload(),
        }

    def wire(self) -> bytes:
        """``json_bytes(self.payload())``, byte for byte, assembled
        around the result's memoised encoding: a cache hit joins a handful
        of fragments instead of re-encoding ``k`` neighbour records.

            >>> from repro import Neighbor, SSRQResult
            >>> from repro.service import QueryRequest, QueryResponse
            >>> from repro.service.model import json_bytes
            >>> result = SSRQResult(0, 1, 0.0, [Neighbor(9, 0.25, float("inf"), 0.1)])
            >>> response = QueryResponse(QueryRequest(0, k=1, alpha=0.0), result, cached=True)
            >>> response.wire() == json_bytes(response.payload())
            True
        """
        served = {
            "cached": self.cached,
            "deduplicated": self.deduplicated,
            "latency": self.latency,
        }
        # key order: cached < deduplicated < latency < request < result
        return b"".join(
            (
                json_bytes(served)[:-1],
                b',"request":',
                json_bytes(self.request.payload()),
                b',"result":',
                result_wire(self.result),
                b"}",
            )
        )


@dataclass
class ServiceStats:
    """Lifetime counters of one :class:`~repro.service.QueryService`.

        >>> from repro.service import ServiceStats
        >>> stats = ServiceStats(cache_hits=3, cache_misses=1)
        >>> stats.hit_rate
        0.75
        >>> stats.snapshot()["cache_hits"]
        3
    """

    #: individual requests served (cache hits included)
    requests: int = 0
    #: `query_many` invocations
    batches: int = 0
    #: requests answered from the result cache
    cache_hits: int = 0
    #: requests that missed the cache (or ran with caching disabled)
    cache_misses: int = 0
    #: requests answered by sharing a duplicate within the same batch
    deduplicated: int = 0
    #: queries actually executed against the engine
    executed: int = 0
    #: cache entries evicted by update-aware invalidation (each one
    #: forces a recompute on its next lookup)
    invalidated_entries: int = 0
    #: cache entries repaired in place by an update instead of evicted
    repaired_entries: int = 0
    #: cache entries an update examined and provably kept
    reused_entries: int = 0
    #: epoch bumps (full cache invalidations: one per engine swap;
    #: ``perfbench/measure.py`` reads the snapshot key)
    full_invalidations: int = 0
    #: wall-clock seconds spent executing queries (sum over queries)
    query_seconds: float = 0.0
    #: worst single-query execution time seen
    max_query_seconds: float = 0.0
    #: per-method executed-query counts
    per_method: dict = field(default_factory=dict)
    #: cumulative search-cost counters merged from every executed query
    search: SearchStats = field(default_factory=SearchStats)

    @property
    def hit_rate(self) -> float:
        """Cache hit rate over all requests (0.0 when nothing served)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def avg_query_seconds(self) -> float:
        """Mean execution time per *executed* query."""
        return self.query_seconds / self.executed if self.executed else 0.0

    def record_execution(self, method: str, result: SSRQResult, elapsed: float) -> None:
        """Account one engine execution (coordinator-thread only)."""
        self.executed += 1
        self.query_seconds += elapsed
        if elapsed > self.max_query_seconds:
            self.max_query_seconds = elapsed
        self.per_method[method] = self.per_method.get(method, 0) + 1
        self.search.merge(result.stats)

    def snapshot(self) -> dict:
        """A plain-dict view (stable keys; handy for logging/reports)."""
        return {
            "requests": self.requests,
            "batches": self.batches,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": self.hit_rate,
            "deduplicated": self.deduplicated,
            "executed": self.executed,
            "invalidated_entries": self.invalidated_entries,
            "repaired_entries": self.repaired_entries,
            "reused_entries": self.reused_entries,
            "full_invalidations": self.full_invalidations,
            "query_seconds": self.query_seconds,
            "avg_query_seconds": self.avg_query_seconds,
            "max_query_seconds": self.max_query_seconds,
            "per_method": dict(self.per_method),
            "total_pops": self.search.pops,
        }
