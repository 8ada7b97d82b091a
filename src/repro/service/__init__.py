"""Traffic-serving layer: batched + concurrent + cached SSRQ serving.

This package turns the single-query :class:`~repro.core.engine.GeoSocialEngine`
into a component built for heavy, skewed, dynamic traffic:

- :class:`QueryService` — batch endpoint with a worker pool, in-batch
  deduplication, and a readers-writer lock serialising updates against
  in-flight queries;
- :class:`ResultCache` — update-aware LRU over full top-k results:
  keep / repair-in-place / evict on location moves (the rule of
  :mod:`repro.stream.conditions`), epoch flush on social-edge changes;
- :class:`QueryRequest` / :class:`QueryResponse` / :class:`ServiceStats`
  — the request/response dataclasses and serving statistics.

Quickstart::

    from repro import GeoSocialEngine, gowalla_like
    from repro.service import QueryRequest, QueryService

    engine = GeoSocialEngine.from_dataset(gowalla_like(n=2000, seed=7))
    service = QueryService(engine, max_workers=4, cache_size=4096)
    responses = service.query_many(
        [QueryRequest(user=u, k=10, alpha=0.3) for u in (1, 2, 5, 6, 7, 8)]
    )
    service.move_user(42, 0.3, 0.7)       # evicts exactly what it must
    print(service.stats.snapshot())
"""

from repro.core.request import QueryRequest
from repro.service.cache import CacheStats, ResultCache
from repro.service.model import QueryResponse, ServiceStats
from repro.service.service import QueryService
from repro.utils.concurrency import ReadWriteLock

__all__ = [
    "QueryService",
    "QueryRequest",
    "QueryResponse",
    "ServiceStats",
    "ResultCache",
    "CacheStats",
    "ReadWriteLock",
]
