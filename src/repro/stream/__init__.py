"""Continuous top-k subscriptions: incremental result maintenance
over the update stream.

One-shot SSRQ engines answer a query and forget it.  Production
traffic repeats the *same* standing queries — "keep my top-k
companions current" — while locations move constantly, and recomputing
every standing query on every update wastes almost all of its work:
most updates provably cannot change a given result, and most of the
rest can be repaired from the previous answer far cheaper than
recomputed.

This package provides that maintenance layer:

- :class:`SubscriptionRegistry` — clients register standing queries
  ``(user, k, α, method)`` against a :class:`~repro.service.QueryService`;
  the registry follows the service (every move, forget and engine
  swap, inside the change's write lock) and keeps every
  subscription's
  :class:`~repro.core.result.SSRQResult` equal to what a fresh
  ``engine.query`` would return *right now*;
- :class:`Subscription` — the standing-query handle, home of the
  NO-OP / REPAIR / RECOMPUTE rule (:meth:`Subscription.classify`, the
  single-member re-score beside it), which the registry applies (the
  :class:`~repro.service.cache.ResultCache` screens nothing: a
  location update evicts every cached answer below ``α = 1``);
- :class:`StreamStats` — the maintenance counters.

Quickstart::

    from repro import GeoSocialEngine, QueryService, gowalla_like
    from repro.stream import SubscriptionRegistry

    engine = GeoSocialEngine.from_dataset(gowalla_like(n=2000, seed=7))
    service = QueryService(engine, cache_size=1024)
    registry = SubscriptionRegistry(service)
    sub = registry.subscribe(user=8, k=10, alpha=0.3, method="tsa")
    service.move_user(42, 0.3, 0.7)       # classified NO-OP/REPAIR/RECOMPUTE
    print(registry.result(sub).users)     # current, without a full recompute
    print(registry.stats.snapshot())
"""

from repro.stream.registry import SubscriptionRegistry
from repro.stream.subscription import NOOP, RECOMPUTE, REPAIR, StreamStats, Subscription

__all__ = [
    "SubscriptionRegistry",
    "Subscription",
    "StreamStats",
    "NOOP",
    "REPAIR",
    "RECOMPUTE",
]
