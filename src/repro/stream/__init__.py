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
  the registry hooks the engine's location-listener stream (and
  detects the engine swap that folds edge updates in) and keeps every
  subscription's
  :class:`~repro.core.result.SSRQResult` equal to what a fresh
  ``engine.query`` would return *right now*;
- :mod:`repro.stream.conditions` — the NO-OP / REPAIR / RECOMPUTE
  rule (screen, single-member re-score, inverted index), written once
  and called by the registry and by the repair-aware
  :class:`~repro.service.cache.ResultCache` alike;
- :class:`Subscription` / :class:`StreamStats` — the standing-query
  handle and the maintenance counters.

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

from repro.stream.conditions import (
    NOOP,
    RECOMPUTE,
    REPAIR,
    REPAIRABLE_METHODS,
    classify_location_update,
    entry_lower_bound,
    entry_radius,
)
from repro.stream.registry import SubscriptionRegistry
from repro.stream.subscription import StreamStats, Subscription

__all__ = [
    "SubscriptionRegistry",
    "Subscription",
    "StreamStats",
    "REPAIRABLE_METHODS",
    "NOOP",
    "REPAIR",
    "RECOMPUTE",
    "classify_location_update",
    "entry_lower_bound",
    "entry_radius",
]
