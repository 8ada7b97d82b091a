"""repro — Joint Search by Social and Spatial Proximity (SSRQ).

A complete reproduction of Mouratidis, Li, Tang & Mamoulis, *"Joint
Search by Social and Spatial Proximity"* (ICDE 2016): the
social-and-spatial ranking query, every processing algorithm the paper
proposes (SFA, SPA, TSA, TSA-QC, AIS and its variants, pre-computation),
every substrate it depends on (weighted graph search, ALT landmarks,
bidirectional distance modules, Contraction Hierarchies, grid spatial
indexes, the aggregate index with social summaries), calibrated dataset
generators, a benchmark harness regenerating the paper's evaluation,
a serving layer (:mod:`repro.service`) adding batching, worker-pool
concurrency, and an update-aware result cache on top of the engine,
a sharding layer (:mod:`repro.shard`) that partitions users across
spatial shards and answers by scatter-gather with bound-based shard
pruning — rankings identical to the single engine, property-tested —
and a network boundary: an asyncio HTTP server with admission
control, request coalescing, and SSE subscription streams
(:mod:`repro.server`) plus the ``repro`` operator CLI
(:mod:`repro.cli`, optional ``[cli]`` extra).

Quickstart::

    from repro import GeoSocialEngine, gowalla_like

    dataset = gowalla_like(n=2000, seed=7)
    engine = GeoSocialEngine.from_dataset(dataset)
    result = engine.query(user=8, k=10, alpha=0.3, method="ais")
    for nb in result:
        print(nb.user, nb.score, nb.social, nb.spatial)
"""

from repro.backend import resolve_backend
from repro.core.ais import AggregateIndexSearch, AISVariant
from repro.core.bounded import BoundedSearch
from repro.core.bruteforce import BruteForceSearch
from repro.core.engine import AUTO, METHODS, GeoSocialEngine
from repro.core.precompute import CachedSocialFirst, SocialNeighborCache
from repro.core.searcher import Searcher
from repro.core.ranking import Normalization, RankingFunction
from repro.core.request import QueryRequest
from repro.core.result import Neighbor, SSRQResult, TopKBuffer
from repro.core.sfa import SocialFirstSearch
from repro.core.spa import SpatialFirstSearch
from repro.core.stats import SearchStats
from repro.core.tsa import TwofoldSearch
from repro.datasets.synthetic import (
    GeoSocialDataset,
    build_dataset,
    correlated_dataset,
    forest_fire_series,
    foursquare_like,
    gowalla_like,
    twitter_like,
)
from repro.graph.socialgraph import SocialGraph
from repro.index.aggregate import AggregateIndex
from repro.plan import AdaptivePlanner, CostModel, PlanDecision, PlannerStats, QueryFeatures
from repro.plan.rules import route_method
from repro.service.cache import ResultCache
from repro.service.model import QueryResponse, ServiceStats
from repro.service.service import QueryService
from repro.shard.engine import ShardedGeoSocialEngine
from repro.sketch import ApproxSketchSearch, SketchIndex
from repro.social import SocialCacheStats, SocialColumnCache
from repro.spatial.point import BBox, LocationTable
from repro.store import (
    SnapshotManager,
    StoreCorruptionError,
    StoreError,
    load_engine,
    save_engine,
)
from repro.stream.registry import SubscriptionRegistry
from repro.stream.subscription import StreamStats, Subscription

__version__ = "1.10.0"

__all__ = [
    "__version__",
    # engine & algorithms
    "GeoSocialEngine",
    "resolve_backend",
    "METHODS",
    "AUTO",
    "route_method",
    "Searcher",
    # adaptive planner (method="auto")
    "AdaptivePlanner",
    "PlanDecision",
    "PlannerStats",
    "CostModel",
    "QueryFeatures",
    "SocialFirstSearch",
    "SpatialFirstSearch",
    "TwofoldSearch",
    "AggregateIndexSearch",
    "AISVariant",
    "SocialNeighborCache",
    "CachedSocialFirst",
    "BoundedSearch",
    "BruteForceSearch",
    # bounded-error sketch fast path (method="approx")
    "SketchIndex",
    "ApproxSketchSearch",
    # cross-query social-distance reuse
    "SocialColumnCache",
    "SocialCacheStats",
    # query model
    "Normalization",
    "RankingFunction",
    "Neighbor",
    "SSRQResult",
    "TopKBuffer",
    "SearchStats",
    # service layer
    "QueryService",
    "QueryRequest",
    "QueryResponse",
    "ServiceStats",
    "ResultCache",
    # sharding layer
    "ShardedGeoSocialEngine",
    # durable store (snapshots & warm-start)
    "SnapshotManager",
    "StoreError",
    "StoreCorruptionError",
    "save_engine",
    "load_engine",
    # stream layer (continuous queries)
    "SubscriptionRegistry",
    "Subscription",
    "StreamStats",
    # data model
    "SocialGraph",
    "LocationTable",
    "BBox",
    "AggregateIndex",
    "GeoSocialDataset",
    # dataset builders
    "build_dataset",
    "gowalla_like",
    "foursquare_like",
    "twitter_like",
    "correlated_dataset",
    "forest_fire_series",
]
