"""Cheap per-query features and their discretization.

The planner's cost estimates are keyed by a small discrete
*feature bucket*; everything extracted here is O(1) per query:

- ``k`` — result size (larger ``k`` favors index/twofold methods over
  pure streams, Figure 8);
- ``alpha`` — the social/spatial preference (the dominant crossover
  axis of Figures 7 and 9: SFA wins social-heavy queries, SPA
  spatial-heavy ones);
- ``degree`` — the query user's out-degree in the social graph (a
  high-degree hub makes the social stream expand fast and cheap, the
  searchability effect of Watts–Dodds–Newman);
- ``cell_density`` — the population of the query user's spatial index
  cell relative to the average nonempty cell (dense urban cells make
  the spatial stream productive; sparse ones make it pop empty rings);
- ``fanout`` — the number of nonempty shards a scatter query could fan
  out across (1 on a single engine).  Scatter-gather pays a per-shard
  coordination cost but parallelises across cores, so the same method
  has genuinely different cost curves at different fan-outs — keying
  the cost model on it lets ``method="auto"`` learn when scatter is
  worth it instead of averaging one-shard and eight-shard economics
  into a single estimate;
- ``budget`` — the query's accuracy budget (``None``/``0`` = exact
  required).  Budgeted and exact traffic have different candidate sets
  (only budgeted buckets may resolve to the sketch fast path), so
  mixing them under one bucket would let approx's cheap observations
  poison the estimates exact queries rely on;
- ``social_hit`` — whether the engine's
  :class:`~repro.social.cache.SocialColumnCache` holds a full column
  for the query user.  A warm column collapses every
  forward-deterministic method to one dense scan (microseconds) while
  AIS-family methods ignore the cache entirely — the same query is in
  genuinely different cost regimes warm vs cold, so the planner must
  not average them (probed via
  :meth:`~repro.social.cache.SocialColumnCache.contains_full`, which
  touches no statistics and no LRU order — observation must not
  perturb the observed).

Extraction is duck-typed over both engine kinds: a single
:class:`~repro.core.engine.GeoSocialEngine` exposes its grid directly,
a :class:`~repro.shard.ShardedGeoSocialEngine` is probed through the
query user's owning shard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.request import QueryRequest

#: ``(k_bucket, alpha_bucket, degree_bucket, density_bucket,
#: fanout_bucket, budget_bucket, social_hit)`` — each new dimension is
#: appended last so positional consumers of the older dimensions (the
#: cost model's alpha-marginal keys on ``bucket[1]``) stay valid
FeatureBucket = tuple

_K_EDGES = (10, 20, 40)
_ALPHA_EDGES = (0.25, 0.5, 0.75)
_DENSITY_EDGES = (0.5, 2.0, 8.0)
_FANOUT_EDGES = (1, 2, 4)
#: bucket 0 is exactly the exact-required regime (``budget <= 0``)
_BUDGET_EDGES = (0.0, 0.02, 0.2)
_MAX_DEGREE_BUCKET = 6


def _bucketize(value: float, edges: tuple) -> int:
    for i, edge in enumerate(edges):
        if value <= edge:
            return i
    return len(edges)


@dataclass(frozen=True)
class QueryFeatures:
    """The planner's per-query feature vector.

        >>> from repro.plan import QueryFeatures
        >>> QueryFeatures(k=30, alpha=0.3, degree=12, cell_density=1.5).bucket()
        (2, 1, 3, 1, 0, 0, 0)
        >>> QueryFeatures(k=30, alpha=0.3, degree=12, cell_density=1.5,
        ...               fanout=4).bucket()
        (2, 1, 3, 1, 2, 0, 0)
        >>> QueryFeatures(k=30, alpha=0.3, degree=12, cell_density=1.5,
        ...               budget=0.05).bucket()
        (2, 1, 3, 1, 0, 2, 0)
        >>> QueryFeatures(k=30, alpha=0.3, degree=12, cell_density=1.5,
        ...               social_hit=True).bucket()
        (2, 1, 3, 1, 0, 0, 1)
    """

    k: int
    alpha: float
    degree: int
    #: query-cell population / average nonempty-cell population
    #: (0.0 when the query user is unlocated or the grid is empty)
    cell_density: float
    #: nonempty shards a scatter could fan out across (1 = unsharded)
    fanout: int = 1
    #: per-query accuracy budget (``None`` ≡ ``0.0`` ≡ exact required)
    budget: float | None = None
    #: a full social column for the query user is cached (warm regime)
    social_hit: bool = False

    def bucket(self) -> FeatureBucket:
        """Discretize into the cost model's key (small, stable arity)."""
        return (
            _bucketize(self.k, _K_EDGES),
            _bucketize(self.alpha, _ALPHA_EDGES),
            min(int(math.log2(self.degree + 1)), _MAX_DEGREE_BUCKET),
            _bucketize(self.cell_density, _DENSITY_EDGES),
            _bucketize(self.fanout, _FANOUT_EDGES),
            _bucketize(self.budget if self.budget is not None else 0.0, _BUDGET_EDGES),
            int(self.social_hit),
        )


def _grid_for(engine, user: int):
    """The spatial grid covering ``user`` on either engine kind."""
    grid = getattr(engine, "grid", None)
    if grid is not None:
        return grid
    # Sharded engine: probe the owning shard's member-filtered grid.
    shard_of_user = getattr(engine, "shard_of_user", None)
    engines = getattr(engine, "_engines", None)
    if shard_of_user is None or not engines:
        return None
    sid = shard_of_user(user)
    shard = engines.get(sid) if sid is not None else None
    return shard.grid if shard is not None else None


def local_cell_density(engine, user: int) -> float:
    """Population of the query user's grid cell relative to the average
    nonempty cell (``0.0`` for unlocated users / empty grids)."""
    location = engine.locations.get(user)
    if location is None:
        return 0.0
    grid = _grid_for(engine, user)
    if grid is None:
        return 0.0
    indexed = len(grid)
    nonempty = len(grid.cells)
    if indexed == 0 or nonempty == 0:
        return 0.0
    population = len(grid.users_in(*grid.cell_of(*location)))
    return population * nonempty / indexed


def scatter_fanout(engine) -> int:
    """Number of nonempty shards a scatter query fans out across
    (``1`` on a single engine — there is nothing to scatter)."""
    bounds = getattr(engine, "_bounds", None)
    if not bounds:
        return 1
    return max(1, sum(1 for b in bounds.values() if b.count > 0))


def extract_features(engine, request: "QueryRequest") -> QueryFeatures:
    """O(1) feature extraction against either engine kind (never
    raises for unlocated users — the searcher surfaces that error)."""
    cache = engine.social_cache
    user = request.user
    return QueryFeatures(
        k=request.k,
        alpha=request.alpha,
        degree=engine.graph.degree(user),
        cell_density=local_cell_density(engine, user),
        fanout=scatter_fanout(engine),
        budget=request.budget,
        social_hit=cache.contains_full(user) if cache is not None else False,
    )
