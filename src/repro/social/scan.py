"""Columnar SSRQ evaluation off a materialised social column.

:func:`dense_scan` is the scoring tail of
:class:`~repro.core.bruteforce.BruteForceSearch`, factored out so every
consumer of a cached column — a full-column hit inside SFA/SPA/TSA and
the sharded coordinator's scatter bypass — scores through literally
the same kernel calls as bruteforce.  That is what makes the cache's
exactness invariant a *structural* property rather than a
per-call-site proof: a dense ``blend`` +
``top_k_by_score`` over exact columns selects, for any ``(k, α)``, the
same ``(score, id)``-minimal set every forward-deterministic method
enumerates (all of them terminate on strict bound excess and tie-break
toward smaller ids), with the same ``Neighbor`` field conventions
(a term the ranking does not need reads ``inf``).

**The social-column step.**  :func:`column_step` is the one stage of
the query pipeline (:meth:`repro.core.engine.EngineBase.query`) that
talks to the :class:`~repro.social.cache.SocialColumnCache`: look the
query user up; a cached column answers through :func:`dense_scan` at
once; a method that needs every distance (``column="exhaust"``) gets
the column from the ``sssp_column`` kernel
(:meth:`repro.backend.base.Kernels.sssp_column`) and stores it; a
``column="bounded"`` method expands only a ball of it
(:class:`~repro.core.bounded.BoundedSearch`) and stores the column
only when the expansion came back unbounded; a ``column="stream"``
method (an incremental searcher) enumerates a fresh
:class:`~repro.graph.traversal.DijkstraIterator`, which the cache
promotes to a column if the search ran it to exhaustion.  The
searchers themselves only enumerate the stream they are given.
:func:`peek_scan` is the sharded coordinator's probe-only variant.
"""

from __future__ import annotations

import math
import time

from repro.core.ranking import RankingFunction
from repro.core.result import Neighbor, SSRQResult
from repro.core.stats import SearchStats
from repro.graph.traversal import DijkstraIterator
from repro.plan.rules import METHOD_TABLE

INF = math.inf
_NAN = math.nan

__all__ = ["column_step", "dense_scan", "materialize_column", "peek_scan", "spatial_column"]


def spatial_column(kernels, rank: RankingFunction, locations, query_user: int):
    """Distances from ``query_user``'s location to every user, the way
    bruteforce derives them: all-``inf`` when the spatial term is
    irrelevant or the query user unlocated (a NaN query point makes the
    kernel emit ``inf`` everywhere)."""
    location = locations.get(query_user) if rank.needs_spatial else None
    qx, qy = location if location is not None else (_NAN, _NAN)
    xs, ys = locations.columns()
    return kernels.euclidean_to_point(xs, ys, qx, qy)


def _take(column, positions: list) -> list:
    """``column`` at ``positions`` as plain floats — one gather for an
    array column, not one scalar indexing per position."""
    take = getattr(column, "take", None)
    if take is not None:
        return take(positions).tolist()
    return [float(column[u]) for u in positions]


def dense_scan(
    kernels,
    rank: RankingFunction,
    social_column,
    locations,
    query_user: int,
    k: int,
    initial=None,
    spatial=None,
) -> tuple[list[Neighbor], int]:
    """Score every user against ``social_column`` in one columnar pass.

    ``social_column`` must follow the bruteforce convention: exact
    distances with ``inf`` for unreachable users, or all-``inf`` when
    ``rank.needs_social`` is false.  The spatial column is
    :func:`spatial_column` (``spatial`` hands in one the caller already
    derived).  Returns ``(neighbors, finite)`` where ``finite`` is
    the number of finitely-scored users (the scan's evaluation count).
    """
    d = spatial if spatial is not None else spatial_column(kernels, rank, locations, query_user)
    scores = kernels.blend(rank.w_social, rank.w_spatial, social_column, d)
    scores[query_user] = INF  # never report the query user
    top = kernels.top_k_by_score(scores, None, k)
    neighbors = list(
        map(Neighbor, top, _take(scores, top), _take(social_column, top), _take(d, top))
    )
    if initial is not None:
        for nb in neighbors:
            initial.offer(nb.user, nb.score, nb.social, nb.spatial)
        neighbors = initial.neighbors()
    return neighbors, kernels.count_finite(scores)


def materialize_column(engine, user: int):
    """Build ``user``'s full social column with the ``sssp_column``
    kernel and hand it to the engine's column cache (when it has one)
    — what every consumer that needs all of a user's distances and
    found no cached column does."""
    column = engine.kernels.sssp_column(engine.graph, user)
    if engine.social_cache is not None:
        engine.social_cache.store_full(user, column)
    return column


def _scan_result(engine, request, rank, column, initial, stats, start) -> SSRQResult:
    """Answer ``request`` from a full ``column`` in one columnar pass —
    bit-identical to any forward-deterministic enumeration (strict
    termination + smaller-id tie-break select exactly the
    ``(score, id)``-minimal set)."""
    neighbors, finite = dense_scan(
        engine.kernels, rank, column, engine.locations, request.user, request.k, initial
    )
    stats.candidates_scored = finite
    stats.elapsed = time.perf_counter() - start
    return SSRQResult(request.user, request.k, request.alpha, neighbors, stats)


def _applies(engine, spec, request) -> "RankingFunction | None":
    """The ranking function when ``request`` may be answered off the
    query user's social column, else ``None``: the engine must carry a
    cache, the method (``spec``: its :data:`METHOD_TABLE` row) must be
    forward-deterministic (its evaluation distances *are* the
    column's), the ranking must use the social term (at ``alpha == 0``
    the ``Neighbor`` fields follow the all-``inf`` social convention a
    real column would violate), and a spatial-stream searcher's query
    user must be located (an unlocated one must raise that searcher's
    exact error on the normal path)."""
    if engine.social_cache is None or spec.column is None:
        return None
    rank = RankingFunction(request.alpha, engine.normalization)
    if not rank.needs_social:
        return None
    if spec.needs_location and engine.locations.get(request.user) is None:
        return None
    return rank


def column_step(engine, method: str, request, initial, run) -> SSRQResult:
    """The social-column step of the query pipeline.

    ``run(social)`` executes the resolved searcher over the social
    stream it is handed (``None``: the searcher opens its own — the
    step does not apply).  On a full column the searcher never runs:
    the answer is one :func:`dense_scan`, marked
    ``stats.extra["social_column_hits"]``.  An ``exhaust`` method
    (bruteforce) never runs either: on a miss the kernel builds the
    column, ``stats.pops_social`` reading its number of finite entries
    (the vertices a scalar expansion would have settled).  A
    ``bounded`` method on a miss runs its own radius-limited expansion
    and scan; only a column that came back *unbounded* is stored (a
    radius column is never cached — there is no such cache kind).
    Otherwise (``stream``) the searcher enumerates a fresh expansion
    and the step checks it in — an exhausted one is promoted to a full
    column by the cache, an early-terminated one is dropped.
    """
    spec = METHOD_TABLE[method]
    rank = _applies(engine, spec, request)
    if rank is None:
        return run(None)
    start = time.perf_counter()
    cache = engine.social_cache
    user = request.user
    exhaust = spec.column == "exhaust"
    stats = SearchStats()
    _, column = cache.acquire(user)
    if column is not None:
        stats.extra["social_column_hits"] = 1
    elif spec.column == "bounded":
        result, column = engine.searcher(method).scan(
            user, request.k, request.alpha, initial
        )
        if column is not None:
            cache.store_full(user, column)
        return result
    elif exhaust:
        # the method needs every distance: one kernel call builds the
        # whole column
        column = materialize_column(engine, user)
        stats.pops_social = engine.kernels.count_finite(column)
    if column is not None:
        result = _scan_result(engine, request, rank, column, initial, stats, start)
        if exhaust:  # the full scan evaluates everyone it scores
            stats.evaluations = stats.candidates_scored
        return result
    social = DijkstraIterator(engine.graph, user)
    result = run(social)
    cache.checkin(user, social)
    return result


def peek_scan(engine, method: str, request, initial=None) -> "SSRQResult | None":
    """The sharded coordinator's scatter bypass: answer ``request``
    from a cached *full* column without touching any shard, or ``None``
    to scatter.  Probe-only — no miss is recorded, so the shard search
    that runs on a ``None`` records its own lookup."""
    rank = _applies(engine, METHOD_TABLE[method], request)
    if rank is None:
        return None
    start = time.perf_counter()
    column = engine.social_cache.peek_full(request.user)
    if column is None:
        return None
    stats = SearchStats()
    stats.extra["social_column_hits"] = 1
    stats.extra["column_scan"] = 1
    return _scan_result(engine, request, rank, column, initial, stats, start)
