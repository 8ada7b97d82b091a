"""Columnar SSRQ evaluation off a materialised social column.

:func:`dense_scan` is the scoring tail of
:class:`~repro.core.bruteforce.BruteForceSearch`, factored out so every
consumer of a cached column — a full-column hit inside SFA/SPA/TSA,
``bounded``'s ball scan — scores through literally the same kernel
calls as bruteforce.  That is what makes the cache's
exactness invariant a *structural* property rather than a
per-call-site proof: a dense ``blend`` +
``top_k_by_score`` over exact columns selects, for any ``(k, α)``, the
same ``(score, id)``-minimal set every forward-deterministic method
enumerates (all of them terminate on strict bound excess and tie-break
toward smaller ids), with the same ``Neighbor`` field conventions
(a term the ranking does not need reads ``inf``).

**The social-column step.**  :func:`column_step` is the one stage of
the query pipeline (:meth:`repro.core.engine.GeoSocialEngine.query`) that
talks to the :class:`~repro.social.cache.SocialColumnCache`: look the
query user up; a cached column answers through :func:`dense_scan` at
once, scoring only the cache's layout (the located users).  On a miss
a searcher with ``scan()`` (``bounded``, ``bruteforce``) returns its
answer with the full column when it built one, and the step stores
that column at the layout; every other searcher opens its own
expansion and leaves nothing behind.  So every cached column comes
from the ``sssp_column`` kernel
(:meth:`repro.backend.NumpyKernels.sssp_column`).
"""

from __future__ import annotations

import math
import time

from repro.core.ranking import RankingFunction
from repro.core.result import Neighbor, SSRQResult
from repro.core.stats import SearchStats
from repro.plan.rules import FORWARD_DETERMINISTIC_METHODS

INF = math.inf
_NAN = math.nan

__all__ = ["column_step", "dense_scan", "materialize_column", "spatial_column"]


def spatial_column(kernels, rank: RankingFunction, locations, query_user: int, ids=None):
    """Distances from ``query_user``'s location to every user (or to
    ``ids``), the way bruteforce derives them: all-``inf`` when the
    spatial term is irrelevant or the query user unlocated (a NaN query
    point makes the kernel emit ``inf`` everywhere)."""
    location = locations.get(query_user) if rank.needs_spatial else None
    qx, qy = location if location is not None else (_NAN, _NAN)
    xs, ys = locations.columns()
    return kernels.euclidean_to_point(xs, ys, qx, qy, ids)


def dense_scan(
    kernels,
    rank: RankingFunction,
    social_column,
    locations,
    query_user: int,
    k: int,
    spatial=None,
    ids=None,
) -> tuple[list[Neighbor], int]:
    """Score every user (or the ascending ``ids``, the query user among
    them) against ``social_column`` in one columnar pass.

    ``social_column`` holds one distance per scored user, exact with
    ``inf`` for the unreachable, or all-``inf`` when
    ``rank.needs_social`` is false.  The spatial column is
    :func:`spatial_column` (``spatial`` hands in one the caller already
    derived).  Returns ``(neighbors, finite)`` where ``finite`` is
    the number of finitely-scored users (the scan's evaluation count).
    """
    d = spatial_column(kernels, rank, locations, query_user, ids) if spatial is None else spatial
    scores = kernels.blend(rank.w_social, rank.w_spatial, social_column, d)
    scores[query_user if ids is None else ids.searchsorted(query_user)] = INF  # never report it
    # positions ascend with the ids: the smaller position breaks a tie
    top = kernels.top_k_by_score(scores, None, k)
    # one gather per column, as plain floats
    neighbors = list(
        map(
            Neighbor,
            top if ids is None else ids.take(top).tolist(),
            scores.take(top).tolist(),
            social_column.take(top).tolist(),
            d.take(top).tolist(),
        )
    )
    return neighbors, kernels.count_finite(scores)


def materialize_column(engine, user: int):
    """Build ``user``'s full social column with the ``sssp_column``
    kernel and hand it to the engine's column cache — what every
    consumer that needs all of a user's distances and found no cached
    column does.  Returns it at the cache's layout (if there is one)."""
    column = engine.kernels.sssp_column(engine.graph, user)
    cache = engine.social_cache
    return column if cache is None else cache.store_full(user, column)


def column_step(engine, method: str, request) -> SSRQResult:
    """The social-column step of the query pipeline: answer ``request``
    with the concrete method ``method``.

    On a cached column the searcher never runs: the answer is one
    :func:`dense_scan` over the layout, marked
    ``stats.extra["social_column_hits"]``.  On a miss a searcher with
    ``scan()`` returns ``(result, full column or None)`` and the step
    stores the column (a radius column is never cached); any other
    searcher answers with ``search()`` over its own expansion.
    """
    searcher = engine.searcher(method)
    user, k, alpha = request.user, request.k, request.alpha
    cache = engine.social_cache
    rank = RankingFunction(alpha, engine.normalization)
    # The step applies only when the engine carries a cache, the method
    # is forward-deterministic (its evaluation distances *are* the
    # column's) and the ranking uses both terms: without the social one
    # the ``Neighbor`` fields follow the all-``inf`` social convention a
    # real column would violate, and without the spatial one an
    # unlocated user, outside the layout, can be an answer.
    both = rank.needs_social and rank.needs_spatial
    if cache is None or method not in FORWARD_DETERMINISTIC_METHODS or not both:
        return searcher.search(user, k, alpha)
    start = time.perf_counter()
    column = cache.acquire(user)
    if column is not None:
        # one columnar pass, bit-identical to any forward-deterministic
        # enumeration (strict termination + smaller-id tie-break select
        # exactly the ``(score, id)``-minimal set); it evaluates everyone
        # it scores, and everyone outside the layout scores ``inf``
        neighbors, finite = dense_scan(
            engine.kernels, rank, column, engine.locations, user, k, ids=cache.layout
        )
        stats = SearchStats(candidates_scored=finite, evaluations=finite)
        stats.extra["social_column_hits"] = 1
        stats.elapsed = time.perf_counter() - start
        return SSRQResult(user, k, alpha, neighbors, stats)
    scan = getattr(searcher, "scan", None)
    if scan is None:
        return searcher.search(user, k, alpha)
    result, column = scan(user, k, alpha)
    if column is not None:
        cache.store_full(user, column)
    return result
