"""Columnar SSRQ evaluation off a materialised social column.

:func:`dense_scan` is the scoring tail of
:class:`~repro.core.bruteforce.BruteForceSearch`, factored out so every
consumer of a cached column — a full-column hit inside SFA/SPA/TSA, the
sharded coordinator's scatter bypass, the fused ``query_many`` path —
scores through literally the same kernel calls as bruteforce.  That is
what makes the cache's exactness invariant a *structural* property
rather than a per-call-site proof: a dense ``blend`` +
``top_k_by_score`` over exact columns selects, for any ``(k, α)``, the
same ``(score, id)``-minimal set every forward-deterministic method
enumerates (all of them terminate on strict bound excess and tie-break
toward smaller ids), with the same ``Neighbor`` field conventions
(a term the ranking does not need reads ``inf``).

**The social-column step.**  :func:`column_step` is the one stage of
the query pipeline (:meth:`repro.core.engine.EngineBase.query`) that
talks to the :class:`~repro.social.cache.SocialColumnCache`: look the
query user up; a full column answers through :func:`dense_scan` at
once; a parked partial expansion is handed to the searcher to resume
(or replay); a miss starts a fresh
:class:`~repro.graph.traversal.DijkstraIterator`; and whatever the
searcher expanded is checked back in afterwards.  The searchers
themselves only enumerate the stream they are given.
:func:`materialize_column` is the same lookup for consumers that need
the *whole* column (bruteforce, fused batches), and
:func:`peek_scan` the sharded coordinator's probe-only variant.
"""

from __future__ import annotations

import math
import time

from repro.core.ranking import RankingFunction
from repro.core.result import Neighbor, SSRQResult
from repro.core.stats import SearchStats
from repro.graph.traversal import DijkstraIterator
from repro.social.resume import ReplayedDijkstra

INF = math.inf
_NAN = math.nan

__all__ = ["column_step", "dense_scan", "materialize_column", "peek_scan"]

#: how each forward-deterministic method takes over a parked expansion.
#: SFA's enumeration and TSA's ``settled``-keyed candidate admission
#: assume a stream that yields every settled vertex once, in settle
#: order, so they see it through :class:`ReplayedDijkstra`; SPA only
#: calls ``run_until`` — which consults ``settled`` before advancing —
#: and resumes the iterator directly; bruteforce needs every distance,
#: so it takes the finished column.
_REPLAY, _RESUME, _EXHAUST = "replay", "resume", "exhaust"
_MODES = {
    "sfa": _REPLAY,
    "tsa": _REPLAY,
    "tsa-plain": _REPLAY,
    "tsa-qc": _REPLAY,
    "spa": _RESUME,
    "bruteforce": _EXHAUST,
}
#: the spatial-stream searchers reject an unlocated query user before
#: any social work; the step must leave the cache untouched for them
_NEEDS_LOCATION = frozenset({"spa", "tsa", "tsa-plain", "tsa-qc"})


def dense_scan(
    kernels,
    n: int,
    rank: RankingFunction,
    social_column,
    locations,
    query_user: int,
    k: int,
    initial=None,
) -> tuple[list[Neighbor], int]:
    """Score every user against ``social_column`` in one columnar pass.

    ``social_column`` must follow the bruteforce convention: exact
    distances with ``inf`` for unreachable users, or all-``inf`` when
    ``rank.needs_social`` is false.  The spatial column is derived here
    the same way bruteforce derives it (a NaN query point — irrelevant
    term or unlocated query user — makes the kernel emit ``inf``
    everywhere).  Returns ``(neighbors, finite)`` where ``finite`` is
    the number of finitely-scored users (the scan's evaluation count).
    """
    location = locations.get(query_user) if rank.needs_spatial else None
    qx, qy = location if location is not None else (_NAN, _NAN)
    xs, ys = locations.columns()
    d = kernels.euclidean_to_point(xs, ys, qx, qy)

    scores = kernels.blend(rank.w_social, rank.w_spatial, social_column, d)
    scores[query_user] = INF  # never report the query user
    top = kernels.top_k_by_score(scores, range(n), k)
    neighbors = [
        Neighbor(int(u), float(scores[u]), float(social_column[u]), float(d[u]))
        for u in top
    ]
    if initial is not None:
        for nb in neighbors:
            initial.offer(nb.user, nb.score, nb.social, nb.spatial)
        neighbors = initial.neighbors()
    return neighbors, kernels.count_finite(scores)


def _checkout(cache, user: int):
    """``(column, parked)`` for ``user``: a shared full column, an
    exclusively checked-out partial expansion, or neither."""
    if cache is not None:
        kind, payload = cache.acquire(user)
        if kind == "full":
            return payload, None
        if kind == "partial":
            return None, payload
    return None, None


def materialize_column(engine, user: int, stats: SearchStats | None = None):
    """The dense social-distance column from ``user``, produced through
    the engine's :class:`~repro.social.cache.SocialColumnCache` when one
    is attached: a full hit returns without traversal, a parked partial
    resumes from its settled radius, and whatever was expanded is parked
    back as a full column for the next query from ``user``.  ``stats``
    (optional) is charged the heap pops of any traversal paid here."""
    cache = engine.social_cache
    column, it = _checkout(cache, user)
    if column is None:
        if it is None:
            it = DijkstraIterator(engine.graph, user)
        pops_before = it.heap.pops
        it.run_to_completion()
        if stats is not None:
            stats.pops_social = it.heap.pops - pops_before
        column = engine.kernels.dense_from_dict(engine.graph.n, it.settled, INF)
        if cache is not None:
            cache.store_full(user, column)
    elif stats is not None:
        stats.extra["social_column_hits"] = 1
    return column


def _scan_result(engine, request, rank, column, initial, stats, start) -> SSRQResult:
    """Answer ``request`` from a full ``column`` in one columnar pass —
    bit-identical to any forward-deterministic enumeration (strict
    termination + smaller-id tie-break select exactly the
    ``(score, id)``-minimal set)."""
    neighbors, finite = dense_scan(
        engine.kernels, engine.graph.n, rank, column,
        engine.locations, request.user, request.k, initial,
    )
    stats.candidates_scored = finite
    stats.elapsed = time.perf_counter() - start
    return SSRQResult(request.user, request.k, request.alpha, neighbors, stats)


def _applies(engine, method: str, request) -> "RankingFunction | None":
    """The ranking function when ``request`` may be answered off the
    query user's social column, else ``None``: the engine must carry a
    cache, the method must be forward-deterministic (its evaluation
    distances *are* the column's), the ranking must use the social
    term (at ``alpha == 0`` the ``Neighbor`` fields follow the
    all-``inf`` social convention a real column would violate), and a
    spatial-stream searcher's query user must be located (an unlocated
    one must raise that searcher's exact error on the normal path)."""
    if engine.social_cache is None or method not in _MODES:
        return None
    rank = RankingFunction(request.alpha, engine.normalization)
    if not rank.needs_social:
        return None
    if method in _NEEDS_LOCATION and engine.locations.get(request.user) is None:
        return None
    return rank


def column_step(engine, method: str, request, initial, run) -> SSRQResult:
    """The social-column step of the query pipeline.

    ``run(social)`` executes the resolved searcher over the social
    stream it is handed (``None``: the searcher opens its own — the
    step does not apply).  On a full column the searcher never runs:
    the answer is one :func:`dense_scan`, marked
    ``stats.extra["social_column_hits"]``.  Otherwise the searcher
    enumerates a resumed (or replayed) parked expansion, or a fresh
    one on a miss, and the step checks the expansion back in — an
    exhausted one is promoted to a full column by the cache.
    """
    rank = _applies(engine, method, request)
    if rank is None:
        return run(None)
    start = time.perf_counter()
    cache = engine.social_cache
    user = request.user
    mode = _MODES[method]
    stats = SearchStats()
    if mode == _EXHAUST:
        column, parked = materialize_column(engine, user, stats), None
    else:
        column, parked = _checkout(cache, user)
        if column is not None:
            stats.extra["social_column_hits"] = 1
    if column is not None:
        result = _scan_result(engine, request, rank, column, initial, stats, start)
        if mode == _EXHAUST:  # the full scan evaluates everyone it scores
            stats.evaluations = stats.candidates_scored
        return result
    inner = parked if parked is not None else DijkstraIterator(engine.graph, user)
    replay = parked is not None and mode == _REPLAY
    result = run(ReplayedDijkstra(inner) if replay else inner)
    cache.checkin(user, inner)
    return result


def peek_scan(engine, method: str, request, initial=None) -> "SSRQResult | None":
    """The sharded coordinator's scatter bypass: answer ``request``
    from a cached *full* column without touching any shard, or ``None``
    to scatter.  Probe-only — no miss is recorded and a parked partial
    stays parked for whichever shard search resumes it."""
    rank = _applies(engine, method, request)
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
