"""The traffic-serving front-end over :class:`GeoSocialEngine`.

:class:`QueryService` turns the single-query engine facade into a
component that can absorb realistic load:

- **batching** — :meth:`QueryService.query_many` accepts a heterogeneous
  batch (per-request method/α/k), deduplicates identical requests, and
  executes the distinct remainder in request order on the calling
  thread, returning responses with rankings identical to a sequential
  ``engine.query`` loop;
- **caching** — an update-aware LRU (:mod:`repro.service.cache`) keyed
  on the request as asked (:meth:`QueryService._cache_key`), looked up
  under the service's read lock *before* anything is resolved (:meth:`QueryService.cached`
  is that lookup alone, lock-free, for callers that must not block),
  which a location update empties of every answer below ``α = 1`` and
  an engine swap (the only moment the served graph changes) empties
  entirely;
- **following** — each move or forget evicts from the cache, then reaches
  every follower (:meth:`QueryService.follow`), and so does each engine
  swap, inside the change's write lock;
- **consistency** — the service owns one readers-writer lock, made with
  the service and kept across every engine swap: queries from many
  caller threads hold its read side together, and a move, a forget, an
  edge update, a swap and :meth:`QueryService.close` hold its write
  side (a move writes the location table and marks the k-d tree,
  neither safe under readers).  The engine is a plain value the
  service mutates: a served engine is mutated only through its
  service.

Concurrency comes from the callers (the server's worker threads, or
any threads sharing one service); a batch adds none of its own, because
the social-distance kernel holds the GIL.  The cache buys throughput on
skewed workloads — perfbench's ``hot_zipf`` workload
(``service.result_hit_share``) measures it.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import asdict
from typing import Iterable, Iterator

from repro.core.engine import GeoSocialEngine
from repro.core.request import QueryRequest
from repro.service.cache import ResultCache
from repro.service.model import QueryResponse, ServiceStats
from repro.social.cache import SocialColumnCache
from repro.utils.concurrency import ReadWriteLock
from repro.utils.validation import check_size, check_user, check_weight


class QueryService:
    """Caching SSRQ serving layer, safe to share between threads.

        >>> from repro import GeoSocialEngine, gowalla_like
        >>> from repro.service import QueryRequest, QueryService
        >>> engine = GeoSocialEngine.from_dataset(gowalla_like(n=300, seed=7))
        >>> service = QueryService(engine, cache_size=64)
        >>> hot = QueryRequest(user=8, k=5, method="tsa")
        >>> batch = [hot, QueryRequest(user=11, k=3, alpha=0.7, method="tsa")]
        >>> responses = service.query_many(batch)
        >>> [r.cached for r in responses]
        [False, False]
        >>> service.query(hot).cached                         # repeat: cache hit
        True
        >>> service.move_user(8, 0.25, 0.75)                  # evicts every α < 1 line
        >>> service.query(hot).cached
        False

    Parameters
    ----------
    engine:
        The (already built) :class:`~repro.core.engine.GeoSocialEngine`
        to serve from.
    max_workers:
        Accepted and ignored: every batch runs on the calling thread.
    cache_size:
        LRU capacity; ``0`` disables result caching entirely.  A
        non-negative integer; anything else is a ``ValueError`` naming
        the field.

    The social column cache's byte budget is the engine's
    (``GeoSocialEngine(social_cache_bytes=)``); every engine this
    service swaps in keeps it (:meth:`rebuild_engine`,
    :meth:`replace_engine`).
    """

    def __init__(
        self,
        engine: GeoSocialEngine,
        *,
        max_workers: int | None = None,
        cache_size: int = 1024,
    ) -> None:
        cache_size = check_size("cache_size", cache_size)
        self.engine = engine
        self.cache: ResultCache | None = ResultCache(cache_size) if cache_size > 0 else None
        self.stats = ServiceStats()
        self._closed = False
        self._stats_lock = threading.Lock()
        #: the one lock over the served engine, whichever it is
        self._lock = ReadWriteLock()
        #: edge updates recorded since the last engine swap:
        #: ``graph.edge_key(u, v)`` -> new weight, ``None`` = removed
        #: (guarded by the write side of ``_lock``)
        self._pending_edges: "dict[tuple[int, int], float | None]" = {}
        self._followers: list = []

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Shut down the service under its write lock and flush the
        cache.  Any further serving, update, swap or follower read
        raises ``RuntimeError``, a rebuild that was building included:
        nothing changes what a closed service would serve."""
        with self._lock.write_locked():
            self._closed = True
            if self.cache is not None:
                self.cache.invalidate_all()

    def follow(self, follower) -> None:
        """Call ``follower.location_updated(user, x, y)`` after each
        move or forget (``x is None``) has evicted from the result cache,
        and ``follower.engine_swapped(engine)`` on each swap, before the
        new engine is served: on the updating thread, inside the
        change's write lock.  A follower must never raise."""
        self._followers.append(follower)

    def unfollow(self, follower) -> None:
        if follower in self._followers:
            self._followers.remove(follower)

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("QueryService is closed")

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @contextmanager
    def _read_locked_engine(self) -> "Iterator[GeoSocialEngine]":
        """Hold the read side of the service's lock and yield the served
        engine (no swap lands until it is released).  Followers read
        through it too, so it refuses a closed service."""
        with self._lock.read_locked():
            self._check_open()
            yield self.engine

    @contextmanager
    def _write_locked_engine(self) -> "Iterator[GeoSocialEngine]":
        """The exclusive twin of :meth:`_read_locked_engine`."""
        with self._lock.write_locked():
            self._check_open()
            yield self.engine

    # -- serving -------------------------------------------------------

    @staticmethod
    def _cache_key(request: QueryRequest) -> tuple:
        """The cache line for one request: the request as asked, so
        nothing is resolved before the lookup.  Whatever runs is exact
        and ranks like ``bruteforce`` (``tests/test_service_model.py``),
        so ``auto`` is keyed on the question ``(user, k, α)`` alone, and
        a named method on its own name even where the endpoint rule runs
        another.  It names no engine: every swap flushes the cache
        before it publishes the new one."""
        return (request.user, request.k, request.alpha, request.method)

    def cached(self, request: QueryRequest) -> "QueryResponse | None":
        """The stored answer to ``request`` or ``None`` — a read-only
        probe that never resolves, never waits on the service's lock and
        never executes, so a caller that must not block (the server's
        event loop) can try it before handing the request to
        :meth:`query`.

        The one hit path, :meth:`query`'s and :meth:`query_many`'s too:
        a hit counts one ``cache_hits`` and refreshes its LRU position; a
        miss counts nothing — the :meth:`query` that follows it counts
        the one miss.  Safe
        without the service's lock: an answer read during a concurrent
        move linearises before the move, and an engine swap flushes the
        cache under its own lock."""
        if self.cache is None:
            return None
        result = self.cache.get(self._cache_key(request))
        if result is None:
            return None
        with self._stats_lock:
            self.stats.cache_hits += 1
        return QueryResponse(request, result, cached=True)

    def query(
        self,
        request: "int | QueryRequest",
        k: int | None = None,
        alpha: float | None = None,
        method: str | None = None,
    ) -> QueryResponse:
        """Serve one SSRQ (cache-first); a plain user id takes the
        keyword overrides (``None``: the
        :class:`~repro.core.request.QueryRequest` default)."""
        self._check_open()
        return self._serve([QueryRequest.coerce(request, k, alpha, method)])[0]

    def query_many(
        self,
        requests: "Iterable[int | QueryRequest]",
        k: int | None = None,
        alpha: float | None = None,
        method: str | None = None,
    ) -> list[QueryResponse]:
        """Serve a batch: cache lookups, in-batch deduplication, then
        execution of the distinct remainder on the calling thread.

        Responses come back in request order, and each ranking is
        identical to what a sequential ``engine.query`` loop would have
        produced: queries are read-only and deterministic, and the
        service's read lock is held from the first cache lookup to the
        last answer, so no update lands inside the batch.
        """
        self._check_open()
        responses = self._serve(
            [QueryRequest.coerce(item, k, alpha, method) for item in requests]
        )
        with self._stats_lock:
            self.stats.batches += 1
        return responses

    def _serve(self, reqs: "list[QueryRequest]") -> list[QueryResponse]:
        """The serve path, written once for :meth:`query` (a batch of
        one) and :meth:`query_many`, all under the service's read lock —
        so a batch is one consistent cut, its hits and its misses alike:
        each hit answered and counted by :meth:`cached` → for the misses:
        execute → cache put → account (:meth:`_serve_misses`).  A batch
        of hits never touches the planner."""
        responses: list[QueryResponse | None] = [None] * len(reqs)
        misses: list[int] = []
        with self._read_locked_engine() as engine:
            for i, req in enumerate(reqs):
                responses[i] = self.cached(req)
                if responses[i] is None:
                    misses.append(i)
            if misses:
                self._serve_misses(engine, reqs, misses, responses)
        return responses  # type: ignore[return-value]

    def _serve_misses(self, engine, reqs, misses, responses) -> None:
        """Execute ``reqs[i] for i in misses`` under the service's read
        lock (once per distinct cache line, in request order, on the
        calling thread), fill the cache, and fan the results out to
        ``responses``.

        Every distinct miss runs ``engine.query``, which resolves its
        method once (the planner, for ``auto``) and stamps it on the
        result; variants for one hot query user still share its social
        column through the engine's column step (the first fills it,
        the rest scan).  All of them run before anything is cached or
        counted, so a request that raises leaves the cache and the
        execution counts as they were (the batch's hits, counted by
        :meth:`cached`, stay counted).
        """
        #: distinct cache key → the request indexes waiting
        pending: "dict[tuple, list[int]]" = {}
        for i in misses:
            req = reqs[i]
            pending.setdefault(self._cache_key(req), []).append(i)
        executed = []
        for indexes in pending.values():
            start = time.perf_counter()
            result = engine.query(reqs[indexes[0]])
            executed.append((result, time.perf_counter() - start))

        for (key, indexes), (result, elapsed) in zip(pending.items(), executed):
            if self.cache is not None:
                self.cache.put(key, result)
            first = indexes[0]
            responses[first] = QueryResponse(reqs[first], result, latency=elapsed)
            for j in indexes[1:]:
                responses[j] = QueryResponse(reqs[j], result, deduplicated=True)
            with self._stats_lock:
                self.stats.record_execution(result, elapsed)
                self.stats.deduplicated += len(indexes) - 1

    # -- updates -------------------------------------------------------

    def move_user(self, user: int, x: float, y: float) -> None:
        """Apply a location update under the write lock (no queries in
        flight): :meth:`GeoSocialEngine.move_user` moves the user in the
        served engine, then the result cache evicts every answer below
        ``α = 1`` and every follower hears of the move.  The one way to
        move a user of a served engine."""
        with self._write_locked_engine() as engine:
            engine.move_user(user, x, y)
            self._location_changed(user, x, y)

    def forget_location(self, user: int) -> None:
        """Forget a user's location like :meth:`move_user` (nothing to
        evict or tell when the user had none)."""
        with self._write_locked_engine() as engine:
            if engine.forget_location(user):
                self._location_changed(user, None, None)

    def update_edge(self, u: int, v: int, weight: float | None) -> None:
        """Record a social-edge update — insert or re-weight (a ``weight``
        in the input domain) or delete (``None``) — for the next
        :meth:`rebuild_engine`.

        Nothing served changes: answers and both caches stay exact for
        the engine's *indexed* graph, and updates only accumulate (the
        paper's Section 5.1 batching model: graph updates are far rarer
        than location updates) until :meth:`rebuild_engine` folds them
        into a fresh engine.  A later update of the same edge replaces
        the earlier one.  Raises ``ValueError`` for an id out of range,
        a self-loop or a bad weight, ``KeyError`` for deleting an edge
        that does not exist; a rejected update records nothing.
        """
        with self._write_locked_engine() as engine:
            graph = engine.graph
            u, v = check_user(u, graph.n), check_user(v, graph.n)
            if u == v:
                raise ValueError("self-loops are not allowed")
            key = graph.edge_key(u, v)
            if weight is None:
                if self._pending_edges.get(key, graph.edge_weight(*key)) is None:
                    raise KeyError(f"edge ({u}, {v}) does not exist")
            else:
                weight = check_weight("edge weight", weight)
            self._pending_edges[key] = weight

    def rebuild_engine(self) -> GeoSocialEngine:
        """Fold every edge update recorded through :meth:`update_edge`
        into a fresh engine and swap it in.

        Builds a new engine (via ``with_graph``) over the served graph
        with the pending updates applied
        (:meth:`~repro.graph.socialgraph.SocialGraph.with_edge_updates`)
        and the old engine's parameters, then swaps it in
        (:meth:`_swap_engine_locked`).  The expensive build (landmark
        rows, index construction) runs *outside* the lock — only the
        snapshot and the swap hold it, so queries stall for
        milliseconds, not the whole rebuild; an edge update (or another
        swap) that slips in mid-build triggers a re-snapshot.  A :meth:`close` that lands mid-build
        wins: the rebuild raises ``RuntimeError`` and swaps nothing.
        Callers holding a direct reference to the swapped-out engine
        should switch to the returned one.  Returns the new engine.
        """
        while True:
            with self._read_locked_engine() as old:
                pending = dict(self._pending_edges)
            # `with_graph` rebuilds the indexes, keeps each positive
            # normaliser and re-estimates one that is 0; it builds no
            # column cache, since the swap lays out the only one
            new_engine = old.with_graph(
                old.graph.with_edge_updates(pending), social_cache_bytes=0
            )
            with self._write_locked_engine() as served:
                if served is old and self._pending_edges == pending:
                    self._swap_engine_locked(new_engine)
                    return new_engine
            # an update or a swap interleaved: re-snapshot

    def _swap_engine_locked(self, new_engine: GeoSocialEngine) -> None:
        """Make ``new_engine`` the served engine (caller holds the write
        lock), the one path of a rebuild and a restore: hand it the
        served engine's planner (its counters carry on), give it a fresh
        column cache with the served engine's byte budget, laid out over
        the users located now (no cache when the served engine has
        none), flush the result cache, tell every follower, then publish
        the engine and empty the pending-edge log (folded into
        ``new_engine``, or discarded with the old one).  Followers hear
        of the swap before a reader can reach ``new_engine``, so none
        serves an answer of the old engine."""
        new_engine.planner = self.engine.planner
        social = self.engine.social_cache
        new_engine.social_cache = (
            None
            if social is None
            else SocialColumnCache(
                new_engine.graph.n, new_engine.kernels, social.max_bytes,
                new_engine.located_users(),
            )
        )
        if self.cache is not None:
            outcome = self.cache.invalidate_all()
            with self._stats_lock:
                self.stats.invalidated_entries += outcome
                self.stats.full_invalidations += 1
        for follower in list(self._followers):
            follower.engine_swapped(new_engine)
        self.engine = new_engine
        self._pending_edges.clear()

    def replace_engine(self, new_engine: GeoSocialEngine) -> GeoSocialEngine:
        """Swap in an externally built engine — the restore path of
        :class:`~repro.store.SnapshotManager` — through the same swap as
        :meth:`rebuild_engine` (:meth:`_swap_engine_locked`), so every
        downstream layer (result cache, column cache, standing
        subscriptions, their streams) observes the swap identically.
        Edge updates batched against the old engine are discarded with
        it: a restore rewinds to the snapshot's topology.  Raises
        ``ValueError`` for an engine over another number of users and
        ``RuntimeError`` once the service is closed.  Returns the new
        engine."""
        with self._write_locked_engine() as old:
            if new_engine.graph.n != old.graph.n:
                raise ValueError(
                    f"replacement engine covers {new_engine.graph.n} users, "
                    f"the served one {old.graph.n}"
                )
            self._swap_engine_locked(new_engine)
        return new_engine

    @property
    def pending_edge_updates(self) -> int:
        """Edges with an update recorded through :meth:`update_edge`
        since the last engine swap — what
        :class:`~repro.store.SnapshotManager` consults to decide
        whether a snapshot must fold the update stream first."""
        return len(self._pending_edges)

    def snapshots(self, root) -> "object":
        """A :class:`~repro.store.SnapshotManager` rooted at ``root``
        taking crash-consistent snapshots of (and restoring into) this
        service."""
        from repro.store import SnapshotManager

        return SnapshotManager(self, root)

    # -- after a move or forget (inside its write lock) -----------------

    def _location_changed(self, user: int, x: float | None, y: float | None) -> None:
        if self.cache is not None:
            outcome = self.cache.invalidate_location_update()
            with self._stats_lock:
                self.stats.invalidated_entries += outcome
                self.stats.reused_entries += outcome.reused
        for follower in list(self._followers):
            follower.location_updated(user, x, y)

    # -- introspection -------------------------------------------------

    def cache_info(self) -> dict:
        """Cache statistics snapshot: the result cache's size, capacity
        and own counters (:class:`~repro.service.cache.CacheStats`) at
        the top level (absent when result caching is off) plus the
        engine's social column cache under ``"social"`` (absent when the
        engine carries none) — so ``/stats``, ``/metrics``, and ``repro
        stats`` surface both caches from one call.  Hits, misses and
        invalidations are the service's counters (``stats``)."""
        info: dict = {}
        if self.cache is not None:
            info.update(size=len(self.cache), capacity=self.cache.capacity, **asdict(self.cache.stats))
        social = self.engine.social_cache
        if social is not None:
            info["social"] = social.info()
        return info

    def __repr__(self) -> str:
        cache = len(self.cache) if self.cache is not None else "off"
        return f"QueryService(cache={cache}, served={self.stats.requests})"
