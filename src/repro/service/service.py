"""The traffic-serving front-end over :class:`GeoSocialEngine`.

:class:`QueryService` turns the single-query engine facade into a
component that can absorb realistic load:

- **batching** — :meth:`QueryService.query_many` accepts a heterogeneous
  batch (per-request method/α/k), deduplicates identical requests, and
  executes the distinct remainder in request order on the calling
  thread, returning responses with rankings identical to a sequential
  ``engine.query`` loop;
- **caching** — an update-aware LRU (:mod:`repro.service.cache`) keyed
  on the question for ``auto`` requests and on the routed method
  otherwise (:meth:`QueryService._line`), looked up *before* anything
  is resolved or locked (:meth:`QueryService.cached` is that
  lookup alone, for callers that must not block), repaired or
  invalidated exactly on location moves via the engine's listener hook
  and emptied when the engine is swapped (the only moment the served
  graph changes);
- **consistency** — the engine's readers-writer lock (``engine.rw_lock``,
  shared by every service over the same engine) lets queries from many
  caller threads run concurrently while serialising updates against
  in-flight queries (the engine's grid/aggregate-index mutation is not
  safe under readers).

Concurrency comes from the callers (the server's worker threads, or
any threads sharing one service); a batch adds none of its own, because
the social-distance kernel holds the GIL.  The cache buys throughput on
skewed workloads — perfbench's ``hot_zipf`` workload
(``service.result_hit_share``) measures it.
"""

from __future__ import annotations

import math
import numbers
import threading
import time
from contextlib import contextmanager
from typing import Iterable, Iterator

from repro.core.engine import AUTO, GeoSocialEngine
from repro.core.ranking import RankingFunction
from repro.core.request import QueryRequest
from repro.plan.rules import route_method
from repro.service.cache import ResultCache
from repro.service.model import QueryResponse, ServiceStats
from repro.utils.validation import check_user


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
        >>> service.move_user(8, 0.25, 0.75)                  # evicts user 8's line
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
        LRU capacity; ``0`` disables result caching entirely.
    social_cache_bytes:
        Byte budget for the engine's
        :class:`~repro.social.cache.SocialColumnCache` (``None`` keeps
        the engine's own setting, ``0`` disables column reuse).  Applied
        by resizing the live cache in place, and re-applied to every
        engine this service swaps in (:meth:`rebuild_engine` /
        :meth:`replace_engine`), so the knob survives rebuilds.
    """

    def __init__(
        self,
        engine: GeoSocialEngine,
        *,
        max_workers: int | None = None,
        cache_size: int = 1024,
        social_cache_bytes: int | None = None,
    ) -> None:
        self.engine = engine
        self.cache: ResultCache | None = ResultCache(cache_size) if cache_size > 0 else None
        self.stats = ServiceStats()
        self._closed = False
        self._stats_lock = threading.Lock()
        #: edge updates recorded since the last engine swap:
        #: ``graph.edge_key(u, v)`` -> new weight, ``None`` = removed
        #: (guarded by the served engine's write lock)
        self._pending_edges: "dict[tuple[int, int], float | None]" = {}
        self._social_cache_bytes = social_cache_bytes
        self._apply_social_budget(engine)
        if self.cache is not None:
            engine.add_location_listener(self._on_location_update)

    def _apply_social_budget(self, engine: GeoSocialEngine) -> None:
        """Resize ``engine``'s social column cache to this service's
        requested byte budget (no-op when no budget was requested or the
        engine carries no cache — e.g. one built with
        ``social_cache_bytes=0``)."""
        if self._social_cache_bytes is None:
            return
        social = engine.social_cache
        if social is not None:
            social.resize(self._social_cache_bytes)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Shut down the service: detach the engine listeners and
        flush the cache.  Any further serving or update call raises
        ``RuntimeError`` (the listeners are gone, so a reused service
        could otherwise silently serve stale results)."""
        self._closed = True
        if self.cache is not None:
            self.engine.remove_location_listener(self._on_location_update)
            self.cache.invalidate_all()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("QueryService is closed")

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @contextmanager
    def _read_locked_engine(self) -> "Iterator[GeoSocialEngine]":
        """Hold the read side of the *current* engine's lock.

        :meth:`rebuild_engine` can swap ``self.engine``; the loop
        guarantees the lock we hold belongs to the engine we hand out
        (a swap between the read and the acquire retries)."""
        while True:
            engine = self.engine
            lock = engine.rw_lock
            lock.acquire_read()
            if self.engine is engine:
                try:
                    yield engine
                finally:
                    lock.release_read()
                return
            lock.release_read()

    @contextmanager
    def _write_locked_engine(self) -> "Iterator[GeoSocialEngine]":
        """The exclusive twin of :meth:`_read_locked_engine`."""
        while True:
            engine = self.engine
            with engine.rw_lock.write_locked():
                if self.engine is engine:
                    yield engine
                    return

    # -- serving -------------------------------------------------------

    @staticmethod
    def _line(request: QueryRequest) -> str:
        """The method component of a request's cache line, told without
        resolving anything.

        - A named method: its statically routed name, so endpoint
          aliases (``tsa`` at ``alpha == 0`` and ``spa``, …) share one
          line and ``result.method`` stays what the caller asked for.
        - ``auto``: ``AUTO`` itself — the *question line*.  Whatever
          ``auto`` resolves to is exact and bit-identical to
          ``bruteforce`` (``tests/test_plan_equivalence.py``), so the
          question ``(user, k, α, normalization)`` alone names the
          answer.
        """
        if request.method != AUTO:
            return route_method(request.method, request.alpha)
        return AUTO

    def _cache_key(
        self, request: QueryRequest, engine: GeoSocialEngine, line: str
    ) -> tuple:
        """The cache line for one request under method component
        ``line`` (:meth:`_line`)."""
        norm = engine.normalization
        return (
            request.user,
            request.k,
            request.alpha,
            line,
            (norm.p_max, norm.d_max),
        )

    def cached(self, request: QueryRequest) -> "QueryResponse | None":
        """The stored answer to ``request`` or ``None`` — a read-only
        probe that never resolves, never waits on the engine lock and
        never executes, so a caller that must not block (the server's
        event loop) can try it before handing the request to
        :meth:`query`.

        A hit is accounted exactly as :meth:`query` would (``requests``
        and ``cache_hits``, LRU position refreshed); a miss counts
        nothing — the :meth:`query` that follows it counts the one
        miss.  Safe without the engine lock: an answer read during a
        concurrent move linearises before the move, and an engine swap
        flushes the cache under its own lock."""
        if self.cache is None:
            return None
        result = self.cache.hit(self._cache_key(request, self.engine, self._line(request)))
        if result is None:
            return None
        with self._stats_lock:
            self.stats.requests += 1
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
        produced (queries are read-only and deterministic; updates are
        excluded for the duration of the batch by the engine's
        readers-writer lock).
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
        one) and :meth:`query_many`: cache lookup (:meth:`_line`) → for
        the misses, under the engine's read lock: resolve → execute →
        cache put (:meth:`_serve_misses`) → account.  A batch of hits
        touches neither the planner nor the engine lock."""
        responses: list[QueryResponse | None] = [None] * len(reqs)
        hits = 0
        misses: list[int] = []
        for i, req in enumerate(reqs):
            if self.cache is not None:
                hit = self.cache.get(self._cache_key(req, self.engine, self._line(req)))
                if hit is not None:
                    responses[i] = QueryResponse(req, hit, cached=True)
                    hits += 1
                    continue
            misses.append(i)
        if misses:
            with self._read_locked_engine() as engine:
                self._serve_misses(engine, reqs, misses, responses)
        with self._stats_lock:
            self.stats.requests += len(reqs)
            self.stats.cache_hits += hits
            self.stats.cache_misses += len(reqs) - hits
        return responses  # type: ignore[return-value]

    def _serve_misses(self, engine, reqs, misses, responses) -> None:
        """Resolve and execute ``reqs[i] for i in misses`` under
        ``engine``'s read lock (once per distinct cache line, in request
        order, on the calling thread), fill the cache, and fan the
        results out to ``responses``.

        Every distinct miss runs ``engine.query``; variants for one hot
        query user still share its social column through the engine's
        column step (the first fills it, the rest scan).  All of them
        run before anything is cached or counted, so a request that
        raises leaves the cache and the stats as they were.
        """
        #: distinct cache key → (the request pinned to its resolved
        #: method, the request indexes waiting)
        pending: "dict[tuple, tuple[QueryRequest, list[int]]]" = {}
        for i in misses:
            req = reqs[i]
            key = self._cache_key(req, engine, self._line(req))
            waiting = pending.get(key)
            if waiting is None:
                pending[key] = (req.with_method(engine.resolve_method(req)), [i])
            else:
                waiting[1].append(i)
        executed = []
        for request, _ in pending.values():
            start = time.perf_counter()
            result = engine.query(request)
            executed.append((result, time.perf_counter() - start))

        for (key, (request, indexes)), (result, elapsed) in zip(pending.items(), executed):
            if self.cache is not None:
                self.cache.put(
                    key, request, RankingFunction(request.alpha, engine.normalization), result
                )
            first = indexes[0]
            responses[first] = QueryResponse(reqs[first], result, latency=elapsed)
            for j in indexes[1:]:
                responses[j] = QueryResponse(reqs[j], result, deduplicated=True)
            with self._stats_lock:
                self.stats.record_execution(request.method, result, elapsed)
                self.stats.deduplicated += len(indexes) - 1

    # -- updates -------------------------------------------------------

    def move_user(self, user: int, x: float, y: float) -> None:
        """Apply a location update exclusively (no queries in flight)
        and invalidate exactly the affected cache entries.

        Delegates to :meth:`GeoSocialEngine.move_user`, which takes the
        engine lock's exclusive side itself — so direct engine updates
        are serialised (and invalidate the cache) identically."""
        self._check_open()
        self.engine.move_user(user, x, y)

    def forget_location(self, user: int) -> None:
        """Forget a user's location (exclusive), with invalidation."""
        self._check_open()
        self.engine.forget_location(user)

    def update_edge(self, u: int, v: int, weight: float | None) -> None:
        """Record a social-edge update — insert or re-weight (a finite
        ``weight`` > 0) or delete (``None``) — for the next
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
        self._check_open()
        with self._write_locked_engine() as engine:
            graph = engine.graph
            u, v = check_user(u, graph.n), check_user(v, graph.n)
            if u == v:
                raise ValueError("self-loops are not allowed")
            key = graph.edge_key(u, v)
            if weight is None:
                if self._pending_edges.get(key, graph.edge_weight(*key)) is None:
                    raise KeyError(f"edge ({u}, {v}) does not exist")
            elif (
                isinstance(weight, bool)
                or not isinstance(weight, numbers.Real)
                or not 0 < weight < math.inf  # NaN fails the chained comparison
            ):
                raise ValueError(
                    f"edge weight must be a positive finite number, got {weight!r}"
                )
            else:
                weight = float(weight)
            self._pending_edges[key] = weight

    def rebuild_engine(self, **engine_kwargs) -> GeoSocialEngine:
        """Fold every edge update recorded through :meth:`update_edge`
        into a fresh engine and swap it in.

        Builds a new engine (via ``with_graph``) over the served graph
        with the pending updates applied
        (:meth:`~repro.graph.socialgraph.SocialGraph.with_edge_updates`),
        with the old engine's parameters (override any via
        ``engine_kwargs``), then flushes the cache and swaps the engine
        in.  The expensive build (landmark rows, index construction)
        runs *outside* the lock — only the snapshot and the swap hold
        the exclusive side, so queries stall for milliseconds, not the
        whole rebuild; an edge update (or another swap) that slips in
        mid-build triggers a re-snapshot.  Callers holding a direct
        reference to the swapped-out engine should switch to the
        returned one.  Returns the new engine.
        """
        self._check_open()
        while True:
            with self._write_locked_engine() as old:
                pending = dict(self._pending_edges)
            # `with_graph` rebuilds the indexes and keeps the old
            # normalization, so rankings stay comparable across the swap.
            new_engine = old.with_graph(
                old.graph.with_edge_updates(pending), **engine_kwargs
            )
            with old.rw_lock.write_locked():
                if self.engine is old and self._pending_edges == pending:
                    self._swap_engine_locked(old, new_engine)
                    return new_engine
            # an update or a swap interleaved: re-snapshot

    def _swap_engine_locked(self, old: GeoSocialEngine, new_engine: GeoSocialEngine) -> None:
        """Make ``new_engine`` the served engine (caller holds ``old``'s
        exclusive lock): re-home the invalidation listener, flush the
        result cache, publish the engine and empty the pending-edge
        log (folded into ``new_engine``, or discarded with ``old``).
        Downstream swap detection — the stream layer's
        ``_ensure_current_engine`` identity check — needs nothing more
        than the ``self.engine`` assignment."""
        if self.cache is not None:
            old.remove_location_listener(self._on_location_update)
            new_engine.add_location_listener(self._on_location_update)
            outcome = self.cache.invalidate_all()
            with self._stats_lock:
                self.stats.invalidated_entries += int(outcome)
                self.stats.full_invalidations += 1
        self.engine = new_engine
        self._pending_edges.clear()
        # The old engine's column cache dies with it; the new engine
        # starts from a fresh (empty) cache, re-sized to this service's
        # requested byte budget so the knob survives rebuilds.
        self._apply_social_budget(new_engine)

    def replace_engine(self, new_engine: GeoSocialEngine) -> GeoSocialEngine:
        """Swap in an externally built engine — the restore path of
        :class:`~repro.store.SnapshotManager` — through the same
        cache-flush / listener sequence as :meth:`rebuild_engine`, so
        every downstream layer (result cache, update stream, standing
        subscriptions) observes the swap identically.  Edge updates
        batched against the old engine are discarded with it: a restore
        rewinds to the snapshot's topology.  Returns the new engine."""
        self._check_open()
        if new_engine.graph.n != self.engine.graph.n:
            raise ValueError(
                f"replacement engine covers {new_engine.graph.n} users, "
                f"the served one {self.engine.graph.n}"
            )
        with self._write_locked_engine() as old:
            self._swap_engine_locked(old, new_engine)
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

    # -- invalidation listeners (fire inside the update's write lock
    #    when driven through this service; the cache takes its own lock
    #    so direct engine updates stay safe too) -----------------------

    def _on_location_update(self, user: int, x: float | None, y: float | None) -> None:
        if self.cache is None:
            return
        outcome = self.cache.invalidate_location_update(
            user,
            x,
            y,
            query_location=self.engine.locations.get,
        )
        # Counted from the outcome, not from the shared cache stats, so
        # concurrent invalidations attribute their counters exactly.
        with self._stats_lock:
            self.stats.invalidated_entries += int(outcome)
            self.stats.repaired_entries += outcome.repaired
            self.stats.reused_entries += outcome.reused

    # -- introspection -------------------------------------------------

    def cache_info(self) -> dict:
        """Cache statistics snapshot: the result cache's counters at the
        top level (absent when result caching is off) plus the engine's
        social column cache under ``"social"`` (absent when the engine
        carries none) — so ``/stats``, ``/metrics``, and ``repro stats``
        surface both caches from one call."""
        info: dict = {}
        if self.cache is not None:
            stats = self.cache.stats
            info.update(
                {
                    "size": len(self.cache),
                    "capacity": self.cache.capacity,
                    "hits": stats.hits,
                    "misses": stats.misses,
                    "hit_rate": stats.hit_rate,
                    "evictions": stats.evictions,
                    "invalidated": stats.invalidated,
                    "repaired": stats.repaired,
                    "reused": stats.reused,
                    "full_invalidations": stats.full_invalidations,
                    "epoch": self.cache.epoch,
                }
            )
        social = self.engine.social_cache
        if social is not None:
            info["social"] = social.info()
        return info

    def __repr__(self) -> str:
        cache = len(self.cache) if self.cache is not None else "off"
        return f"QueryService(cache={cache}, served={self.stats.requests})"
