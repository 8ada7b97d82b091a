"""The traffic-serving front-end over :class:`GeoSocialEngine`.

:class:`QueryService` turns the single-query engine facade into a
component that can absorb realistic load:

- **batching** — :meth:`QueryService.query_many` accepts a heterogeneous
  batch (per-request method/α/k), deduplicates identical requests, and
  executes the distinct remainder concurrently on a thread pool, while
  returning responses in request order with rankings identical to a
  sequential ``engine.query`` loop;
- **caching** — an update-aware LRU (:mod:`repro.service.cache`) keyed
  on the question for exact ``auto`` requests and on the resolved
  method otherwise (:meth:`QueryService._line`), looked up *before*
  anything is planned or locked (:meth:`QueryService.cached` is that
  lookup alone, for callers that must not block), repaired or
  invalidated exactly on location moves via the engine's listener hook
  and emptied when the engine is swapped (the only moment the served
  graph changes);
- **consistency** — the engine's readers-writer lock (``engine.rw_lock``,
  shared by every service over the same engine) lets queries run
  concurrently while serialising updates against in-flight queries (the
  engine's grid/aggregate-index mutation is not safe under readers).

The service is engine-kind agnostic: it serves a single
:class:`~repro.core.engine.GeoSocialEngine` or a
:class:`~repro.shard.ShardedGeoSocialEngine` identically — both expose
the same ``query``/update/listener/lock surface, and the sharded
engine's location listeners fire with the same semantics, so
update-aware cache invalidation (including boundary-crossing moves that
re-home a user onto another shard) needs no sharding-specific code
here.

The algorithms are read-mostly and pure-Python; a thread pool therefore
buys latency overlap (and true parallelism on GIL-free builds) while
the cache buys throughput on skewed workloads — perfbench's
``hot_zipf`` workload (``service.result_hit_share``) measures it.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Iterable, Iterator

from repro.core.engine import AUTO, GeoSocialEngine, resolve_dispatch
from repro.core.ranking import RankingFunction
from repro.core.request import QueryRequest
from repro.core.result import SSRQResult
from repro.plan.rules import route_method
from repro.service.cache import ResultCache
from repro.service.model import QueryResponse, ServiceStats
from repro.utils.validation import check_user


def _default_workers() -> int:
    return min(8, os.cpu_count() or 1)


class QueryService:
    """Concurrent, caching SSRQ serving layer.

        >>> from repro import GeoSocialEngine, gowalla_like
        >>> from repro.service import QueryRequest, QueryService
        >>> engine = GeoSocialEngine.from_dataset(gowalla_like(n=300, seed=7))
        >>> service = QueryService(engine, max_workers=2, cache_size=64)
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
        The (already built) engine to serve from — a
        :class:`~repro.core.engine.GeoSocialEngine` or a
        :class:`~repro.shard.ShardedGeoSocialEngine`.
    max_workers:
        Worker-pool width for batches (default: ``min(8, cpus)``).
        ``1`` executes batches inline with no pool.
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
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.engine = engine
        self.max_workers = max_workers if max_workers is not None else _default_workers()
        self.cache: ResultCache | None = ResultCache(cache_size) if cache_size > 0 else None
        self.stats = ServiceStats()
        self._closed = False
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
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
        social = getattr(engine, "social_cache", None)
        if social is not None:
            social.resize(self._social_cache_bytes)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Shut down the service: stop the worker pool, detach the
        engine listeners, and flush the cache.  Any further serving or
        update call raises ``RuntimeError`` (the listeners are gone, so
        a reused service could otherwise silently serve stale
        results)."""
        self._closed = True
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
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

    def _executor(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            # Re-checked under the pool lock: a query racing close()
            # must not resurrect the pool after shutdown.
            self._check_open()
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers, thread_name_prefix="ssrq-worker"
                )
            return self._pool

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
    def _line(request: QueryRequest) -> "str | None":
        """The method component of a request's cache line, when it can
        be told without planning.

        - A named method: its statically routed name, so endpoint
          aliases (``tsa`` at ``alpha == 0`` and ``spa``, …) share one
          line and ``result.method`` stays what the caller asked for.
        - Exact ``auto``: ``AUTO`` itself — the *question line*.  Every
          arm the planner may pick is forward-deterministic and
          bit-identical (``tests/test_plan_equivalence.py``), so the
          question ``(user, k, α, normalization)`` alone names the
          answer and a repeat hits whichever arm ran first, even while
          the planner is still exploring.
        - Budgeted ``auto``: ``None`` — ``approx`` may answer it, so
          its line is the planner's resolved method plus the budget.
        """
        if request.method != AUTO:
            return route_method(request.method, request.alpha)
        return None if request.budget else AUTO

    def _cache_key(
        self, request: QueryRequest, engine: GeoSocialEngine, resolved: str
    ) -> tuple:
        """The cache line for one request under method component
        ``resolved`` (:meth:`_line`, or the planner's pick for a
        budgeted ``auto``).

        The accuracy budget is part of the signature: a budgeted answer
        may be approximate, so it must never satisfy an exact request
        with otherwise identical parameters.  ``budget=0`` is
        normalised to the unset form — both demand exactness, so they
        share a line."""
        norm = engine.normalization
        return (
            request.user,
            request.k,
            request.alpha,
            resolved,
            (norm.p_max, norm.d_max),
            request.budget or None,
        )

    def cached(self, request: QueryRequest) -> "QueryResponse | None":
        """The stored answer to ``request`` or ``None`` — a read-only
        probe that never plans, never waits on the engine lock and
        never executes, so a caller that must not block (the server's
        event loop) can try it before handing the request to
        :meth:`query`.

        A hit is accounted exactly as :meth:`query` would (``requests``
        and ``cache_hits``, LRU position refreshed); a miss counts
        nothing — the :meth:`query` that follows it counts the one
        miss.  Safe without the engine lock: an answer read during a
        concurrent move linearises before the move, and an engine swap
        flushes the cache under its own lock."""
        line = self._line(request)
        if self.cache is None or line is None:
            return None
        result = self.cache.hit(self._cache_key(request, self.engine, line))
        if result is None:
            return None
        with self._stats_lock:
            self.stats.requests += 1
            self.stats.cache_hits += 1
        return QueryResponse(request, result, cached=True)

    def _precalibrate_planner(self) -> None:
        """One-time planner calibration for ``auto`` traffic, run
        *before* this thread takes the engine's read lock: each probe
        acquires the read side itself, so a pending update stalls for
        one probe query, not the whole calibration pass (the engine lock
        is writer-preferring — calibrating under a held read lock would
        stall every other reader behind a queued writer)."""
        engine = self.engine
        planner = engine.planner
        if not planner.calibrated:
            planner.calibrate(engine, read_lock=engine.rw_lock.read_locked)

    def query(
        self,
        request: "int | QueryRequest",
        k: int | None = None,
        alpha: float | None = None,
        method: str | None = None,
        budget: float | None = None,
    ) -> QueryResponse:
        """Serve one SSRQ (cache-first); a plain user id takes the
        keyword overrides (``None``: the
        :class:`~repro.core.request.QueryRequest` default)."""
        self._check_open()
        return self._serve([QueryRequest.coerce(request, k, alpha, method, budget)])[0]

    def query_many(
        self,
        requests: "Iterable[int | QueryRequest]",
        k: int | None = None,
        alpha: float | None = None,
        method: str | None = None,
        budget: float | None = None,
    ) -> list[QueryResponse]:
        """Serve a batch: cache lookups, in-batch deduplication, then
        concurrent execution of the distinct remainder.

        Responses come back in request order, and each ranking is
        identical to what a sequential ``engine.query`` loop would have
        produced (queries are read-only and deterministic; updates are
        excluded for the duration of the batch by the engine's
        readers-writer lock).
        """
        self._check_open()
        responses = self._serve(
            [QueryRequest.coerce(item, k, alpha, method, budget) for item in requests]
        )
        with self._stats_lock:
            self.stats.batches += 1
        return responses

    def _serve(self, reqs: "list[QueryRequest]") -> list[QueryResponse]:
        """The serve path, written once for :meth:`query` (a batch of
        one) and :meth:`query_many`: cache lookup on every line that
        needs no planning (:meth:`_line`) → for the rest, under the
        engine's read lock: resolve → (budgeted ``auto`` only: cache
        lookup) → (:meth:`_execute_pending`: execute → planner observe
        → cache put) → account.  A batch of hits touches neither the
        planner nor the engine lock."""
        responses: list[QueryResponse | None] = [None] * len(reqs)
        hits = 0
        misses: list[int] = []
        for i, req in enumerate(reqs):
            line = self._line(req)
            if line is not None and self.cache is not None:
                hit = self.cache.get(self._cache_key(req, self.engine, line))
                if hit is not None:
                    responses[i] = QueryResponse(req, hit, cached=True)
                    hits += 1
                    continue
            misses.append(i)
        if misses:
            if any(reqs[i].method == AUTO for i in misses):
                self._precalibrate_planner()
            with self._read_locked_engine() as engine:
                hits += self._serve_misses(engine, reqs, misses, responses)
        with self._stats_lock:
            self.stats.requests += len(reqs)
            self.stats.cache_hits += hits
            self.stats.cache_misses += len(reqs) - hits
        return responses  # type: ignore[return-value]

    def _serve_misses(self, engine, reqs, misses, responses) -> int:
        """Resolve and execute ``reqs[i] for i in misses`` under
        ``engine``'s read lock; returns how many a budgeted-``auto``
        line answered from the cache after all."""
        hits = 0
        # One method resolution per *distinct* request, memoized so
        # identical budgeted-auto requests resolve (and so key)
        # identically inside the batch.  ``decision`` is ``None``
        # unless the planner was consulted (``method="auto"``).
        resolutions: dict[QueryRequest, tuple] = {}
        #: distinct cache key → (the request pinned to its resolved
        #: method, planner decision, the request indexes waiting)
        pending: "dict[tuple, tuple[QueryRequest, object, list[int]]]" = {}
        for i in misses:
            req = reqs[i]
            plan = resolutions.get(req)
            if plan is None:
                plan = resolutions[req] = resolve_dispatch(engine, req)
            resolved, decision = plan
            line = self._line(req)
            key = self._cache_key(req, engine, line or resolved)
            if line is None and self.cache is not None:
                hit = self.cache.get(key)
                if hit is not None:
                    responses[i] = QueryResponse(req, hit, cached=True)
                    hits += 1
                    continue
            waiting = pending.get(key)
            if waiting is None:
                pending[key] = (req.with_method(resolved), decision, [i])
            else:
                waiting[2].append(i)
        if pending:
            self._execute_pending(engine, reqs, pending, responses)
        return hits

    def _execute_pending(self, engine, reqs, pending, responses) -> None:
        """Execute the distinct cache misses of one batch (concurrently
        when the batch and the pool allow it), feed the planner, fill
        the cache, and fan the results out to ``responses``.

        Every distinct miss runs ``engine.query``; variants for one hot
        query user still share its social column through the engine's
        column step (the first fills it, the rest scan).
        """
        work = [request for request, _, _ in pending.values()]

        def run(request: QueryRequest) -> "tuple[SSRQResult, float]":
            start = time.perf_counter()
            result = engine.query(request)
            return result, time.perf_counter() - start

        if len(work) > 1 and self.max_workers > 1:
            executed = list(self._executor().map(run, work))
        else:
            executed = [run(request) for request in work]

        for (key, (request, decision, indexes)), (result, elapsed) in zip(
            pending.items(), executed
        ):
            if decision is not None:
                engine.planner.observe(decision, elapsed)
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

        Builds a new engine *of the same kind* (via ``with_graph``; a
        sharded engine re-shards) over the served graph with the
        pending updates applied
        (:meth:`~repro.graph.socialgraph.SocialGraph.with_edge_updates`),
        with the old engine's parameters (override any via
        ``engine_kwargs``), then flushes the cache and swaps the engine
        in.  The expensive build (landmark rows, index construction)
        runs *outside* the lock — only the snapshot and the swap hold
        the exclusive side, so queries stall for milliseconds, not the
        whole rebuild; an edge update (or another swap) that slips in
        mid-build triggers a re-snapshot.  The swapped-out engine's
        pooled resources are released (``old.close()``) — callers
        holding a direct reference to it should switch to the returned
        engine.  Returns the new engine.
        """
        self._check_open()
        while True:
            with self._write_locked_engine() as old:
                pending = dict(self._pending_edges)
            # `with_graph` preserves the engine kind: a sharded engine
            # re-shards over the new topology, a single engine
            # rebuilds its indexes; both keep the old normalization so
            # rankings stay comparable across the swap.
            new_engine = old.with_graph(
                old.graph.with_edge_updates(pending), **engine_kwargs
            )
            with old.rw_lock.write_locked():
                current = self.engine is old and self._pending_edges == pending
                if current:
                    self._swap_engine_locked(old, new_engine)
            if not current:
                new_engine.close()
                continue  # an update or a swap interleaved: re-snapshot
            # Outside the write lock (no service reader can still hold
            # the old engine once the swap is visible): release the old
            # engine's worker pools so periodic rebuilds don't leak
            # threads for the process lifetime.
            old.close()
            return new_engine

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
        rewinds to the snapshot's topology.  The old engine's pools are
        released; returns the new engine."""
        self._check_open()
        if new_engine.graph.n != self.engine.graph.n:
            raise ValueError(
                f"replacement engine covers {new_engine.graph.n} users, "
                f"the served one {self.engine.graph.n}"
            )
        with self._write_locked_engine() as old:
            self._swap_engine_locked(old, new_engine)
        old.close()
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
        social = getattr(self.engine, "social_cache", None)
        if social is not None:
            info["social"] = social.info()
        return info

    def __repr__(self) -> str:
        cache = len(self.cache) if self.cache is not None else "off"
        return (
            f"QueryService(workers={self.max_workers}, cache={cache}, "
            f"served={self.stats.requests})"
        )
