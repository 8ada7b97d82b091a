"""Engine facade: one object owning the data, the indexes, and every
query algorithm of the paper.

    >>> from repro import GeoSocialEngine, gowalla_like
    >>> dataset = gowalla_like(n=2000, seed=7)
    >>> engine = GeoSocialEngine.from_dataset(dataset)
    >>> result = engine.query(user=8, k=10, alpha=0.3, method="ais")
    >>> [nb.user for nb in result]          # doctest: +SKIP

Served methods (paper names; one row each in
:data:`repro.plan.rules.METHOD_TABLE`, one builder each in
:data:`SEARCHER_BUILDERS`):

================  ====================================================
``sfa``           Social First Approach (Section 4.1)
``spa``           Spatial First Approach (Section 4.1)
``tsa``           Twofold Search, landmark-aided (Section 4.2)
``tsa-qc``        TSA with Quick Combine probing
``ais``           Aggregate Index Search, all optimisations (Section 5)
``approx``        bounded-error sketch fast path (:mod:`repro.sketch`)
``bounded``       SFA's stopping rule as one radius-limited kernel call
``bruteforce``    exact reference scan
``auto``          ``bounded`` with the static routes (:mod:`repro.plan`)
================  ====================================================

The figure-only variants of the paper's evaluation (``ais-minus``,
``sfa-ch``, ``ais-cache`` …) are not served: the reproduction tier
builds them from an engine's public parts
(:mod:`repro.bench.variants`).

At the preference endpoints the engine routes degenerate requests the
way the definitions demand: ``alpha == 0`` is a pure spatial query
(SFA/TSA route to SPA) and ``alpha == 1`` a pure social one
(SPA/TSA/AIS route to SFA).  ``method="auto"`` resolves per query
through the engine's :class:`~repro.plan.Planner` — the endpoint routes,
and ``bounded`` in the interior — and returns the same ranking any
fixed method would.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.backend import Kernels, resolve_backend
from repro.core.ais import AggregateIndexSearch, AISVariant
from repro.core.bounded import BoundedSearch
from repro.core.bruteforce import BruteForceSearch
from repro.core.ranking import Normalization
from repro.core.request import QueryRequest
from repro.core.result import SSRQResult, TopKBuffer
from repro.core.sfa import SocialFirstSearch
from repro.core.spa import SpatialFirstSearch
from repro.core.tsa import TwofoldSearch
from repro.graph.landmarks import LandmarkIndex
from repro.graph.socialgraph import SocialGraph
from repro.index.aggregate import AggregateIndex
from repro.plan.planner import Planner
from repro.plan.rules import AUTO, METHOD_TABLE, route_method
from repro.sketch.index import SketchIndex
from repro.sketch.searcher import ApproxSketchSearch
from repro.social.cache import DEFAULT_SOCIAL_CACHE_BYTES, SocialColumnCache
from repro.social.scan import column_step
from repro.spatial.grid import UniformGrid
from repro.spatial.multigrid import MultiLevelGrid
from repro.spatial.point import LocationTable
from repro.utils.concurrency import ReadWriteLock
from repro.utils.validation import check_finite_point, check_user

if TYPE_CHECKING:
    from pathlib import Path

__all__ = [
    "AUTO",
    "FORWARD_DETERMINISTIC_METHODS",
    "METHODS",
    "SEARCHER_BUILDERS",
    "EngineBase",
    "GeoSocialEngine",
]

METHODS = tuple(METHOD_TABLE)

#: the methods whose stored results the update-stream layers may repair
#: in place and whose queries can scan a cached social column (see
#: :attr:`repro.plan.rules.MethodSpec.forward`)
FORWARD_DETERMINISTIC_METHODS = frozenset(
    name for name, spec in METHOD_TABLE.items() if spec.forward
)


class EngineBase:
    """The facade both engine kinds share: the data and the shared
    derived state (kernels, the lazily built landmarks, normalization,
    social column cache, planner), the one query pipeline, batch execution,
    location listeners, rebuild and persistence.

    A subclass supplies :meth:`_run` (execute one resolved query) and
    :meth:`_apply_location` (route one location update to its indexes);
    :class:`GeoSocialEngine` adds the indexes and the searchers,
    :class:`~repro.shard.ShardedGeoSocialEngine` the partition, the
    shard bounds and the scatter.
    """

    def __init__(
        self,
        graph: SocialGraph,
        locations: LocationTable,
        *,
        num_landmarks: int,
        landmark_strategy: str,
        s: int,
        seed: int,
        normalization: Normalization | None,
        landmarks: LandmarkIndex | None,
        backend: "str | Kernels",
        planner: "Planner | None",
        social_cache_bytes: int | None,
        social_cache: "SocialColumnCache | None",
    ) -> None:
        if len(locations) != graph.n:
            raise ValueError(
                f"location table covers {len(locations)} users but the graph "
                f"has {graph.n} vertices"
            )
        self.graph = graph
        self.locations = locations
        self.s = s
        self.landmark_strategy = landmark_strategy
        self.seed = seed
        #: resolved batched-evaluation kernels (shared by every searcher)
        self.kernels: Kernels = resolve_backend(backend)
        #: resolved backend name ("numpy"/"python"), stable across rebuilds
        self.backend: str = self.kernels.name
        #: see :attr:`landmarks`
        self._landmarks: LandmarkIndex | None = landmarks
        self._num_landmarks = landmarks.m if landmarks is not None else num_landmarks
        self.normalization = (
            normalization
            if normalization is not None
            else Normalization.estimate(graph, locations, seed=seed)
        )
        #: cross-query social-distance column cache consulted by the
        #: pipeline's column step (:mod:`repro.social`).  Pure function
        #: of the (immutable-per-engine) graph, so location moves never
        #: invalidate it and ``with_graph`` rebuilds start fresh by
        #: construction.  ``social_cache_bytes=0`` disables;
        #: ``social_cache=`` injects a shared instance (the sharded
        #: engine hands its one cache to every shard).
        if social_cache is None:
            budget = (
                DEFAULT_SOCIAL_CACHE_BYTES
                if social_cache_bytes is None
                else social_cache_bytes
            )
            if budget > 0:
                social_cache = SocialColumnCache(graph.n, self.kernels, max_bytes=budget)
        self.social_cache: "SocialColumnCache | None" = social_cache
        #: the ``method="auto"`` resolver (one per engine — a sharded
        #: engine resolves once at the coordinator, so every shard
        #: searches the same concrete method; carried across
        #: ``with_graph`` rebuilds, so its counters do too)
        self.planner: Planner = planner if planner is not None else Planner()
        # Re-entrancy: queries are read-only (audited — every searcher
        # keeps per-query state in locals), so concurrent `query` calls
        # are safe once the searcher exists.  The build lock serialises
        # the *lazy construction* of searchers/indexes so two threads
        # never build the same component twice or observe a half-built
        # one.
        self._build_lock = threading.RLock()
        #: serialises index mutation (move_user/forget_location and the
        #: service layer's edge updates) against concurrent queries —
        #: one lock per engine, shared by every QueryService over it
        self.rw_lock = ReadWriteLock()
        self._location_listeners: list[Callable[[int, float | None, float | None], None]] = []
        # lazily-built default QueryServices for query_many, one per
        # requested pool width (never closed mid-flight: another thread
        # may still be running a batch on an earlier width's pool)
        self._services: dict[int | None, object] = {}

    @classmethod
    def from_dataset(cls, dataset, **kwargs):
        """Build from any object exposing ``.graph`` and ``.locations``
        (e.g. :class:`repro.datasets.GeoSocialDataset`)."""
        return cls(dataset.graph, dataset.locations, **kwargs)

    # -- the lazily built landmark index -----------------------------------

    @property
    def landmarks(self) -> LandmarkIndex:
        """The ALT landmark index (built on first use, once, under the
        build lock).  ``tsa``, ``ais``, the ``approx`` sketch, the
        sharded engine's shard bounds and :meth:`save` read it; nothing
        on the ``auto`` path does.  A snapshot load restores it without
        a build."""
        if self._landmarks is None:
            with self._build_lock:
                if self._landmarks is None:
                    self._landmarks = LandmarkIndex.build(
                        self.graph, self._num_landmarks, self.landmark_strategy, self.seed
                    )
        return self._landmarks

    # -- query dispatch -----------------------------------------------------

    def resolve_method(self, request: QueryRequest) -> str:
        """The concrete method one query dispatches to — the single
        source of the resolution contract: explicit methods validate
        against :data:`METHODS` and take the static endpoint routing,
        ``"auto"`` asks the engine's planner.  The service layer keys a
        named method's cache line on this resolution, and the stream
        layer classifies repairability off it — so screening and
        repairs always see the method that actually ran."""
        method = request.method
        if method == AUTO:
            # an out-of-range user must surface the engine's ValueError
            # contract, not an IndexError from the location lookup
            check_user(request.user, self.graph.n)
            return self.planner.resolve(self, request)
        if method not in METHOD_TABLE:
            raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
        return route_method(method, request.alpha)

    def query(
        self,
        user: "int | QueryRequest",
        k: int | None = None,
        alpha: float | None = None,
        method: str | None = None,
        *,
        budget: float | None = None,
        initial: "TopKBuffer | None" = None,
    ) -> SSRQResult:
        """Answer one SSRQ: the top-``k`` users by
        ``f = α·p/P_max + (1−α)·d/D_max`` around ``user``.

        ``user`` is a user id — with ``k``/``alpha``/``method``/``budget``
        overriding the :class:`~repro.core.request.
        QueryRequest` defaults (``None``: keep the default) — or a
        ready-made request.  Every query runs one pipeline:

        1. **coerce** the arguments into one validated request;
        2. **resolve** the method (:meth:`resolve_method`: endpoint
           routing, or the planner for ``"auto"``);
        3. **column step** — look the query user's social column up
           (:func:`repro.social.scan.column_step`): a cached full
           column answers at once;
        4. **run** the resolved method (:meth:`_run`) and stamp
           ``result.method``.

        The result is identical whatever method runs (all of them
        implement Definition 1 with the shared tie-break).

        ``initial`` warm-starts the search's interim result with
        already fully-evaluated users (the buffer is mutated and folded
        into the answer) — the threshold-propagation hook the sharded
        engine uses so later shards inherit a tight ``f_k`` and can
        terminate after a bound check.

        ``budget`` (default ``None``) is the acceptable score error.
        ``auto`` answers exactly whatever the budget (an exact answer
        meets any); ``method="approx"`` is the sketch fast path, whose
        certified error bound lands on ``result.error_bound``.
        """
        request = QueryRequest.coerce(user, k, alpha, method, budget)
        check_user(request.user, self.graph.n)
        resolved = self.resolve_method(request)
        result = self._column_step(resolved, request, initial)
        result.method = resolved
        return result

    def _column_step(self, resolved: str, request: QueryRequest, initial) -> SSRQResult:
        """Pipeline stage 3, falling through to :meth:`_run` with the
        social stream the searcher should enumerate."""
        return column_step(
            self, resolved, request, initial,
            lambda social: self._run(resolved, request, initial, social),
        )

    def _run(self, resolved: str, request: QueryRequest, initial, social=None) -> SSRQResult:
        """Pipeline stage 4: execute ``request`` with the concrete
        method ``resolved``."""
        raise NotImplementedError

    def query_many(
        self,
        requests: "Iterable[int | QueryRequest]",
        k: int | None = None,
        alpha: float | None = None,
        method: str | None = None,
        max_workers: int | None = None,
        budget: float | None = None,
    ) -> list[SSRQResult]:
        """Answer a heterogeneous batch of SSRQs concurrently.

        Delegates to the service layer (:class:`repro.service.QueryService`)
        with result caching *disabled*: pure batch execution over a
        worker pool, with results returned in request order and rankings
        identical to a sequential :meth:`query` loop.  ``requests`` may
        mix plain user ids (which take the keyword overrides) and
        :class:`~repro.core.request.QueryRequest` objects carrying their
        own parameters.  For caching, update-aware invalidation, and
        statistics, instantiate a :class:`~repro.service.QueryService`
        directly.

        Backing services (and their worker pools) are cached per
        requested ``max_workers`` width, so concurrent callers with
        different widths never tear down each other's pools.
        """
        from repro.service.service import QueryService

        with self._build_lock:
            service = self._services.get(max_workers)
            if service is None:
                service = QueryService(self, cache_size=0, max_workers=max_workers)
                self._services[max_workers] = service
        responses = service.query_many(requests, k, alpha, method, budget)
        return [response.result for response in responses]

    def close(self) -> None:
        """Release pooled resources (the worker pools behind cached
        :meth:`query_many` services).  Queries keep working — the pools
        are rebuilt lazily on the next :meth:`query_many` — so closing
        a swapped-out engine after
        :meth:`~repro.service.QueryService.rebuild_engine` is safe."""
        with self._build_lock:
            services, self._services = list(self._services.values()), {}
        for service in services:
            service.close()

    # -- dynamic locations -----------------------------------------------

    def add_location_listener(
        self, listener: Callable[[int, float | None, float | None], None]
    ) -> None:
        """Subscribe ``listener(user, x, y)`` to every location update
        applied through this engine (``x is None`` signals a forgotten
        location).  Used by the service layer's result cache for
        update-aware invalidation."""
        self._location_listeners.append(listener)

    def remove_location_listener(
        self, listener: Callable[[int, float | None, float | None], None]
    ) -> None:
        """Unsubscribe a previously added location listener (no-op if
        absent)."""
        try:
            self._location_listeners.remove(listener)
        except ValueError:
            pass

    def _notify_location(self, user: int, x: float | None, y: float | None) -> None:
        """Fire the location listeners (caller holds the write lock).
        Iterates a snapshot: a listener may detach itself (or a
        sibling) from another thread without this write lock; mutating
        the live list mid-iteration could silently skip a listener."""
        for listener in list(self._location_listeners):
            listener(user, x, y)

    def move_user(self, user: int, x: float, y: float) -> None:
        """Process a location update: refresh the location table and
        every spatial index covering ``user`` (a sharded engine routes
        a boundary crossing from the old owner's indexes to the new
        one's), then fire the location listeners — identically on both
        engine kinds, so service-layer caches invalidate the same
        entries either way.

        Takes :attr:`rw_lock`'s exclusive side, so the mutation is
        serialised against every query flowing through the service
        layer (direct concurrent :meth:`query` calls that bypass the
        lock remain unsafe).
        """
        check_user(user, self.graph.n)
        check_finite_point(x, y)
        with self.rw_lock.write_locked():
            self._apply_location(user, x, y)
            self._notify_location(user, x, y)

    def forget_location(self, user: int) -> None:
        """Mark a user's location as unknown and de-index them
        (exclusively, like :meth:`move_user`)."""
        check_user(user, self.graph.n)
        with self.rw_lock.write_locked():
            if not self.locations.has_location(user):
                return
            self._apply_location(user, None, None)
            self._notify_location(user, None, None)

    def _apply_location(self, user: int, x: float | None, y: float | None) -> None:
        """Write one location update (``x is None``: forget) to the
        location table and the indexes; caller holds the write lock."""
        raise NotImplementedError

    # -- rebuild ----------------------------------------------------------

    def with_graph(self, graph: SocialGraph, **overrides):
        """A fresh engine of the same kind over ``graph``, reusing this
        engine's parameters (and location table) unless overridden.

        The service layer's :meth:`~repro.service.QueryService.rebuild_engine`
        calls this to fold batched edge updates into a new engine while
        preserving the engine kind — a sharded engine re-shards.
        Landmarks are rebuilt (the graph changed), the normalization is
        kept (a shared constant preserves rankings).
        """
        kwargs = self._rebuild_kwargs()
        kwargs.update(overrides)
        return type(self)(graph, self.locations, **kwargs)

    def _rebuild_kwargs(self) -> dict:
        return dict(
            num_landmarks=self._num_landmarks,
            landmark_strategy=self.landmark_strategy,
            s=self.s,
            seed=self.seed,
            normalization=self.normalization,
            # the resolved Kernels instance, not the name: a
            # user-supplied custom backend survives the rebuild too
            backend=self.kernels,
            # the live planner instance: its counters carry on
            planner=self.planner,
            # only the byte budget crosses the rebuild, never the cache
            # instance: the new engine's columns come from the new graph,
            # so the edge-epoch boundary is structural
            social_cache_bytes=(
                self.social_cache.max_bytes if self.social_cache is not None else 0
            ),
        )

    # -- persistence -------------------------------------------------------

    def save(self, path) -> "Path":
        """Write a crash-consistent columnar snapshot of this engine to
        directory ``path`` (see :mod:`repro.store`): the columns land in
        a temp sibling first, the manifest is the commit point, and the
        final atomic rename makes the snapshot visible all-or-nothing.
        A sharded engine writes its global columns once plus per-shard
        grid arrays and the fitted partitioner.  Returns the snapshot
        directory.

        Takes the engine's shared read lock, so the image is a
        consistent cut with respect to concurrent location updates.
        """
        from repro.store import save_engine

        with self.rw_lock.read_locked():
            return save_engine(self, path)

    @classmethod
    def load(cls, path, *, mmap: bool = True, verify: bool = True):
        """Warm-start an engine from a snapshot directory written by
        :meth:`save` — O(read) instead of O(rebuild): no Dijkstra
        sweeps, no index insertion scans.  With ``mmap=True`` the
        coordinate columns and the landmark matrix are memory-mapped
        copy-on-write, so load cost is page-cache reads and mutation
        stays private to this process.  A sharded snapshot restores
        each shard's persisted indexes and rebuilds the partitioner
        exactly from the manifest."""
        from repro.store import load_engine

        engine = load_engine(path, mmap=mmap, verify=verify)
        if not isinstance(engine, cls):
            raise TypeError(
                f"snapshot at {path} holds a {type(engine).__name__}, "
                f"not a {cls.__name__}; use that class's load()"
            )
        return engine

    # -- introspection ----------------------------------------------------

    def located_users(self) -> Sequence[int]:
        return list(self.locations.located_users())


class GeoSocialEngine(EngineBase):
    """Indexes a geo-social dataset and answers SSRQ queries.

        >>> from repro import GeoSocialEngine, gowalla_like
        >>> engine = GeoSocialEngine.from_dataset(gowalla_like(n=300, seed=7))
        >>> result = engine.query(user=0, k=5, alpha=0.3, method="ais")
        >>> len(result.users)
        5
        >>> result.users == engine.query(0, 5, 0.3, method="bruteforce").users
        True

    Adds to :class:`EngineBase` SPA's grid, the lazily built aggregate
    index and sketch, and one searcher object per method.

    Parameters
    ----------
    graph, locations:
        The social graph and the user location table.
    num_landmarks:
        ``M``; the paper fine-tunes it to 8.
    landmark_strategy:
        ``"farthest"`` (default), ``"random"`` or ``"degree"``.
    s:
        Grid fanout (Table 3 default 10): the aggregate index keeps an
        ``s x s`` top level over ``s² x s²`` leaves; SPA's single-level
        grid uses the leaf resolution.
    normalization:
        Optional pre-computed :class:`Normalization` (estimated from the
        data when omitted).
    landmarks:
        Optional pre-built :class:`~repro.graph.landmarks.LandmarkIndex`
        over ``graph``; injected by the sharded engine so every shard
        shares one set of landmark tables instead of rebuilding them,
        and by a snapshot load.  When given, ``num_landmarks`` /
        ``landmark_strategy`` are ignored for construction (but
        ``landmark_strategy`` is still recorded for rebuilds); when
        omitted the index is built on first use (:attr:`landmarks`).
    index_users:
        Optional user subset to index spatially.  When given, the SPA
        grid and the aggregate index cover only these users (a *member
        filter*) while the location table — typically shared — keeps
        answering distance lookups for everyone, including query users
        owned by other shards.  Member-filtered engines are managed by
        a sharding coordinator: :meth:`move_user` and
        :meth:`forget_location` raise, because membership routing must
        happen above the single shard.
    backend:
        Candidate-evaluation backend: ``"auto"`` (the default — NumPy
        when importable, honouring the ``REPRO_BACKEND`` environment
        variable), ``"numpy"``, ``"python"``, or a ready-made
        :class:`~repro.backend.base.Kernels` instance.  Resolved once
        at construction (see :func:`repro.backend.resolve_backend`) and
        propagated through :meth:`with_graph` rebuilds; both backends
        produce bit-identical rankings, tie-breaks included.
    planner:
        Optional :class:`~repro.plan.Planner` resolving
        ``method="auto"`` (a fresh one when omitted).  Carried across
        :meth:`with_graph` rebuilds, so its counters survive
        :meth:`~repro.service.QueryService.rebuild_engine`.
    """

    def __init__(
        self,
        graph: SocialGraph,
        locations: LocationTable,
        *,
        num_landmarks: int = 8,
        landmark_strategy: str = "farthest",
        s: int = 10,
        seed: int = 0,
        normalization: Normalization | None = None,
        landmarks: LandmarkIndex | None = None,
        index_users: Iterable[int] | None = None,
        backend: "str | Kernels" = "auto",
        planner: "Planner | None" = None,
        grid: UniformGrid | None = None,
        sketch: SketchIndex | None = None,
        social_cache_bytes: int | None = None,
        social_cache: "SocialColumnCache | None" = None,
    ) -> None:
        super().__init__(
            graph,
            locations,
            num_landmarks=num_landmarks,
            landmark_strategy=landmark_strategy,
            s=s,
            seed=seed,
            normalization=normalization,
            landmarks=landmarks,
            backend=backend,
            planner=planner,
            social_cache_bytes=social_cache_bytes,
            social_cache=social_cache,
        )
        self.index_users: set[int] | None = (
            None if index_users is None else set(index_users)
        )
        members = None if self.index_users is None else sorted(self.index_users)
        # grid injection is the warm-start path of :mod:`repro.store`:
        # a restored grid skips the insertion scan
        self.grid = (
            grid if grid is not None else UniformGrid.build(locations, s * s, users=members)
        )
        #: AIS's index (see :attr:`aggregate`); maintained by the
        #: ``_index_*`` primitives only once it exists
        self._aggregate: AggregateIndex | None = None
        #: the social-distance sketch behind ``method="approx"`` (built
        #: lazily on first approx query; injectable — the store's
        #: restore path adopts persisted sketch columns here)
        self._sketch: SketchIndex | None = sketch
        self._searchers: dict[str, object] = {}

    # -- the lazily-built indexes -----------------------------------------

    @property
    def aggregate(self) -> AggregateIndex:
        """The aggregate index (built on first use; only ``ais`` and the
        reproduction tier's AIS variants read it).  Its leaf level is a
        copy of the maintained SPA grid — same cells, same in-cell
        order — so an index built late equals one kept from the start.
        Build it under :attr:`rw_lock`'s read side at least (the service
        layer's queries are), so no location update races the copy."""
        if self._aggregate is None:
            with self._build_lock:
                if self._aggregate is None:
                    self._aggregate = AggregateIndex(
                        MultiLevelGrid.from_grid(self.grid.copy(), self.s),
                        self.landmarks,
                        self.locations,
                    )
        return self._aggregate

    @property
    def sketch(self) -> SketchIndex:
        """The social-distance sketch (built on first use; required only
        by ``method="approx"``)."""
        if self._sketch is None:
            with self._build_lock:
                if self._sketch is None:
                    self._sketch = SketchIndex.build(
                        self.graph, self.landmarks, seed=self.seed, kernels=self.kernels
                    )
        return self._sketch

    # -- query dispatch -----------------------------------------------------

    def searcher(self, method: str):
        """The query-processor object behind ``method`` (cached)."""
        searcher = self._searchers.get(method)
        if searcher is None:
            build = SEARCHER_BUILDERS.get(method)
            if build is None:
                raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
            with self._build_lock:
                searcher = self._searchers.get(method)
                if searcher is None:
                    searcher = self._searchers[method] = build(self)
        return searcher

    def _run(self, resolved: str, request: QueryRequest, initial, social=None) -> SSRQResult:
        stream = {} if social is None else {"social": social}
        return self.searcher(resolved).search(
            request.user, request.k, request.alpha, initial=initial, **stream
        )

    # -- dynamic locations -----------------------------------------------

    def _apply_location(self, user: int, x: float | None, y: float | None) -> None:
        if self.index_users is not None:
            raise RuntimeError(
                "location update on a member-filtered engine: shard membership "
                "is routed above the single shard — apply updates through "
                "the owning ShardedGeoSocialEngine"
            )
        if x is None:
            self.locations.clear(user)
            self._index_remove(user)
            return
        had_location = self.locations.has_location(user)
        self.locations.set(user, x, y)
        if had_location:
            self._index_move(user, x, y)
        else:
            self._index_insert(user, x, y)

    # -- index maintenance primitives (the sharding coordinator drives
    #    these directly, under *its* write lock, because a boundary
    #    crossing touches two shards' indexes while the shared location
    #    table must be written exactly once) ----------------------------

    def _index_insert(self, user: int, x: float, y: float) -> None:
        """Add ``user`` (already written to the location table) to the
        spatial indexes; tracks membership on filtered engines."""
        self.grid.insert(user, x, y)
        if self._aggregate is not None:
            self._aggregate.insert_user(user, x, y)
        if self.index_users is not None:
            self.index_users.add(user)

    def _index_remove(self, user: int) -> None:
        """De-index ``user`` from the grid and the aggregate index."""
        self.grid.remove(user)
        if self._aggregate is not None:
            self._aggregate.remove_user(user)
        if self.index_users is not None:
            self.index_users.discard(user)

    def _index_move(self, user: int, x: float, y: float) -> None:
        """Relocate an indexed ``user`` within this engine's indexes."""
        self.grid.move(user, x, y)
        if self._aggregate is not None:
            self._aggregate.move_user(user, x, y)

    # -- introspection ----------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"GeoSocialEngine(n={self.graph.n}, edges={self.graph.num_edges}, "
            f"located={self.locations.n_located}, M={self._num_landmarks}, s={self.s}, "
            f"backend={self.backend!r})"
        )


def _twofold(engine: GeoSocialEngine, **options) -> TwofoldSearch:
    return TwofoldSearch(
        engine.graph, engine.locations, engine.grid, engine.normalization,
        landmarks=engine.landmarks, kernels=engine.kernels, **options,
    )


#: ``name -> builder(engine)``: how each :data:`METHODS` row's searcher
#: is made from an engine's parts
SEARCHER_BUILDERS: "dict[str, Callable[[GeoSocialEngine], object]]" = {
    "sfa": lambda e: SocialFirstSearch(e.graph, e.locations, e.normalization),
    "spa": lambda e: SpatialFirstSearch(
        e.graph, e.locations, e.grid, e.normalization, kernels=e.kernels
    ),
    "tsa": _twofold,
    "tsa-qc": lambda e: _twofold(e, probe_policy="quick-combine"),
    "ais": lambda e: AggregateIndexSearch(
        e.graph, e.locations, e.landmarks, e.aggregate, e.normalization,
        AISVariant.full(), kernels=e.kernels,
    ),
    "approx": lambda e: ApproxSketchSearch(
        e.graph, e.locations, e.normalization, e.sketch, kernels=e.kernels
    ),
    "bounded": lambda e: BoundedSearch(
        e.graph, e.locations, e.normalization, kernels=e.kernels
    ),
    "bruteforce": lambda e: BruteForceSearch(
        e.graph, e.locations, e.normalization, kernels=e.kernels
    ),
}
