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
fixed method would.  A query user without a location is answerable only
at ``alpha == 1``; below it every method raises the same ``ValueError``.
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
from repro.core.result import SSRQResult
from repro.core.sfa import SocialFirstSearch
from repro.core.spa import SpatialFirstSearch
from repro.core.tsa import TwofoldSearch
from repro.graph.landmarks import LANDMARK_STRATEGIES, LandmarkIndex
from repro.graph.socialgraph import SocialGraph
from repro.index.aggregate import AggregateIndex
from repro.plan.planner import Planner
from repro.plan.rules import AUTO, METHOD_TABLE, route_method
from repro.social.cache import DEFAULT_SOCIAL_CACHE_BYTES, SocialColumnCache
from repro.social.scan import column_step
from repro.spatial.grid import UniformGrid
from repro.spatial.multigrid import MultiLevelGrid
from repro.spatial.point import LocationTable
from repro.utils.concurrency import ReadWriteLock
from repro.utils.validation import check_finite_point, check_size, check_user

if TYPE_CHECKING:
    from pathlib import Path

__all__ = [
    "AUTO",
    "FORWARD_DETERMINISTIC_METHODS",
    "METHODS",
    "SEARCHER_BUILDERS",
    "GeoSocialEngine",
]

METHODS = tuple(METHOD_TABLE)

#: the methods whose stored results the update-stream layers may repair
#: in place and whose queries can scan a cached social column (see
#: :attr:`repro.plan.rules.MethodSpec.forward`)
FORWARD_DETERMINISTIC_METHODS = frozenset(
    name for name, spec in METHOD_TABLE.items() if spec.forward
)


class GeoSocialEngine:
    """Indexes a geo-social dataset and answers SSRQ queries.

        >>> from repro import GeoSocialEngine, gowalla_like
        >>> engine = GeoSocialEngine.from_dataset(gowalla_like(n=300, seed=7))
        >>> result = engine.query(user=0, k=5, alpha=0.3, method="ais")
        >>> len(result.users)
        5
        >>> result.users == engine.query(0, 5, 0.3, method="bruteforce").users
        True

    Owns the data and the derived state every searcher shares (kernels,
    normalization, social column cache, planner, and the three indexes
    derived from the data: SPA's grid, the landmark index and the
    aggregate index, each built by its first reader), one searcher
    object per method, the one query pipeline, location listeners,
    rebuild and persistence.

    Parameters
    ----------
    graph, locations:
        The social graph and the user location table.
    num_landmarks:
        ``M``, a positive integer; the paper fine-tunes it to 8.  More
        landmarks than users is refused when the index is built.
    landmark_strategy:
        ``"farthest"`` (default), ``"random"`` or ``"degree"``.
    s:
        Grid fanout, a positive integer (Table 3 default 10): the
        aggregate index keeps an ``s x s`` top level over ``s² x s²``
        leaves; SPA's single-level grid uses the leaf resolution.
    normalization:
        Optional pre-computed :class:`Normalization` (estimated from the
        data when omitted).
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
    social_cache_bytes:
        Byte budget of the cross-query social column cache (``None``:
        the default budget; ``0`` disables it; anything but a
        non-negative integer is a ``ValueError``).
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
        backend: "str | Kernels" = "auto",
        planner: "Planner | None" = None,
        social_cache_bytes: int | None = None,
    ) -> None:
        if len(locations) != graph.n:
            raise ValueError(
                f"location table covers {len(locations)} users but the graph "
                f"has {graph.n} vertices"
            )
        if landmark_strategy not in LANDMARK_STRATEGIES:
            raise ValueError(
                f"landmark_strategy must be one of {LANDMARK_STRATEGIES}, "
                f"got {landmark_strategy!r}"
            )
        self.graph = graph
        self.locations = locations
        self.s = check_size("s", s, minimum=1)
        #: ``M``, the landmark count :attr:`landmarks` is built with
        self.num_landmarks = check_size("num_landmarks", num_landmarks, minimum=1)
        self.landmark_strategy = landmark_strategy
        self.seed = seed
        #: resolved batched-evaluation kernels (shared by every searcher)
        self.kernels: Kernels = resolve_backend(backend)
        #: resolved backend name ("numpy"/"python"), stable across rebuilds
        self.backend: str = self.kernels.name
        #: see :attr:`landmarks`
        self._landmarks: LandmarkIndex | None = None
        self.normalization = (
            normalization
            if normalization is not None
            else Normalization.estimate(graph, locations, seed=seed)
        )
        #: cross-query social-distance column cache consulted by the
        #: pipeline's column step (:mod:`repro.social`).  Pure function
        #: of the (immutable-per-engine) graph, so location moves never
        #: invalidate it and ``with_graph`` rebuilds start fresh by
        #: construction.
        budget = (
            DEFAULT_SOCIAL_CACHE_BYTES
            if social_cache_bytes is None
            else check_size("social_cache_bytes", social_cache_bytes)
        )
        self.social_cache: "SocialColumnCache | None" = (
            SocialColumnCache(graph.n, self.kernels, max_bytes=budget) if budget > 0 else None
        )
        #: the ``method="auto"`` resolver (carried across ``with_graph``
        #: rebuilds, so its counters do too)
        self.planner: Planner = planner if planner is not None else Planner()
        #: SPA's grid and AIS's index (see :attr:`grid`, :attr:`aggregate`);
        #: maintained by location updates only once they exist
        self._grid: UniformGrid | None = None
        self._aggregate: AggregateIndex | None = None
        self._searchers: dict[str, object] = {}
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

    @classmethod
    def from_dataset(cls, dataset, **kwargs):
        """Build from any object exposing ``.graph`` and ``.locations``
        (e.g. :class:`repro.datasets.GeoSocialDataset`)."""
        return cls(dataset.graph, dataset.locations, **kwargs)

    # -- the lazily-built indexes -----------------------------------------

    @property
    def grid(self) -> UniformGrid:
        """SPA's grid: ``s² x s²`` cells over the located users (built
        on first use, once, under the build lock, from the current
        locations; kept current by every later location update).
        ``spa``, ``tsa`` and the aggregate index read it; nothing on the
        interior ``auto`` path does.  Like :attr:`aggregate`, build it
        under :attr:`rw_lock`'s read side at least, so no location
        update races the scan."""
        if self._grid is None:
            with self._build_lock:
                if self._grid is None:
                    self._grid = UniformGrid.build(self.locations, self.s * self.s)
        return self._grid

    @property
    def landmarks(self) -> LandmarkIndex:
        """The ALT landmark index (built on first use, once, under the
        build lock).  ``tsa`` and ``ais`` read it; nothing on the
        ``auto`` path and no snapshot does."""
        if self._landmarks is None:
            with self._build_lock:
                if self._landmarks is None:
                    self._landmarks = LandmarkIndex.build(
                        self.graph, self.num_landmarks, self.landmark_strategy, self.seed
                    )
        return self._landmarks

    @property
    def aggregate(self) -> AggregateIndex:
        """The aggregate index (built on first use; only ``ais`` and the
        reproduction tier's AIS variants read it).  Its leaf level is a
        copy of :attr:`grid` — same cells, same in-cell order — so an
        index built late equals one kept from the start.  Build it under
        :attr:`rw_lock`'s read side at least (the service layer's
        queries are), so no location update races the copy."""
        if self._aggregate is None:
            with self._build_lock:
                if self._aggregate is None:
                    self._aggregate = AggregateIndex(
                        MultiLevelGrid.from_grid(self.grid.copy(), self.s),
                        self.landmarks,
                        self.locations,
                    )
        return self._aggregate

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
            # contract before the planner sees it
            check_user(request.user, self.graph.n)
            return self.planner.resolve(self, request)
        if method not in METHOD_TABLE:
            raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
        return route_method(method, request.alpha)

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

    def query(
        self,
        user: "int | QueryRequest",
        k: int | None = None,
        alpha: float | None = None,
        method: str | None = None,
    ) -> SSRQResult:
        """Answer one SSRQ: the top-``k`` users by
        ``f = α·p/P_max + (1−α)·d/D_max`` around ``user``.

        ``user`` is a user id — with ``k``/``alpha``/``method``
        overriding the :class:`~repro.core.request.
        QueryRequest` defaults (``None``: keep the default) — or a
        ready-made request.  Every query runs one pipeline:

        1. **coerce** the arguments into one validated request;
        2. **resolve** the method (:meth:`resolve_method`: endpoint
           routing, or the planner for ``"auto"``);
        3. **column step** — look the query user's social column up
           (:func:`repro.social.scan.column_step`): a cached full
           column answers at once;
        4. **run** the resolved method's searcher and stamp
           ``result.method``.

        The result is identical whatever method runs (all of them
        implement Definition 1 with the shared tie-break).  A query user
        without a location raises ``ValueError`` ("no known location")
        for every method unless ``alpha == 1``, where the spatial term
        is gone.
        """
        request = QueryRequest.coerce(user, k, alpha, method)
        check_user(request.user, self.graph.n)
        resolved = self.resolve_method(request)
        if request.alpha < 1.0 and self.locations.get(request.user) is None:
            raise ValueError(
                f"query user {request.user} has no known location; SSRQ with "
                "alpha < 1 is undefined (paper assumes located query users)"
            )
        result = column_step(
            self, resolved, request, lambda social: self._run(resolved, request, social)
        )
        result.method = resolved
        return result

    def _run(self, resolved: str, request: QueryRequest, social=None) -> SSRQResult:
        """Pipeline stage 4: execute ``request`` with the concrete
        method ``resolved`` over the social stream the column step hands
        in (``None``: the searcher opens its own)."""
        stream = {} if social is None else {"social": social}
        return self.searcher(resolved).search(
            request.user, request.k, request.alpha, **stream
        )

    def query_many(
        self,
        requests: "Iterable[int | QueryRequest]",
        k: int | None = None,
        alpha: float | None = None,
        method: str | None = None,
    ) -> list[SSRQResult]:
        """Answer a heterogeneous batch of SSRQs: :meth:`query` on each,
        in request order, on the calling thread.

        ``requests`` may mix plain user ids (which take the keyword
        overrides) and :class:`~repro.core.request.QueryRequest` objects
        carrying their own parameters; every one is validated before any
        runs.  The batch holds :attr:`rw_lock`'s read side, so no
        location update lands between two of its answers.  For caching,
        in-batch deduplication and statistics, use a
        :class:`~repro.service.QueryService`.
        """
        batch = [QueryRequest.coerce(item, k, alpha, method) for item in requests]
        with self.rw_lock.read_locked():
            return [self.query(request) for request in batch]

    def close(self) -> None:
        """Nothing to release: an engine holds no threads or handles.
        Kept so callers that close what they build keep working."""

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
        (once built) the grid and the aggregate index, then fire the
        location listeners, so service-layer caches invalidate exactly
        the affected entries.

        Takes :attr:`rw_lock`'s exclusive side, so the mutation is
        serialised against every query flowing through the service
        layer (direct concurrent :meth:`query` calls that bypass the
        lock remain unsafe).
        """
        check_user(user, self.graph.n)
        check_finite_point(x, y)
        with self.rw_lock.write_locked():
            had_location = self.locations.has_location(user)
            self.locations.set(user, x, y)
            if had_location:
                if self._grid is not None:
                    self._grid.move(user, x, y)
                if self._aggregate is not None:
                    self._aggregate.move_user(user, x, y)
            else:
                if self._grid is not None:
                    self._grid.insert(user, x, y)
                if self._aggregate is not None:
                    self._aggregate.insert_user(user, x, y)
            self._notify_location(user, x, y)

    def forget_location(self, user: int) -> None:
        """Mark a user's location as unknown and de-index them
        (exclusively, like :meth:`move_user`)."""
        check_user(user, self.graph.n)
        with self.rw_lock.write_locked():
            if not self.locations.has_location(user):
                return
            self.locations.clear(user)
            if self._grid is not None:
                self._grid.remove(user)
            if self._aggregate is not None:
                self._aggregate.remove_user(user)
            self._notify_location(user, None, None)

    # -- rebuild ----------------------------------------------------------

    def with_graph(self, graph: SocialGraph, **overrides) -> "GeoSocialEngine":
        """A fresh engine over ``graph``, reusing this engine's
        parameters (and location table) unless overridden.

        The service layer's :meth:`~repro.service.QueryService.rebuild_engine`
        calls this to fold batched edge updates into a new engine.
        Landmarks are rebuilt (the graph changed), the normalization is
        kept (a shared constant preserves rankings).
        """
        kwargs = dict(
            num_landmarks=self.num_landmarks,
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
        kwargs.update(overrides)
        return type(self)(graph, self.locations, **kwargs)

    # -- persistence -------------------------------------------------------

    def save(self, path) -> "Path":
        """Write a crash-consistent columnar snapshot of this engine to
        directory ``path`` (see :mod:`repro.store`): the columns land in
        a temp sibling first, the manifest is the commit point, and the
        final atomic rename makes the snapshot visible all-or-nothing.
        Returns the snapshot directory.

        Takes the engine's shared read lock, so the image is a
        consistent cut with respect to concurrent location updates.
        """
        from repro.store import save_engine

        with self.rw_lock.read_locked():
            return save_engine(self, path)

    @classmethod
    def load(cls, path, *, mmap: bool = True, verify: bool = True) -> "GeoSocialEngine":
        """Warm-start an engine from a snapshot directory written by
        :meth:`save`: the data columns are read back and no normalization
        sweep runs; every index is built by its first reader, as in a
        freshly built engine.  With ``mmap=True`` the coordinate and CSR
        columns are memory-mapped copy-on-write, so load cost is
        page-cache reads and mutation stays private to this process."""
        from repro.store import load_engine

        return load_engine(path, mmap=mmap, verify=verify)

    # -- introspection ----------------------------------------------------

    def located_users(self) -> Sequence[int]:
        return list(self.locations.located_users())

    def __repr__(self) -> str:
        return (
            f"GeoSocialEngine(n={self.graph.n}, edges={self.graph.num_edges}, "
            f"located={self.locations.n_located}, M={self.num_landmarks}, s={self.s}, "
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
    "bounded": lambda e: BoundedSearch(
        e.graph, e.locations, e.normalization, kernels=e.kernels
    ),
    "bruteforce": lambda e: BruteForceSearch(
        e.graph, e.locations, e.normalization, kernels=e.kernels
    ),
}
