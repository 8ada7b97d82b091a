"""Engine facade: one object owning the data, the indexes, and every
query algorithm of the paper.

    >>> from repro import GeoSocialEngine, gowalla_like
    >>> dataset = gowalla_like(n=2000, seed=7)
    >>> engine = GeoSocialEngine.from_dataset(dataset)
    >>> result = engine.query(user=8, k=10, alpha=0.3, method="ais")
    >>> [nb.user for nb in result]          # doctest: +SKIP

Served methods (paper names; one name each in :data:`METHODS`, one
builder each in :data:`SEARCHER_BUILDERS`):

================  ====================================================
``sfa``           Social First Approach (Section 4.1)
``spa``           Spatial First Approach (Section 4.1)
``tsa``           Twofold Search, landmark-aided (Section 4.2)
``tsa-qc``        TSA with Quick Combine probing
``ais``           Aggregate Index Search, all optimisations (Section 5)
``bounded``       SFA's stopping rule as one radius-limited kernel call
                  (at a zero social weight: over a k-d tree)
``bruteforce``    exact reference scan
``auto``          ``bounded`` (:mod:`repro.plan`)
================  ====================================================

The figure-only variants of the paper's evaluation (``ais-minus``,
``sfa-ch``, ``ais-cache`` …) are not served: the reproduction tier
builds them from an engine's public parts
(:mod:`repro.bench.variants`).

Every request, ``auto`` (resolved by the engine's
:class:`~repro.plan.Planner`) or named, takes the one endpoint rule
of :mod:`repro.plan.rules`, and every path returns the same ranking
any fixed method would.  The paper's grid and
aggregate index serve only the named ``spa`` / ``tsa`` / ``tsa-qc`` /
``ais``: a location update drops them, and it only marks the k-d tree
``bounded`` reads at a zero social weight.  A query user without a
location is answerable only at ``alpha == 1``; below it every method
raises the same ``ValueError``.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

from repro.backend import NumpyKernels
from repro.core.ais import AggregateIndexSearch
from repro.core.bounded import BoundedSearch, LocatedTree
from repro.core.bruteforce import BruteForceSearch
from repro.core.ranking import Normalization, RankingFunction
from repro.core.request import QueryRequest
from repro.core.result import SSRQResult
from repro.core.sfa import SocialFirstSearch
from repro.core.spa import SpatialFirstSearch
from repro.core.tsa import TwofoldSearch
from repro.graph.landmarks import LANDMARK_STRATEGIES, LandmarkIndex
from repro.graph.socialgraph import SocialGraph
from repro.index.aggregate import AggregateIndex
from repro.plan.planner import Planner
from repro.plan.rules import AUTO, FORWARD_DETERMINISTIC_METHODS, METHODS, route_method
from repro.social.cache import DEFAULT_SOCIAL_CACHE_BYTES, SocialColumnCache
from repro.social.scan import column_step
from repro.spatial.grid import UniformGrid
from repro.spatial.point import LocationTable
from repro.utils.validation import UnlocatedUserError, check_size, check_user

__all__ = [
    "AUTO",
    "FORWARD_DETERMINISTIC_METHODS",
    "METHODS",
    "SEARCHER_BUILDERS",
    "GeoSocialEngine",
]


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
    normalization, social column cache, planner, the k-d tree
    ``bounded`` answers ``alpha == 0`` from, and the three indexes
    derived from the data: SPA's grid, the landmark index and the
    aggregate index, each built by its first reader), one searcher
    object per method, the one query pipeline, the location update
    primitives and rebuild.  It is a plain value with no lock of its
    own: snapshots are :func:`repro.store.save_engine` /
    :func:`repro.store.load_engine`; batches, caching, locking and
    engine swaps are :class:`~repro.service.QueryService`'s, and an
    engine a service serves is mutated only through that service.

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
    social_cache_bytes:
        Byte budget of the cross-query social column cache (``None``:
        the default budget; ``0`` disables it; anything but a
        non-negative integer is a ``ValueError``).  Set here only:
        :meth:`with_graph` carries it into a rebuilt engine.
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
        #: the batched-evaluation kernels every searcher of this engine
        #: shares (one instance per engine)
        self.kernels = NumpyKernels()
        #: see :attr:`landmarks`
        self._landmarks: LandmarkIndex | None = None
        self.normalization = (
            normalization
            if normalization is not None
            else Normalization.estimate(graph, locations, seed=seed)
        )
        #: cross-query social-distance column cache consulted by the
        #: pipeline's column step (:mod:`repro.social`), over the users
        #: located now: only a first location invalidates it, and
        #: ``with_graph`` rebuilds start fresh by construction.
        budget = (
            DEFAULT_SOCIAL_CACHE_BYTES
            if social_cache_bytes is None
            else check_size("social_cache_bytes", social_cache_bytes)
        )
        self.social_cache: "SocialColumnCache | None" = (
            SocialColumnCache(graph.n, self.kernels, budget, self.located_users())
            if budget > 0
            else None
        )
        #: the ``method="auto"`` resolver (a service hands the served
        #: one to every engine it swaps in, so its counters carry on)
        self.planner = Planner()
        #: SPA's grid and AIS's index (see :attr:`grid`, :attr:`aggregate`);
        #: a location update drops both
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
        #: the k-d tree ``bounded`` answers ``alpha == 0`` from; a
        #: location update only marks it
        self.tree = LocatedTree(locations, self._build_lock)

    @classmethod
    def from_dataset(cls, dataset, **kwargs):
        """Build from any object exposing ``.graph`` and ``.locations``
        (e.g. :class:`repro.datasets.GeoSocialDataset`)."""
        return cls(dataset.graph, dataset.locations, **kwargs)

    # -- the lazily-built indexes -----------------------------------------

    @property
    def grid(self) -> UniformGrid:
        """SPA's grid: ``s² x s²`` cells over the located users (built
        on first use, under the build lock, from the current locations;
        a location update drops it, and the next reader builds it
        again).  ``spa``, ``tsa`` and the aggregate index read it;
        nothing ``auto`` runs does.  Like :attr:`aggregate`, it must not
        be built while a location update runs: a service's queries build
        it under the service's read lock, which excludes its moves."""
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
        reproduction tier's AIS variants read it).  Its leaf level is
        :attr:`grid` itself, read in ``s x s`` blocks; a location update
        drops both.  Like :attr:`grid`, it must not be built while a
        location update runs (a service's queries build it under the
        service's read lock)."""
        if self._aggregate is None:
            with self._build_lock:
                if self._aggregate is None:
                    self._aggregate = AggregateIndex(self.grid, self.s, self.landmarks)
        return self._aggregate

    # -- query dispatch -----------------------------------------------------

    def resolve_method(self, request: QueryRequest) -> str:
        """The concrete method one query dispatches to — the single
        source of the resolution contract: explicit methods validate
        against :data:`METHODS` and take the endpoint rule
        (:func:`~repro.plan.rules.route_method`), ``"auto"`` asks the
        engine's planner, which takes the same rule.  The stream layer
        classifies repairability off ``result.method``, so repairs
        always see the method that actually ran."""
        method = request.method
        if method == AUTO:
            # an out-of-range user must surface the engine's ValueError
            # contract before the planner sees it
            check_user(request.user, self.graph.n)
            return self.planner.resolve(self, request)
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
        return route_method(method, RankingFunction(request.alpha, self.normalization))

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
        2. **resolve** the method (:meth:`resolve_method`: the
           endpoint rule, through the planner for ``"auto"``);
        3. **column step** — look the query user's social column up
           (:func:`repro.social.scan.column_step`): a cached column
           answers at once, otherwise the resolved method's searcher
           runs (and a full column it built is cached);
        4. stamp ``result.method``.

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
            raise UnlocatedUserError.of(request.user)
        result = column_step(self, resolved, request)
        result.method = resolved
        return result

    def close(self) -> None:
        """Nothing to release: an engine holds no threads or handles.
        Kept so callers that close what they build keep working."""

    # -- dynamic locations -----------------------------------------------

    def move_user(self, user: int, x: float, y: float) -> None:
        """Process a location update: write the location table, mark
        the k-d tree, and drop the grid, the aggregate index and the
        searchers built over them (their next reader builds them again
        from the table); a first location empties the column cache.

        Takes no lock, so it must not run beside a query or another
        update.  A served engine is moved through
        :meth:`~repro.service.QueryService.move_user`, which calls this
        under the service's write lock and then screens its caches and
        tells its followers.
        """
        check_user(user, self.graph.n)
        self.locations.set(user, x, y)  # checks the input domain first
        self._moved(user)

    def forget_location(self, user: int) -> bool:
        """Mark a user's location as unknown, like :meth:`move_user`
        (unlocked).  Returns whether the user had a location to
        forget."""
        check_user(user, self.graph.n)
        if not self.locations.has_location(user):
            return False
        self.locations.clear(user)
        self._moved(user)
        return True

    def _moved(self, user: int) -> None:
        self.tree.mark(user)
        cache = self.social_cache
        if cache is not None and self.locations.has_location(user) and not cache.laid_out(user):
            # a first location: no cached column holds this user
            cache.invalidate_all(self.located_users())
        if self._grid is not None or self._aggregate is not None:
            self._grid = self._aggregate = None
            for method in _OVER_THE_GRID:
                self._searchers.pop(method, None)

    # -- rebuild ----------------------------------------------------------

    def with_graph(self, graph: SocialGraph, **overrides) -> "GeoSocialEngine":
        """A fresh engine over ``graph``, reusing this engine's
        parameters (and location table) unless overridden.

        The service layer's :meth:`~repro.service.QueryService.rebuild_engine`
        calls this to fold batched edge updates into a new engine.
        Landmarks are rebuilt (the graph changed).  Each positive
        normaliser is kept (a shared constant preserves rankings); one
        that is 0 is re-estimated from ``graph`` and the current
        locations, so the rebuild that gives an edgeless graph its first
        edges normalises by that graph's diameter.
        """
        norm = self.normalization
        if 0.0 in (norm.p_max, norm.d_max) and "normalization" not in overrides:
            fresh = Normalization.estimate(graph, self.locations, seed=self.seed)
            norm = Normalization(norm.p_max or fresh.p_max, norm.d_max or fresh.d_max)
        kwargs = dict(
            num_landmarks=self.num_landmarks,
            landmark_strategy=self.landmark_strategy,
            s=self.s,
            seed=self.seed,
            normalization=norm,
            # only the byte budget crosses the rebuild, never the cache
            # instance: the new engine's columns come from the new graph,
            # so the edge-epoch boundary is structural
            social_cache_bytes=(
                self.social_cache.max_bytes if self.social_cache is not None else 0
            ),
        )
        kwargs.update(overrides)
        return type(self)(graph, self.locations, **kwargs)

    # -- introspection ----------------------------------------------------

    def located_users(self) -> np.ndarray:
        """The located users' ids, ascending, as an ``intp`` array."""
        return np.flatnonzero(~np.isnan(self.locations.xs))

    def __repr__(self) -> str:
        return (
            f"GeoSocialEngine(n={self.graph.n}, edges={self.graph.num_edges}, "
            f"located={self.locations.n_located}, M={self.num_landmarks}, s={self.s})"
        )


def _twofold(engine: GeoSocialEngine, **options) -> TwofoldSearch:
    return TwofoldSearch(
        engine.graph, engine.locations, engine.grid, engine.normalization,
        landmarks=engine.landmarks, kernels=engine.kernels, **options,
    )


#: the searchers built over the grid or the aggregate index, which a
#: location update drops with them
_OVER_THE_GRID = frozenset({"spa", "tsa", "tsa-qc", "ais"})

#: ``name -> builder(engine)``: how each :data:`METHODS` name's searcher
#: is made from an engine's parts
SEARCHER_BUILDERS: "dict[str, Callable[[GeoSocialEngine], object]]" = {
    "sfa": lambda e: SocialFirstSearch(e.graph, e.locations, e.normalization),
    "spa": lambda e: SpatialFirstSearch(
        e.graph, e.locations, e.grid, e.normalization, kernels=e.kernels
    ),
    "tsa": _twofold,
    "tsa-qc": lambda e: _twofold(e, probe_policy="quick-combine"),
    "ais": lambda e: AggregateIndexSearch(
        e.graph, e.locations, e.landmarks, e.aggregate, e.normalization, kernels=e.kernels
    ),
    "bounded": lambda e: BoundedSearch(
        e.graph, e.locations, e.normalization, kernels=e.kernels, tree=e.tree
    ),
    "bruteforce": lambda e: BruteForceSearch(
        e.graph, e.locations, e.normalization, kernels=e.kernels
    ),
}
