"""Graph-distance pre-computation (paper Section 5.4).

Materialising all-pair distances is prohibitive (the paper estimates 16
TB for Foursquare), so instead each user stores the distances of their
``t`` socially closest vertices.  A query then runs SFA's loop over the
pre-computed list — no graph expansion at all — and only if the list is
exhausted before the termination bound fires does it *fall back to the
best method, AIS* (the paper's AIS-Cache of Figure 11).

Lists are built lazily per query user by a truncated Dijkstra, which
matches how an offline pipeline would shard the pre-computation; the
build cost is not charged to query statistics.
"""

from __future__ import annotations

import math
import threading
import time

from repro.core.ais import AggregateIndexSearch
from repro.core.ranking import Normalization, RankingFunction
from repro.core.result import SSRQResult, TopKBuffer
from repro.core.stats import SearchStats
from repro.graph.socialgraph import SocialGraph
from repro.graph.traversal import DijkstraIterator
from repro.spatial.point import LocationTable
from repro.utils.validation import check_positive, check_user

INF = math.inf


class SocialNeighborCache:
    """Per-user lists of the ``t`` socially closest vertices.

        >>> from repro import SocialNeighborCache, SocialGraph
        >>> g = SocialGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 3.0)])
        >>> cache = SocialNeighborCache(g, t=2)
        >>> cache.list_for(0)
        [(1.0, 1), (2.0, 2)]
        >>> cache.is_complete(0)   # vertex 3 is reachable but truncated
        False
    """

    def __init__(self, graph: SocialGraph, t: int) -> None:
        self.graph = graph
        self.t = int(check_positive("t", t))
        self._lists: dict[int, list[tuple[float, int]]] = {}
        #: True for users whose reachable component fit entirely in t
        self._complete: dict[int, bool] = {}
        # Lazy fills may race between threads sharing one engine; the
        # lock makes the two-dict update atomic (lists are immutable
        # once published, so readers never need it).
        self._build_lock = threading.Lock()

    def list_for(self, user: int) -> list[tuple[float, int]]:
        """Ascending ``(distance, vertex)`` list for ``user`` (built on
        first request)."""
        cached = self._lists.get(user)
        if cached is not None:
            return cached
        with self._build_lock:
            cached = self._lists.get(user)
            if cached is not None:
                return cached
            it = DijkstraIterator(self.graph, user)
            entries: list[tuple[float, int]] = []
            complete = False
            while len(entries) < self.t:
                item = it.next()
                if item is None:
                    complete = True
                    break
                v, p = item
                if v != user:
                    entries.append((p, v))
            self._complete[user] = complete
            self._lists[user] = entries
            return entries

    def is_complete(self, user: int) -> bool:
        """Whether the cached list covers the user's whole reachable
        component (list exhaustion is then a *proof* of termination,
        no fallback needed)."""
        if user not in self._complete:
            self.list_for(user)
        return self._complete[user]

    def prebuild(self, users) -> None:
        """Materialise lists for a batch of (query) users up front."""
        for user in users:
            self.list_for(user)


class CachedSocialFirst:
    """The paper's AIS-Cache: SFA over the pre-computed list with an
    AIS fallback.

        >>> from repro import GeoSocialEngine, gowalla_like
        >>> from repro.bench.variants import variant_searcher
        >>> engine = GeoSocialEngine.from_dataset(gowalla_like(n=300, seed=7))
        >>> searcher = variant_searcher(engine, "ais-cache", t=50)
        >>> type(searcher).__name__
        'CachedSocialFirst'
        >>> searcher.search(0, k=5, alpha=0.3).users == engine.query(
        ...     0, 5, 0.3, method="bruteforce").users
        True
    """

    def __init__(
        self,
        graph: SocialGraph,
        locations: LocationTable,
        normalization: Normalization,
        cache: SocialNeighborCache,
        fallback: AggregateIndexSearch,
    ) -> None:
        self.graph = graph
        self.locations = locations
        self.normalization = normalization
        self.cache = cache
        self.fallback = fallback

    def search(
        self,
        query_user: int,
        k: int,
        alpha: float,
    ) -> SSRQResult:
        """Answer the query: the cached-list scan, then (unless the list
        proved termination) the AIS fallback warm-started from it."""
        check_user(query_user, self.graph.n)
        stats = SearchStats()
        start = time.perf_counter()
        rank = RankingFunction(alpha, self.normalization)
        if not rank.needs_social:
            raise ValueError(
                "AIS-Cache requires a positive social weight (the cached lists "
                "are ordered by social distance); use bounded at 0"
            )
        buffer = TopKBuffer(k)
        locations = self.locations
        terminated = False
        for p, v in self.cache.list_for(query_user):
            stats.evaluations += 1
            d = locations.distance(query_user, v) if rank.needs_spatial else INF
            buffer.offer(v, rank.score(p, d), p, d)
            stats.candidates_scored += 1
            if rank.social_part(p) > buffer.fk:
                terminated = True
                break
        if not terminated and not self.cache.is_complete(query_user):
            # Cache exhausted without a termination proof: fall back to
            # the best method (paper Section 5.4).  The interim result
            # warm-starts AIS — its threshold f_k starts tight, which is
            # where the pre-computation pays off even when the list
            # alone cannot prove termination.
            stats.extra["fallback"] = 1
            fallback_result = self.fallback.search(query_user, k, alpha, initial=buffer)
            stats.merge(fallback_result.stats)
            stats.elapsed = time.perf_counter() - start
            return SSRQResult(query_user, k, alpha, fallback_result.neighbors, stats)
        stats.elapsed = time.perf_counter() - start
        return SSRQResult(query_user, k, alpha, buffer.neighbors(), stats)
