"""Update-aware, repair-aware LRU cache of SSRQ results.

Urban query workloads are heavily skewed — a small set of hot users
issues most of the traffic — so caching whole top-k results pays off
enormously *if* the cache can survive a dynamic world where users move
constantly.  This module provides that: an LRU keyed on the query
signature ``(user, k, α, line, normalization)`` — ``line`` is the
resolved method, or ``"auto"`` for an ``auto`` request, whose
answer the question alone determines (the rule lives in
``QueryService._line``) — with hit/miss statistics, whose entries
carry the request, pinned to the method that executed it, and the
:class:`~repro.core.ranking.RankingFunction` that produced them, so a
location update *repairs or evicts exactly* the entries it can affect
instead of flushing everything.

**Location update of user m → the shared rule, the cache's policy.**
Whether a move can change a stored top-k, and how it is fixed, is
decided in one place for every layer that keeps results —
:mod:`repro.stream.conditions` (the NO-OP / REPAIR / RECOMPUTE screen,
the single-member re-score, the query-user/member index; the safety
argument lives there too).  This module only applies the cache's
policy to each verdict:

- **NO-OP → keep** (counted *reused*): pure-social entries, and every
  entry whose spatial lower bound proves the mover out;
- **REPAIR → re-score in place** when the mover is a *member* of an
  entry whose method stores schedule-independent social distances
  (:data:`~repro.stream.conditions.REPAIRABLE_METHODS`): only its
  spatial term changed, so re-scoring it and re-sorting is the fresh
  answer — unless the re-score escalates (the mover may have dropped
  below the unknown (k+1)-th);
- **otherwise → evict**: the query user moved, a member forgot its
  location, the mover might newly enter (the cache does not pay an
  exact social distance to find out), the method is not repairable,
  or the re-score escalated.  The next miss recomputes.

The screen costs O(cache) per move with an O(1) check per entry; a
forgotten location examines only the entries it touches directly.

**Social edge update → nothing, until the engine swap.**  An edge
change can alter social distances between arbitrarily distant pairs,
but :meth:`QueryService.update_edge` only records it: the served graph
is immutable, so every entry stays exact until
:meth:`QueryService.rebuild_engine` folds the recorded updates into a
new engine — and that swap is the edge-epoch: it empties the cache
(:meth:`ResultCache.invalidate_all`) once per batch, not once per edge.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable

from repro.core.result import SSRQResult
from repro.spatial.point import euclidean
from repro.stream.conditions import NOOP, REPAIR, StoredIndex, StoredTopK

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.ranking import RankingFunction
    from repro.core.request import QueryRequest


class InvalidationOutcome(int):
    """Result of one update-aware invalidation pass.

    Behaves as the number of *evicted* entries (an ``int`` subclass, so
    arithmetic and assertions on the count keep working) and
    additionally reports how many entries were repaired in place and
    how many were examined and provably kept.

        >>> from repro.service.cache import InvalidationOutcome
        >>> out = InvalidationOutcome(2, repaired=1, reused=5)
        >>> out == 2, out.repaired, out.reused
        (True, 1, 5)
    """

    repaired: int
    reused: int

    def __new__(cls, evicted: int, *, repaired: int = 0, reused: int = 0) -> "InvalidationOutcome":
        self = super().__new__(cls, evicted)
        self.repaired = repaired
        self.reused = reused
        return self

    @property
    def evicted(self) -> int:
        return int(self)


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    #: LRU capacity evictions
    evictions: int = 0
    #: entries removed by update-aware invalidation (each one forces a
    #: recompute on its next lookup)
    invalidated: int = 0
    #: entries *repaired in place* by an update (single-candidate
    #: re-score; see the module docstring) instead of evicted
    repaired: int = 0
    #: entries an update examined and provably kept (screen NO-OP)
    reused: int = 0
    #: epoch bumps (full flushes)
    full_invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before the first lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _Entry(StoredTopK):
    """One cache line: the stored result plus the key it lives under."""

    __slots__ = ("key",)

    def __init__(self, key: Hashable, request: "QueryRequest", rank: "RankingFunction") -> None:
        super().__init__(request, rank)
        self.key = key


class ResultCache:
    """LRU result cache with exact update-aware invalidation.

        >>> from repro import Neighbor, Normalization, RankingFunction, SSRQResult
        >>> from repro.service import QueryRequest
        >>> from repro.service.cache import ResultCache
        >>> cache = ResultCache(capacity=2)
        >>> request = QueryRequest(0, k=1, alpha=0.5, method="tsa")
        >>> rank = RankingFunction(0.5, Normalization(p_max=1.0, d_max=1.0))
        >>> result = SSRQResult(0, 1, 0.5, [Neighbor(9, 0.2, 0.1, 0.3)])
        >>> cache.put("a", request, rank, result)
        >>> cache.get("a") is result
        True
        >>> cache.get("b") is None
        True
        >>> cache.stats.hits, cache.stats.misses
        (1, 1)

    Keys are opaque to the cache (the service builds them from the
    query signature); everything the update-aware paths need
    travels on the entry: the request with its method already
    resolved and the ranking function the scores were computed under.
    All operations take an internal lock, so invalidation hooks may
    fire from any thread.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        #: monotonically increasing; bumped on every full invalidation
        self.epoch = 0
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self._index = StoredIndex()

    # -- plain cache operations ---------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> SSRQResult | None:
        """The cached result for ``key`` (refreshing its LRU position),
        or ``None`` — counted as a hit or miss respectively."""
        with self._lock:
            result = self.hit(key)
            if result is None:
                self.stats.misses += 1
            return result

    def hit(self, key: Hashable) -> SSRQResult | None:
        """:meth:`get` for a caller that will ask again through the
        full serve path when this comes back empty: a hit refreshes the
        LRU position and is counted, an absent key counts nothing."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry.result

    def peek(self, key: Hashable) -> SSRQResult | None:
        """Like :meth:`get` but without touching LRU order or stats."""
        entry = self._entries.get(key)
        return entry.result if entry is not None else None

    def put(
        self,
        key: Hashable,
        request: "QueryRequest",
        rank: "RankingFunction",
        result: SSRQResult,
    ) -> None:
        """Insert (or refresh) ``key``, evicting the LRU tail at
        capacity.  ``request`` is the query with its method resolved,
        ``rank`` the ranking function ``result`` was scored under."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            else:
                while len(self._entries) >= self.capacity:
                    _, victim = self._entries.popitem(last=False)
                    self._index.remove(victim)
                    self.stats.evictions += 1
                entry = self._entries[key] = _Entry(key, request, rank)
                self._index.add(entry)
                self.stats.insertions += 1
            self._index.install(entry, result)

    # -- update-aware invalidation ------------------------------------

    def invalidate_all(self) -> "InvalidationOutcome":
        """Epoch-based full invalidation: drop every entry at once."""
        with self._lock:
            removed = len(self._entries)
            self._entries.clear()
            self._index.clear()
            self.epoch += 1
            self.stats.invalidated += removed
            self.stats.full_invalidations += 1
            return InvalidationOutcome(removed)

    def invalidate_location_update(
        self,
        user: int,
        x: float | None,
        y: float | None,
        *,
        query_location: Callable[[int], tuple[float, float] | None],
    ) -> "InvalidationOutcome":
        """Keep, repair or evict each entry a location update can
        affect (the module docstring's policy).

        ``(x, y)`` is the user's *new* position (``None`` for a
        forgotten location); ``query_location`` resolves a query user's
        current position.  Returns an :class:`InvalidationOutcome`
        (``int``-compatible: the number of entries evicted) that also
        counts in-place repairs and entries provably kept.
        """
        with self._lock:
            # A forgotten location cannot create entrants: only the
            # entries it touches directly need a verdict.
            examined = self._index.touched(user) if x is None else self._entries.values()
            evict = []
            repaired = reused = 0
            for entry in examined:
                query_xy = query_location(entry.request.user)
                kind = entry.classify(user, x, y, query_xy)
                if kind == NOOP:
                    reused += 1
                elif (
                    kind == REPAIR
                    and entry.repairable
                    and user in entry.member_ids
                    and query_xy is not None
                    and self._repair_member_locked(entry, user, euclidean(*query_xy, x, y))
                ):
                    repaired += 1
                else:
                    evict.append(entry)
            for entry in evict:
                del self._entries[entry.key]
                self._index.remove(entry)
            self.stats.invalidated += len(evict)
            self.stats.repaired += repaired
            self.stats.reused += reused
            return InvalidationOutcome(len(evict), repaired=repaired, reused=reused)

    def _repair_member_locked(self, entry: _Entry, user: int, d: float) -> bool:
        """Re-score member ``user`` of ``entry`` at its new spatial
        distance ``d`` and re-sort, in place (LRU position kept);
        ``False`` when the re-score escalates and the entry must go."""
        neighbors = entry.rescore_members({user: d})
        if neighbors is None:
            return False
        neighbors.sort(key=lambda nb: (nb.score, nb.user))
        old = entry.result
        self._index.install(
            entry,
            SSRQResult(old.query_user, old.k, old.alpha, neighbors, old.stats, method=old.method),
        )
        return True

    def invalidate_edge_update(self, u: int, v: int) -> "InvalidationOutcome":
        """Full flush for an edge change applied to a *served* graph.
        No caller in ``src/`` (the service swaps engines instead):
        kept because ``perfbench/trace.py`` wraps it by name."""
        return self.invalidate_all()
