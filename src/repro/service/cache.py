"""Update-aware LRU cache of SSRQ results: each entry is kept or
evicted, never rewritten.

Urban query workloads are heavily skewed — a small set of hot users
issues most of the traffic — so caching whole top-k results pays off
enormously *if* the cache can survive a dynamic world where users move
constantly.  This module provides that: an LRU keyed on the query
signature ``(user, k, α, line)`` — ``line`` is the
resolved method, or ``"auto"`` for an ``auto`` request, whose
answer the question alone determines (the rule lives in
``QueryService._line``); no engine component is needed, as every engine
swap empties the cache first — with hit/miss statistics, whose entries
carry the request, pinned to the method that executed it, and the
:class:`~repro.core.ranking.RankingFunction` that produced them, so a
location update *evicts exactly* the entries it can affect instead of
flushing everything.

**Location update of user m → the shared screen, the cache's policy.**
Whether a move can change a stored top-k is decided in one place for
every layer that keeps results — :mod:`repro.stream.conditions` (the
NO-OP / REPAIR / RECOMPUTE screen and its safety argument).  The cache
applies the simplest policy to each verdict:

- **NO-OP → keep** the entry untouched (counted *reused*): pure-social
  entries, every entry whose spatial lower bound proves the mover out,
  and, for a forgotten location, every entry the mover neither issued
  nor belongs to;
- **anything else → evict** (counted *invalidated*): the query user
  moved, a member moved or forgot its location, or the mover might
  newly enter.  The next miss recomputes.

Repairing an entry in place does not pay here: a hot entry's next
change is usually another move that evicts it before anyone reads the
repair (docs/BENCHMARKS.md, "What does not pay").  The one layer that
repairs is the subscription registry, which folds a burst of moves
into one pass per standing query.  The screen costs O(cache) per move
or forget, with an O(1) check per entry and no index.

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
from repro.stream.conditions import NOOP, StoredTopK

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.ranking import RankingFunction
    from repro.core.request import QueryRequest


class InvalidationOutcome(int):
    """Result of one update-aware invalidation pass.

    Behaves as the number of *evicted* entries (an ``int`` subclass, so
    arithmetic and assertions on the count keep working) and
    additionally reports how many entries were examined and provably
    kept.

        >>> from repro.service.cache import InvalidationOutcome
        >>> out = InvalidationOutcome(2, reused=5)
        >>> out == 2, out.reused
        (True, 5)
    """

    reused: int

    def __new__(cls, evicted: int, *, reused: int = 0) -> "InvalidationOutcome":
        self = super().__new__(cls, evicted)
        self.reused = reused
        return self


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
    #: entries an update examined and provably kept (screen NO-OP)
    reused: int = 0
    #: epoch bumps (full flushes)
    full_invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before the first lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


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
        self._entries: "OrderedDict[Hashable, StoredTopK]" = OrderedDict()

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
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1
                entry = self._entries[key] = StoredTopK(request, rank)
                self.stats.insertions += 1
            entry.install(result)

    # -- update-aware invalidation ------------------------------------

    def invalidate_all(self) -> "InvalidationOutcome":
        """Epoch-based full invalidation: drop every entry at once."""
        with self._lock:
            removed = len(self._entries)
            self._entries.clear()
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
        """Keep each entry the screen proves unaffected and evict every
        other one (the module docstring's policy).

        ``(x, y)`` is the user's *new* position (``None`` for a
        forgotten location); ``query_location`` resolves a query user's
        current position.  Returns an :class:`InvalidationOutcome`
        (``int``-compatible: the number of entries evicted) that also
        counts the entries kept.
        """
        with self._lock:
            evict = [
                key
                for key, entry in self._entries.items()
                if entry.classify(user, x, y, query_location(entry.request.user)) != NOOP
            ]
            for key in evict:
                del self._entries[key]
            reused = len(self._entries)
            self.stats.invalidated += len(evict)
            self.stats.reused += reused
            return InvalidationOutcome(len(evict), reused=reused)

    def invalidate_edge_update(self, u: int, v: int) -> "InvalidationOutcome":
        """Full flush for an edge change applied to a *served* graph.
        No caller in ``src/`` (the service swaps engines instead):
        kept because ``perfbench/trace.py`` wraps it by name."""
        return self.invalidate_all()
