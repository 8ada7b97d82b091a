"""LRU cache of SSRQ results: each entry is kept or evicted, never
rewritten.

Urban query workloads are heavily skewed — a small set of hot users
issues most of the traffic — so caching whole top-k results pays off
on repeats.  This module provides an LRU keyed on the request as
asked, ``(user, k, α, method)`` (``QueryService._cache_key``): nothing
is resolved before the lookup, and no engine component is needed, as
every engine swap empties the cache first.
An entry is the plain :class:`~repro.core.result.SSRQResult`.

The cache counts only what it alone sees: insertions and LRU
evictions (:class:`CacheStats`).  Hits, misses, invalidated and
reused entries and flushes are serving events, counted once each by
the service (:class:`~repro.service.model.ServiceStats`).

**Location update (a move or a forget) → evict every answer that reads
locations.**  An answer with ``α < 1`` has a spatial term, so any move
may change it; an ``α = 1`` answer reads no location and is kept
(*reused*).  Every other entry is evicted (*invalidated*), and the
next miss recomputes.  Screening each entry with the subscription
registry's NO-OP test does not pay here: on a move-heavy workload the
per-entry screen cost more time than the few hits it kept saved
(docs/BENCHMARKS.md, "What does not pay").  The one layer that
screens and repairs is the subscription registry
(:meth:`repro.stream.subscription.Subscription.classify`), which folds
a burst of moves into one pass per standing query.

**Social edge update → nothing, until the engine swap.**  An edge
change can alter social distances between arbitrarily distant pairs,
but :meth:`QueryService.update_edge` only records it: the served graph
is immutable, so every entry stays exact until
:meth:`QueryService.rebuild_engine` folds the recorded updates into a
new engine — and that swap empties the cache
(:meth:`ResultCache.invalidate_all`) once per batch, not once per edge.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable

from repro.core.result import SSRQResult


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
    """What only a :class:`ResultCache` sees: entries it stored and
    entries its LRU pushed out."""

    insertions: int = 0
    #: LRU capacity evictions
    evictions: int = 0


class ResultCache:
    """LRU result cache that a location update empties of every answer
    below ``α = 1``.

        >>> from repro import Neighbor, SSRQResult
        >>> from repro.service.cache import ResultCache
        >>> cache = ResultCache(capacity=1)
        >>> result = SSRQResult(0, 1, 0.5, [Neighbor(9, 0.2, 0.1, 0.3)])
        >>> cache.put("a", result)
        >>> cache.get("a") is result
        True
        >>> cache.put("b", result)
        >>> cache.get("a") is None
        True
        >>> cache.stats
        CacheStats(insertions=2, evictions=1)

    Keys are opaque to the cache (the service builds them from the
    query signature); the one thing an update reads off an entry is
    its result's ``alpha``.  All operations take an internal lock, so
    invalidation hooks may fire from any thread.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Hashable, SSRQResult]" = OrderedDict()

    # -- plain cache operations ---------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> SSRQResult | None:
        """The cached result for ``key`` (refreshing its LRU position),
        or ``None``.  Counts nothing: the service counts its hits."""
        with self._lock:
            result = self._entries.get(key)
            if result is not None:
                self._entries.move_to_end(key)
            return result

    def peek(self, key: Hashable) -> SSRQResult | None:
        """Like :meth:`get` but without touching LRU order."""
        return self._entries.get(key)

    def put(self, key: Hashable, result: SSRQResult) -> None:
        """Insert (or refresh) ``key``, evicting the LRU tail at
        capacity."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            else:
                while len(self._entries) >= self.capacity:
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1
                self.stats.insertions += 1
            self._entries[key] = result

    # -- update-aware invalidation ------------------------------------

    def invalidate_all(self) -> "InvalidationOutcome":
        """Full invalidation: drop every entry at once."""
        with self._lock:
            removed = len(self._entries)
            self._entries.clear()
            return InvalidationOutcome(removed)

    def invalidate_location_update(self) -> "InvalidationOutcome":
        """Evict every entry below ``α = 1`` and keep each ``α = 1``
        entry, which reads no location (the module docstring's policy),
        after a move or a forget of any user.

        Returns an :class:`InvalidationOutcome` (``int``-compatible: the
        number of entries evicted) that also counts the entries kept.
        """
        with self._lock:
            evict = [key for key, result in self._entries.items() if result.alpha != 1.0]
            for key in evict:
                del self._entries[key]
            return InvalidationOutcome(len(evict), reused=len(self._entries))

    def invalidate_edge_update(self, u: int, v: int) -> "InvalidationOutcome":
        """Full flush for an edge change applied to a *served* graph.
        No caller in ``src/`` (the service swaps engines instead):
        kept because ``perfbench/trace.py`` wraps it by name."""
        return self.invalidate_all()
