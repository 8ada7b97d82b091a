"""Byte-bounded, epoch-safe cache of per-query-user social-distance
columns.

Every forward-deterministic query path — bruteforce, SFA/SPA/TSA,
stream repairs — derives the same object first: the social distances
from the query user.  Those distances are a pure
function of the (immutable-per-engine) social graph, so once one query
has paid for an expansion, every later query from the same user can
reuse it **exactly**.  The cache holds one kind of entry, a *full*
dense column, built by the ``sssp_column`` kernel inside ``bruteforce``
or an unbounded ``bounded`` expansion (or by a subscription repair);
it answers any later query with one columnar scan, no traversal at
all.  The incremental searchers (SFA, SPA, TSA) keep nothing.

**Why edge-epoch invalidation only.**  A social column depends on
nothing but the graph's edges.  Location moves — the overwhelming
majority of updates under the paper's workload model — can therefore
never stale a column, and the cache ignores them entirely; that is what
keeps hit rates high under mixed read/update traffic.  Edge updates
accumulate in the service layer's pending-edge log (the engine's CSR
graph never mutates in place), so within one engine's lifetime every
cached column stays exact and nothing flushes it; the edge-epoch is the
engine swap itself — a rebuild
(:meth:`~repro.service.QueryService.rebuild_engine`) starts from a
fresh, empty cache by construction.

**Why bytes, not entries.**  A dense column is ``8·n`` bytes — ~8 MB
per column on a 1M-user graph — so an entry-counted LRU would be
unbounded in the dimension that actually matters.  Every entry costs
exactly ``8·n`` bytes, and entries are evicted LRU-first until the
budget holds.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass

from repro.graph.traversal import DijkstraIterator

INF = math.inf

__all__ = [
    "DEFAULT_SOCIAL_CACHE_BYTES",
    "SocialCacheStats",
    "SocialColumnCache",
]

#: default byte budget: ~4 dense columns on a 1M-user graph, thousands
#: on bench-scale ones — conservative against the engine's own footprint
DEFAULT_SOCIAL_CACHE_BYTES = 32 * 1024 * 1024

#: a dense column stores one float64 per user
_COLUMN_ENTRY_BYTES = 8


@dataclass
class SocialCacheStats:
    """Lifetime counters of one :class:`SocialColumnCache`.

        >>> from repro.social import SocialCacheStats
        >>> stats = SocialCacheStats(hits=3, misses=1)
        >>> stats.snapshot()["hits"]
        3
    """

    #: lookups answered by a fully materialised column
    hits: int = 0
    #: lookups that found no column (the query expands from scratch)
    misses: int = 0
    #: exhausted expansions promoted to columns by :meth:`SocialColumnCache.checkin`
    promotions: int = 0
    #: entries dropped by the byte-budget LRU
    evictions: int = 0
    #: :meth:`SocialColumnCache.invalidate_all` calls
    invalidations: int = 0

    def snapshot(self) -> dict:
        return asdict(self)


class SocialColumnCache:
    """Byte-bounded LRU of social-distance columns, keyed by query user.

        >>> from repro import SocialGraph
        >>> from repro.backend import NumpyKernels
        >>> from repro.graph.traversal import DijkstraIterator
        >>> from repro.social import SocialColumnCache
        >>> g = SocialGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        >>> cache = SocialColumnCache(3, NumpyKernels())
        >>> cache.acquire(0) is None
        True
        >>> it = DijkstraIterator(g, 0)
        >>> _ = it.run_to_completion()
        >>> cache.checkin(0, it)      # exhausted: promoted to a column
        >>> cache.acquire(0).tolist()
        [0.0, 1.0, 2.0]

    Thread-safe: every operation holds one internal lock, so concurrent
    queries under the service's shared read lock never observe a
    half-updated entry.  Columns are shared read-only.  ``max_bytes``
    is at least 1: an engine without a column cache carries ``None``.
    """

    def __init__(self, n: int, kernels, max_bytes: int = DEFAULT_SOCIAL_CACHE_BYTES) -> None:
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.n = n
        self.kernels = kernels
        self.max_bytes = max_bytes
        self.stats = SocialCacheStats()
        self._entries: "OrderedDict[int, object]" = OrderedDict()
        self._lock = threading.Lock()

    # -- introspection -------------------------------------------------

    @property
    def column_bytes(self) -> int:
        """What one entry costs: one float64 per user."""
        return self.n * _COLUMN_ENTRY_BYTES

    @property
    def bytes_used(self) -> int:
        return len(self._entries) * self.column_bytes

    def __len__(self) -> int:
        return len(self._entries)

    def contains_full(self, user: int) -> bool:
        """Whether a fully materialised column for ``user`` is cached —
        O(1), no statistics, no LRU touch (a probe that must never
        perturb what it observes)."""
        return user in self._entries

    def info(self) -> dict:
        """State + lifetime counters as one plain dict (stable keys)."""
        with self._lock:
            payload = {
                "entries": len(self._entries),
                "bytes": self.bytes_used,
                "max_bytes": self.max_bytes,
            }
            payload.update(self.stats.snapshot())
            return payload

    # -- lookup --------------------------------------------------------

    def acquire(self, user: int):
        """``user``'s column (recording a hit), or ``None`` (recording a
        miss).  The column is shared: callers must treat it as
        read-only."""
        with self._lock:
            column = self._entries.get(user)
            if column is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(user)
            self.stats.hits += 1
            return column

    def peek_full(self, user: int):
        """The full column for ``user`` if one is cached (records a
        hit), else ``None`` — *without* recording a miss: the peek
        caller (stream repairs) has its own fallback path and is
        probing, not demanding."""
        with self._lock:
            column = self._entries.get(user)
            if column is not None:
                self._entries.move_to_end(user)
                self.stats.hits += 1
            return column

    # -- store ---------------------------------------------------------

    def store_full(self, user: int, column) -> None:
        """Cache a fully materialised column for ``user`` (replaces any
        existing entry; no-op when it cannot fit the budget at all)."""
        with self._lock:
            if self.column_bytes > self.max_bytes:
                return
            self._entries[user] = column
            self._entries.move_to_end(user)
            self._shrink_locked()

    def checkin(self, user: int, iterator: DijkstraIterator) -> None:
        """Promote ``iterator``, an expansion from ``user``, to
        ``user``'s column if it ran to exhaustion: its settled map is
        marshalled into a dense column once.  An early-terminated
        expansion is dropped.  Nothing in the query pipeline calls this
        (it caches only kernel columns); it stays because ``perfbench``'s
        tracer wraps it by name."""
        if not iterator.exhausted:
            return
        column = self.kernels.dense_from_dict(self.n, iterator.settled, INF)
        with self._lock:
            self.stats.promotions += 1
        self.store_full(user, column)

    # -- invalidation --------------------------------------------------

    def invalidate_all(self) -> None:
        """Drop every entry.  Nothing on the serving path needs it (a
        column is exact for its engine's lifetime); ``perfbench``'s
        probes call it so each timed method pays its own traversal."""
        with self._lock:
            self._entries.clear()
            self.stats.invalidations += 1

    # -- internals (caller holds the lock) -----------------------------

    def _shrink_locked(self) -> None:
        while self._entries and self.bytes_used > self.max_bytes:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
