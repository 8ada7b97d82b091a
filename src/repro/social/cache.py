"""Byte-bounded, epoch-safe cache of per-query-user social-distance
columns.

Every forward-deterministic query path — bruteforce, SFA/SPA/TSA,
stream repairs — derives the same object first: the social distances
from the query user.  Those distances are a pure
function of the (immutable-per-engine) social graph, so once one query
has paid for an expansion, every later query from the same user can
reuse it **exactly**.  The cache holds one kind of entry, a column
built by the ``sssp_column`` kernel inside ``bruteforce`` or an
unbounded ``bounded`` expansion (or by a subscription repair); it
answers any later query with one columnar scan, no traversal at all.
The incremental searchers (SFA, SPA, TSA) keep nothing.

**Only the located users.**  The cache serves only queries with both
weights nonzero (at a zero spatial weight an unlocated user can be an
answer, so SFA answers those), and there an unlocated user scores
``inf`` whatever its social distance.  So an entry stores its column
only at the *layout*, the ascending ``intp`` ids of the users located
when the cache was made (the engine's build, a service's engine swap):
``8`` bytes per located user, and the LRU evicts until the byte budget
holds (an entry count would be unbounded in the dimension that
matters).  A forget keeps the user's position (NaN coordinates score
``inf``).

**One invalidation.**  A column depends on nothing but the graph's
edges, and edge updates accumulate in the service layer's pending-edge
log until a rebuild (:meth:`~repro.service.QueryService.rebuild_engine`)
swaps in an engine with a fresh, empty cache.  The one update that
drops columns is a location update that locates a user outside the
layout: the engine lays the cache out afresh over the located users
(:meth:`SocialColumnCache.invalidate_all`).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass

import numpy as np

from repro.graph.traversal import DijkstraIterator

INF = math.inf

__all__ = [
    "DEFAULT_SOCIAL_CACHE_BYTES",
    "SocialCacheStats",
    "SocialColumnCache",
]

#: default byte budget: ~4 columns on a fully located 1M-user graph,
#: thousands on bench-scale ones (conservative against the engine's own)
DEFAULT_SOCIAL_CACHE_BYTES = 32 * 1024 * 1024

#: a column stores one float64 per user of the layout
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
    """Byte-bounded LRU of social-distance columns, keyed by query user,
    each stored at the layout (module docstring).

        >>> import numpy as np
        >>> from repro import SocialGraph
        >>> from repro.backend import NumpyKernels
        >>> from repro.graph.traversal import DijkstraIterator
        >>> from repro.social import SocialColumnCache
        >>> g = SocialGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        >>> cache = SocialColumnCache(3, NumpyKernels())   # laid out over every user
        >>> cache.acquire(0) is None
        True
        >>> it = DijkstraIterator(g, 0)
        >>> _ = it.run_to_completion()
        >>> cache.checkin(0, it)      # exhausted: promoted to a column
        >>> cache.acquire(0).tolist()
        [0.0, 1.0, 2.0]
        >>> cache.invalidate_all(layout=np.array([0, 2]))   # user 1 unlocated
        >>> cache.store_full(0, np.array([0.0, 1.0, 2.0])).tolist(), cache.bytes_used
        ([0.0, 2.0], 16)

    Thread-safe: every operation holds one internal lock, so concurrent
    queries under the service's shared read lock never observe a
    half-updated entry.  Columns are shared read-only.  ``max_bytes``
    is at least 1: an engine without a column cache carries ``None``.
    The layout changes only inside a location update, never beside a
    query.
    """

    def __init__(
        self, n: int, kernels, max_bytes: int = DEFAULT_SOCIAL_CACHE_BYTES, layout=None
    ) -> None:
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.n = n
        self.kernels = kernels
        self.max_bytes = max_bytes
        #: the ascending ``intp`` ids every entry is stored at (default: all)
        self.layout = np.arange(n, dtype=np.intp) if layout is None else layout
        self.stats = SocialCacheStats()
        self._entries: "OrderedDict[int, object]" = OrderedDict()
        self._lock = threading.Lock()

    # -- introspection -------------------------------------------------

    @property
    def column_bytes(self) -> int:
        """What one entry costs: one float64 per user of the layout."""
        return len(self.layout) * _COLUMN_ENTRY_BYTES

    @property
    def bytes_used(self) -> int:
        return len(self._entries) * self.column_bytes

    def __len__(self) -> int:
        return len(self._entries)

    def contains_full(self, user: int) -> bool:
        """Whether a column for ``user`` is cached — O(1), no
        statistics, no LRU touch (a probe that must never perturb what
        it observes)."""
        return user in self._entries

    def laid_out(self, user: int) -> bool:
        """Whether ``user`` has a position in the layout."""
        at = int(self.layout.searchsorted(user))
        return at < len(self.layout) and self.layout[at] == user

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
        """``user``'s column at the layout (recording a hit), or
        ``None`` (recording a miss).  The column is shared: callers must
        treat it as read-only."""
        with self._lock:
            column = self._entries.get(user)
            if column is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(user)
            self.stats.hits += 1
            return column

    def peek_full(self, user: int):
        """``user``'s column at the layout if one is cached (records a
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

    def store_full(self, user: int, column):
        """Cache ``user``'s full ``column`` at the layout (replacing any
        entry; nothing when an entry cannot fit the budget at all), and
        return that one gather."""
        with self._lock:
            column = column.take(self.layout)
            if self.column_bytes <= self.max_bytes:
                self._entries[user] = column
                self._entries.move_to_end(user)
                self._shrink_locked()
            return column

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

    def invalidate_all(self, layout=None) -> None:
        """Drop every entry; store later ones at ``layout`` when given
        (the engine's call when a user is located outside the layout).
        ``perfbench``'s probes call it bare so each timed method pays
        its own traversal."""
        with self._lock:
            self._entries.clear()
            if layout is not None:
                self.layout = layout
            self.stats.invalidations += 1

    # -- internals (caller holds the lock) -----------------------------

    def _shrink_locked(self) -> None:
        while self._entries and self.bytes_used > self.max_bytes:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
