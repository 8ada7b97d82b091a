"""Per-query search statistics.

The paper's evaluation reports two cost metrics: *run-time* and the
*pop ratio* ``|V_pop| / |V|``, where ``|V_pop|`` counts vertices popped
from the methods' search heaps (an I/O proxy for disk-resident graphs).
:class:`SearchStats` aggregates pops per domain plus bookkeeping that
the AIS optimisations expose (exact evaluations, cache hits, delayed
re-insertions).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SearchStats:
    """Mutable counters filled in by a single query execution.

        >>> from repro import SearchStats
        >>> stats = SearchStats(pops_social=3, pops_spatial=2)
        >>> stats.pops, stats.pop_ratio(10)
        (5, 0.5)
        >>> stats.merge(SearchStats(pops_index=5))
        >>> stats.pops
        10
    """

    #: pops from social-domain heaps (Dijkstra / A* / CH searches); a
    #: column built by the ``sssp_column`` kernel counts its finite
    #: entries — the vertices a scalar expansion would have settled —
    #: so the count does not depend on the backend
    pops_social: int = 0
    #: pops from spatial-domain heaps (incremental NN)
    pops_spatial: int = 0
    #: pops from the AIS aggregate-index heap
    pops_index: int = 0
    #: spatial/aggregate-index cells expanded (grid cells whose members
    #: were enumerated, AIS top/leaf nodes opened)
    cells_opened: int = 0
    #: users whose combined score was computed and offered to the
    #: interim result (the work-volume proxy)
    candidates_scored: int = 0
    #: exact graph-distance computations performed
    evaluations: int = 0
    #: distance requests answered from forward-search/path caches
    cache_hits: int = 0
    #: AIS delayed-evaluation re-insertions (Section 5.3)
    reinsertions: int = 0
    #: wall-clock seconds for the query
    elapsed: float = 0.0
    #: free-form per-algorithm extras (e.g. 'fallback': 1 for AIS-Cache)
    extra: dict = field(default_factory=dict)

    @property
    def pops(self) -> int:
        """Total heap pops ``|V_pop|`` across all search structures."""
        return self.pops_social + self.pops_spatial + self.pops_index

    def pop_ratio(self, n_vertices: int) -> float:
        """The paper's pop ratio ``|V_pop| / |V|`` (may exceed 1)."""
        return self.pops / n_vertices if n_vertices else 0.0

    def merge(self, other: "SearchStats") -> None:
        """Accumulate ``other`` into this object (used when one query
        internally runs another, e.g. the AIS-Cache fallback)."""
        self.pops_social += other.pops_social
        self.pops_spatial += other.pops_spatial
        self.pops_index += other.pops_index
        self.cells_opened += other.cells_opened
        self.candidates_scored += other.candidates_scored
        self.evaluations += other.evaluations
        self.cache_hits += other.cache_hits
        self.reinsertions += other.reinsertions
        self.elapsed += other.elapsed
        for key, value in other.extra.items():
            self.extra[key] = self.extra.get(key, 0) + value
