"""A* point-to-point search with (landmark) heuristics.

:class:`AStarSearch` mirrors :class:`~repro.graph.traversal.DijkstraIterator`
but orders its heap by ``g + h`` where ``h`` is an admissible,
*consistent* heuristic (the ALT landmark bound).  With a consistent
heuristic, a popped vertex's ``g`` value is its exact distance from the
source — the property the bidirectional engine of Section 5.2 relies on
for its reverse search.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.graph.socialgraph import SocialGraph
from repro.graph.traversal import DijkstraIterator
from repro.utils.heaps import MinHeap

INF = math.inf


class AStarSearch:
    """Resumable A* expansion from ``source`` guided by heuristic ``h``.

    ``h(v)`` must lower-bound the remaining distance from ``v`` to the
    (implicit) goal and be consistent.  ``h = None`` degrades to plain
    Dijkstra.

    ``expand_filter`` is consulted when a vertex is settled; returning
    ``False`` suppresses relaxation of its out-edges (the vertex itself
    is still settled and reported).  The bidirectional engine uses this
    for Algorithm 3's line 18 — not expanding reverse-search vertices
    that the forward search has already covered.
    """

    __slots__ = (
        "graph", "source", "h", "expand_filter", "settled", "parent", "heap", "_best",
        "_last_fkey",
    )

    def __init__(
        self,
        graph: SocialGraph,
        source: int,
        h: Callable[[int], float] | None = None,
        heap: MinHeap | None = None,
        expand_filter: Callable[[int], bool] | None = None,
    ) -> None:
        if not 0 <= source < graph.n:
            raise ValueError(f"source {source} out of range [0, {graph.n})")
        self.graph = graph
        self.source = source
        self.h = h
        self.expand_filter = expand_filter
        #: vertex -> exact g (distance from source), in settle order
        self.settled: dict[int, float] = {}
        self.parent: dict[int, int] = {source: source}
        self.heap = heap if heap is not None else MinHeap()
        self._best: dict[int, float] = {source: 0.0}
        self._last_fkey = 0.0
        h0 = h(source) if h is not None else 0.0
        self.heap.push((h0, source))

    def next(self) -> tuple[int, float] | None:
        """Settle the next vertex; returns ``(vertex, g)`` or ``None``."""
        heap = self.heap
        settled = self.settled
        best = self._best
        parent = self.parent
        h = self.h
        while heap:
            fkey, v = heap.pop()
            if v in settled:
                continue
            g = best[v]
            settled[v] = g
            self._last_fkey = fkey
            if self.expand_filter is not None and not self.expand_filter(v):
                return v, g
            for u, w in self.graph.neighbors(v):
                if u in settled:
                    continue
                ng = g + w
                old = best.get(u)
                if old is None or ng < old:
                    best[u] = ng
                    parent[u] = v
                    hu = h(u) if h is not None else 0.0
                    heap.push((ng + hu, u))
            return v, g
        return None

    @property
    def min_fkey(self) -> float:
        """Smallest key in the open heap — a lower bound on the total
        length of any source-to-goal path through unsettled vertices.
        ``inf`` when the heap is empty."""
        return self.heap.peek_key() if self.heap else INF

    @property
    def exhausted(self) -> bool:
        return not self.heap

    def g(self, v: int) -> float | None:
        """Exact distance from the source if ``v`` is settled."""
        return self.settled.get(v)

    def path_to(self, v: int) -> list[int]:
        """Search-tree path ``source .. v`` for a settled vertex."""
        if v not in self.settled:
            raise KeyError(f"vertex {v} not settled yet")
        path = [v]
        while v != self.source:
            v = self.parent[v]
            path.append(v)
        path.reverse()
        return path


def alt_distance(graph: SocialGraph, source: int, target: int, landmarks=None) -> float:
    """Point-to-point distance via unidirectional A* with the ALT
    heuristic (plain Dijkstra when ``landmarks`` is ``None``)."""
    if source == target:
        return 0.0
    if landmarks is None:
        return DijkstraIterator(graph, source).run_until(target)
    h = landmarks.heuristic_to(target)
    if h(source) == INF:
        return INF
    search = AStarSearch(graph, source, h)
    while True:
        item = search.next()
        if item is None:
            return INF
        if item[0] == target:
            return item[1]
