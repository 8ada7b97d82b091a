"""Dijkstra search, resumable iteration, and path utilities.

The central object is :class:`DijkstraIterator`, a *pausable* Dijkstra
expansion from a fixed source.  Paused-and-resumed expansion is what the
paper's methods lean on throughout:

- SFA consumes it directly as a stream of users in increasing social
  distance (Section 4.1);
- TSA interleaves it with spatial NN retrieval (Section 4.2);
- AIS keeps one alive as the shared *forward search* whose heap is
  reused across point-to-point computations ("forward heap caching",
  Section 5.2) and whose frontier key provides the ``β`` bound of the
  delayed-evaluation strategy (Section 5.3).
"""

from __future__ import annotations

import math
from collections import deque

from repro.graph.socialgraph import SocialGraph
from repro.utils.heaps import MinHeap

INF = math.inf


class DijkstraIterator:
    """Resumable single-source Dijkstra over a :class:`SocialGraph`.

    Each call to :meth:`next` settles (finalises) one more vertex and
    returns it together with its exact distance; vertices are produced
    in non-decreasing distance order.  The search heap persists between
    calls, so interleaving with other work costs nothing.
    """

    __slots__ = ("graph", "source", "settled", "parent", "heap", "_best", "_last_distance")

    def __init__(self, graph: SocialGraph, source: int) -> None:
        if not 0 <= source < graph.n:
            raise ValueError(f"source {source} out of range [0, {graph.n})")
        self.graph = graph
        self.source = source
        #: vertex -> exact (final) distance, in settle order
        self.settled: dict[int, float] = {}
        #: vertex -> predecessor on a shortest path from the source
        self.parent: dict[int, int] = {source: source}
        self.heap = MinHeap()
        self._best: dict[int, float] = {source: 0.0}
        self._last_distance = 0.0
        self.heap.push((0.0, source))

    # -- core ------------------------------------------------------------

    def next(self) -> tuple[int, float] | None:
        """Settle and return the next ``(vertex, distance)``; ``None``
        once the reachable component is exhausted."""
        heap = self.heap
        settled = self.settled
        best = self._best
        parent = self.parent
        while heap:
            d, v = heap.pop()
            if v in settled:
                continue  # stale entry
            settled[v] = d
            self._last_distance = d
            for u, w in self.graph.neighbors(v):
                if u in settled:
                    continue
                nd = d + w
                old = best.get(u)
                if old is None or nd < old:
                    best[u] = nd
                    parent[u] = v
                    heap.push((nd, u))
            return v, d
        return None

    @property
    def last_distance(self) -> float:
        """Distance of the most recently settled vertex — the social
        lower bound ``t_p`` / frontier key ``β`` of the paper.  0 before
        the first settle."""
        return self._last_distance

    @property
    def exhausted(self) -> bool:
        return not self.heap

    def distance(self, v: int) -> float | None:
        """Exact distance of ``v`` if already settled, else ``None``."""
        return self.settled.get(v)

    # -- bulk helpers ------------------------------------------------------

    def run_until(self, target: int) -> float:
        """Advance until ``target`` is settled; return its distance
        (``inf`` if unreachable)."""
        d = self.settled.get(target)
        if d is not None:
            return d
        while True:
            item = self.next()
            if item is None:
                return INF
            if item[0] == target:
                return item[1]

    def run_to_completion(self) -> dict[int, float]:
        """Settle everything reachable; return the distance map."""
        while self.next() is not None:
            pass
        return self.settled

    def path_to(self, v: int) -> list[int]:
        """Shortest path ``source .. v`` for a settled vertex."""
        if v not in self.settled:
            raise KeyError(f"vertex {v} not settled yet")
        path = [v]
        while v != self.source:
            v = self.parent[v]
            path.append(v)
        path.reverse()
        return path


def dijkstra_distances(
    graph: SocialGraph, source: int, cutoff: float | None = None
) -> dict[int, float]:
    """Plain single-source shortest distances.

    With ``cutoff``, expansion stops once the frontier exceeds it (the
    returned map then only covers vertices within the cutoff).
    """
    it = DijkstraIterator(graph, source)
    while True:
        item = it.next()
        if item is None:
            break
        if cutoff is not None and item[1] > cutoff:
            del it.settled[item[0]]
            break
    return it.settled


def hop_counts(graph: SocialGraph, source: int) -> dict[int, int]:
    """Unweighted BFS hop distance from ``source`` to every reachable
    vertex."""
    hops = {source: 0}
    queue = deque([source])
    indptr, nbrs = graph.indptr, graph.nbrs
    while queue:
        v = queue.popleft()
        h = hops[v] + 1
        for u in nbrs[indptr[v]:indptr[v + 1]].tolist():
            if u not in hops:
                hops[u] = h
                queue.append(u)
    return hops
