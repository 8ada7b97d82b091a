"""Bidirectional graph-distance computation (paper Section 5.2).

AIS repeatedly needs exact distances from the query vertex ``v_q`` to
*different* targets.  :class:`BidirectionalDistanceEngine` implements
the paper's Algorithm 3 (``GraphDist``) with its two computation-sharing
optimisations:

- **Forward heap caching** — the forward search from ``v_q`` is a plain
  Dijkstra whose heap keys do not depend on the target, so one forward
  search is paused/resumed across all calls.  (This is exactly why the
  paper uses Dijkstra, not A*, on the forward side.)
- **Distance caching** — targets already settled by the forward search,
  or lying on a previously reported shortest path (table ``T``), are
  answered in O(1).

The reverse search is a fresh landmark-guided A* per call, which stops
expanding at vertices the forward search has already covered (line 18).

Setting ``share_forward=False`` / ``cache_paths=False`` yields the
"AIS-BID" baseline of Figure 10: a from-scratch bidirectional search per
evaluation with no sharing.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.graph.astar import AStarSearch
from repro.graph.socialgraph import SocialGraph
from repro.graph.traversal import DijkstraIterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.graph.landmarks import LandmarkIndex

INF = math.inf


def bidirectional_dijkstra(graph: SocialGraph, source: int, target: int) -> float:
    """Plain symmetric bidirectional Dijkstra (reference implementation,
    used in tests and as the no-landmark fallback).

    Uses Goldberg's sound stopping rule: the candidate ``μ`` is updated
    on every arc relaxation whose head the *other* search has settled,
    and the search stops when ``μ <= top_f + top_r``.
    """
    import heapq

    if source == target:
        return 0.0
    graphs = (graph, graph.reverse())  # reverse() is the graph itself when undirected
    dist: tuple[dict[int, float], dict[int, float]] = ({source: 0.0}, {target: 0.0})
    settled: tuple[dict[int, float], dict[int, float]] = ({}, {})
    heaps: tuple[list, list] = ([(0.0, source)], [(0.0, target)])
    best = INF
    while True:
        key0 = heaps[0][0][0] if heaps[0] else INF
        key1 = heaps[1][0][0] if heaps[1] else INF
        if best <= key0 + key1:
            return best
        side = 0 if key0 <= key1 else 1
        d, v = heapq.heappop(heaps[side])
        my_settled = settled[side]
        if v in my_settled:
            continue
        my_settled[v] = d
        other_settled = settled[1 - side]
        my_dist = dist[side]
        for u, w in graphs[side].neighbors(v):
            nd = d + w
            ou = other_settled.get(u)
            if ou is not None and nd + ou < best:
                best = nd + ou
            if u not in my_settled and nd < my_dist.get(u, INF):
                my_dist[u] = nd
                heapq.heappush(heaps[side], (nd, u))


class BidirectionalDistanceEngine:
    """Many-targets-one-source exact distance oracle (Algorithm 3).

    Parameters
    ----------
    graph:
        The social graph.
    source:
        The query vertex ``v_q``; all distances are measured from it.
    landmarks:
        Optional :class:`~repro.graph.landmarks.LandmarkIndex` guiding
        the reverse A* search (plain Dijkstra without it).
    share_forward:
        Keep one forward Dijkstra alive across calls (paper: forward
        heap caching).  When ``False`` a fresh forward search runs per
        call.
    cache_paths:
        Maintain the shortest-path table ``T`` (paper: distance caching).
    """

    __slots__ = (
        "graph",
        "source",
        "landmarks",
        "share_forward",
        "cache_paths",
        "forward_interleave",
        "forward",
        "path_cache",
        "_h",
        "forward_pops",
        "reverse_pops",
        "calls",
        "cache_hits",
    )

    def __init__(
        self,
        graph: SocialGraph,
        source: int,
        landmarks: "LandmarkIndex | None" = None,
        share_forward: bool = True,
        cache_paths: bool = True,
        forward_interleave: int = 1,
    ) -> None:
        """``forward_interleave``: advance the forward search once every
        this many reverse steps.  The paper's Algorithm 3 alternates 1:1;
        values > 1 throttle the (target-independent) forward work when
        the reverse heuristic is weak — correctness is unaffected, the
        forward search merely contributes less cached state per call."""
        if forward_interleave < 1:
            raise ValueError(f"forward_interleave must be >= 1, got {forward_interleave}")
        self.graph = graph
        self.source = source
        self.landmarks = landmarks
        self.share_forward = share_forward
        self.cache_paths = cache_paths
        self.forward_interleave = forward_interleave
        self.forward = DijkstraIterator(graph, source) if share_forward else None
        #: table T: vertex -> exact distance from source, harvested from
        #: previously reported shortest paths
        self.path_cache: dict[int, float] = {}
        # The reverse search always aims at the fixed source, so one
        # heuristic closure serves every call.
        if landmarks is not None and not graph.directed:
            self._h = landmarks.heuristic_to(source)
        else:
            self._h = None
        self.forward_pops = 0
        self.reverse_pops = 0
        self.calls = 0
        self.cache_hits = 0

    # -- caching-aware public API -----------------------------------------

    @property
    def beta(self) -> float:
        """Frontier key of the shared forward search — the lower bound
        ``β`` on the distance of every forward-unvisited vertex (used by
        the delayed evaluation strategy, Section 5.3)."""
        return self.forward.last_distance if self.forward is not None else 0.0

    def known_distance(self, v: int) -> float | None:
        """Exact distance if available without any search (settled by
        forward search or recorded in the path table)."""
        if self.forward is not None:
            d = self.forward.settled.get(v)
            if d is not None:
                return d
        return self.path_cache.get(v)

    def distance(self, target: int) -> float:
        """Exact graph distance ``p(source, target)``."""
        self.calls += 1
        if target == self.source:
            return 0.0
        known = self.known_distance(target)
        if known is not None:
            self.cache_hits += 1
            return known
        if self.forward is not None:
            forward = self.forward
        else:
            forward = DijkstraIterator(self.graph, self.source)
        d = self._bidirectional(forward, target)
        if not self.share_forward:
            self.forward_pops += forward.heap.pops
        return d

    # -- Algorithm 3 core ----------------------------------------------------

    def _bidirectional(self, forward: DijkstraIterator, target: int) -> float:
        fwd_settled = forward.settled
        rev_graph = self.graph.reverse() if self.graph.directed else self.graph
        reverse = AStarSearch(
            rev_graph,
            target,
            h=self._h,
            expand_filter=lambda v: v not in fwd_settled,
        )
        min_dist = INF
        meet = -1  # meeting vertex of the best candidate path
        step = 0

        while True:
            # Termination (paper line 7): no undiscovered path can beat
            # the candidate once the reverse frontier bound reaches it.
            rev_bound = reverse.min_fkey
            if min_dist <= rev_bound:
                break
            if forward.exhausted and reverse.exhausted:
                break

            # Forward step (lines 8-12), throttled by forward_interleave.
            step += 1
            item = forward.next() if step % self.forward_interleave == 0 else None
            if item is not None:
                vf, df = item
                if vf == target:
                    # Settled by Dijkstra: df is exact; no candidate or
                    # frontier can be shorter.
                    min_dist, meet = df, vf
                    break
                gr = reverse.settled.get(vf)
                if gr is not None and df + gr < min_dist:
                    min_dist, meet = df + gr, vf

            # Reverse step (lines 13-18).
            item = reverse.next()
            if item is not None:
                vr, gr = item
                if vr == self.source:
                    if gr < min_dist:
                        min_dist, meet = gr, vr
                    break  # exact: reverse settled the goal itself
                df = fwd_settled.get(vr)
                if df is not None and df + gr < min_dist:
                    min_dist, meet = df + gr, vr

        self.reverse_pops += reverse.heap.pops
        if min_dist != INF and self.cache_paths:
            self._record_path(forward, reverse, target, meet, min_dist)
        return min_dist

    def _record_path(
        self,
        forward: DijkstraIterator,
        reverse: AStarSearch,
        target: int,
        meet: int,
        total: float,
    ) -> None:
        """Store exact from-source distances for every vertex on the
        reported shortest path (table ``T``, lines 19-20).

        Forward-side vertices are already covered by ``forward.settled``
        when the forward search is shared; reverse-side vertices ``x``
        satisfy ``p(source, x) = total - g_r(x)`` because subpaths of a
        shortest path are shortest.
        """
        cache = self.path_cache
        if meet in forward.settled:
            for x in forward.path_to(meet):
                cache[x] = forward.settled[x]
        if meet in reverse.settled and meet != target:
            for x in reverse.path_to(meet):
                gr = reverse.settled.get(x)
                if gr is not None:
                    cache[x] = total - gr
        cache[target] = total
