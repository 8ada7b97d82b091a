"""Spatial First Approach — SPA (paper Section 4.1).

Retrieve users in increasing Euclidean distance from ``u_q`` with an
incremental grid-based NN search; compute each one's social distance;
stop when ``θ = (1 − α) · d(u_q, u_last)`` exceeds ``f_k``.  (The
paper terminates at ``θ ≥ f_k``; we stop only on *strict* excess so
users exactly tied with the k-th score are still enumerated and the
result's tie-break — smaller ids win — is deterministic across all
methods and enumeration orders.)

Social distances are produced by one *shared* incremental Dijkstra from
``v_q`` that is advanced just far enough to settle each candidate — the
"shortest paths all have v_q as source, thus essentially sharing
computations" behaviour the paper credits vanilla SPA with.  The
``point_to_point`` oracle (SPA-CH) replaces that module with a fresh
point-to-point query per candidate.
"""

from __future__ import annotations

import time

from repro.core.ranking import Normalization, RankingFunction
from repro.core.result import SSRQResult, TopKBuffer
from repro.core.stats import SearchStats
from repro.graph.socialgraph import SocialGraph
from repro.graph.traversal import DijkstraIterator
from repro.plan.rules import check_routed
from repro.spatial.grid import UniformGrid
from repro.spatial.nn import IncrementalNearestNeighbors
from repro.spatial.point import LocationTable
from repro.utils.validation import check_user


class SpatialFirstSearch:
    """SPA query processor.

        >>> from repro import SpatialFirstSearch, SocialGraph, LocationTable, Normalization
        >>> from repro.spatial.grid import UniformGrid
        >>> g = SocialGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 3.0)])
        >>> loc = LocationTable.from_columns([0.0, 0.1, 0.9, 0.2], [0.0, 0.0, 0.9, 0.1])
        >>> spa = SpatialFirstSearch(g, loc, UniformGrid.build(loc, 2),
        ...                          Normalization(p_max=4.0, d_max=1.5))
        >>> spa.search(0, k=2, alpha=0.5).users
        [1, 3]
    """

    def __init__(
        self,
        graph: SocialGraph,
        locations: LocationTable,
        grid: UniformGrid,
        normalization: Normalization,
        point_to_point=None,
        kernels=None,
    ) -> None:
        self.graph = graph
        self.locations = locations
        self.grid = grid
        self.normalization = normalization
        self.point_to_point = point_to_point
        self.kernels = kernels

    def search(self, query_user: int, k: int, alpha: float) -> SSRQResult:
        """Answer the query; evaluations advance one shared Dijkstra from
        ``v_q`` through ``run_until``."""
        check_user(query_user, self.graph.n)
        stats = SearchStats()
        start = time.perf_counter()
        rank = RankingFunction(alpha, self.normalization)
        check_routed("spa", rank)
        location = self.locations.get(query_user)
        if location is None:
            raise ValueError(
                f"query user {query_user} has no known location; spatial-first "
                "search is undefined (paper assumes located query users)"
            )
        qx, qy = location

        buffer = TopKBuffer(k)
        oracle = self.point_to_point
        nn = IncrementalNearestNeighbors(
            self.grid, self.locations, qx, qy, exclude=query_user, kernels=self.kernels
        )
        oracle_pops_before = oracle.pops if oracle is not None else 0
        social = DijkstraIterator(self.graph, query_user) if oracle is None else None

        while True:
            item = nn.next()
            if item is None:
                break  # all located users scored; the rest are at d = inf
            u, d = item
            p = oracle.distance(query_user, u) if oracle is not None else social.run_until(u)
            stats.evaluations += 1
            buffer.offer(u, rank.score(p, d), p, d)
            stats.candidates_scored += 1
            theta = rank.spatial_part(d)
            if theta > buffer.fk:
                break

        stats.pops_spatial = nn.heap.pops
        stats.cells_opened = nn.cells_opened
        if social is not None:
            stats.pops_social = social.heap.pops
        if oracle is not None:
            stats.pops_social += oracle.pops - oracle_pops_before
        stats.elapsed = time.perf_counter() - start
        return SSRQResult(query_user, k, alpha, buffer.neighbors(), stats)
