"""Social First Approach — SFA (paper Section 4.1).

Expand the social graph around ``v_q`` with Dijkstra, evaluating every
settled user (their Euclidean distance is an O(1) lookup).  If ``v`` is
the last settled vertex, ``θ = α · p(v_q, v)`` lower-bounds the score of
every unseen user, so the search stops once ``θ`` strictly exceeds
``f_k`` (strict, so exact boundary ties are enumerated and broken
deterministically toward smaller ids — see :mod:`repro.core.spa`).

``point_to_point`` switches the *evaluation* distance to an external
oracle (a CH query in the paper's SFA-CH variant of Figure 8) while the
Dijkstra stream keeps providing the enumeration order and the
termination bound — the configuration the paper uses to show that a
state-of-the-art point-to-point index loses to the incremental shared
expansion that gets ``p`` for free.
"""

from __future__ import annotations

import math
import time

from repro.core.ranking import Normalization, RankingFunction
from repro.core.result import SSRQResult, TopKBuffer
from repro.core.stats import SearchStats
from repro.graph.socialgraph import SocialGraph
from repro.graph.traversal import DijkstraIterator
from repro.plan.rules import check_routed
from repro.spatial.point import LocationTable
from repro.utils.validation import check_user

INF = math.inf


class SocialFirstSearch:
    """SFA query processor.

        >>> from repro import SocialFirstSearch, SocialGraph, LocationTable, Normalization
        >>> g = SocialGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 3.0)])
        >>> loc = LocationTable.from_columns([0.0, 0.1, 0.9, 0.2], [0.0, 0.0, 0.9, 0.1])
        >>> sfa = SocialFirstSearch(g, loc, Normalization(p_max=4.0, d_max=1.5))
        >>> sfa.search(0, k=2, alpha=0.5).users
        [1, 3]
    """

    def __init__(
        self,
        graph: SocialGraph,
        locations: LocationTable,
        normalization: Normalization,
        point_to_point=None,
    ) -> None:
        self.graph = graph
        self.locations = locations
        self.normalization = normalization
        self.point_to_point = point_to_point

    def search(self, query_user: int, k: int, alpha: float) -> SSRQResult:
        """Answer the query over a fresh Dijkstra stream from ``v_q``."""
        check_user(query_user, self.graph.n)
        stats = SearchStats()
        start = time.perf_counter()
        rank = RankingFunction(alpha, self.normalization)
        check_routed("sfa", rank)
        buffer = TopKBuffer(k)
        oracle = self.point_to_point
        social = DijkstraIterator(self.graph, query_user)
        locations = self.locations
        oracle_pops_before = oracle.pops if oracle is not None else 0

        while True:
            item = social.next()
            if item is None:
                break
            v, p = item
            if v != query_user:
                if oracle is not None:
                    p_eval = oracle.distance(query_user, v)
                    stats.evaluations += 1
                else:
                    p_eval = p
                d = locations.distance(query_user, v) if rank.needs_spatial else INF
                buffer.offer(v, rank.score(p_eval, d), p_eval, d)
                stats.candidates_scored += 1
            theta = rank.social_part(p)
            if theta > buffer.fk:
                break

        stats.pops_social = social.heap.pops
        if oracle is not None:
            stats.pops_social += oracle.pops - oracle_pops_before
        stats.elapsed = time.perf_counter() - start
        return SSRQResult(query_user, k, alpha, buffer.neighbors(), stats)
