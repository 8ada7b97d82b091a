"""Twofold Search Approach — TSA (paper Section 4.2, Algorithm 1).

TSA runs a social search (Dijkstra around ``v_q``) and a spatial search
(incremental NN around ``u_q``) concurrently, obtaining *both* a social
and a spatial lower bound for unseen users:

- **Phase 1** interleaves the two streams (round-robin by default,
  Quick Combine for TSA-QC).  Social pops are evaluated immediately;
  spatial pops whose social distance is unknown enter the candidate set
  ``Q``.  The phase ends when ``θ = α·t_p + (1−α)·t_d`` exceeds
  ``f_k``.
- **Phase 2** only continues the social search (continuing the spatial
  one could not improve the candidate bound ``θ' = α·t_p + (1−α)·t'_d``
  where ``t'_d`` is the smallest candidate distance).  Settled vertices
  found in ``Q`` are evaluated; the phase ends when ``Q`` empties or
  ``θ'`` exceeds ``f_k``.

Every bound comparison is *strict* (the paper terminates at
``θ ≥ f_k``): users exactly tied with the k-th score stay in play, so
the tie-break toward smaller ids is deterministic across methods
and enumeration orders (see :mod:`repro.core.spa`).

The landmark-aided version (the paper's default "TSA") prunes ``Q``
between the phases using per-candidate landmark lower bounds.  With a
``point_to_point`` oracle (TSA-CH), phase 2 evaluates the surviving
candidates directly via the oracle instead of continuing the social
enumeration.
"""

from __future__ import annotations

import heapq
import math
import time

from repro.core.ranking import Normalization, RankingFunction
from repro.core.result import SSRQResult, TopKBuffer
from repro.core.stats import SearchStats
from repro.graph.landmarks import LandmarkIndex
from repro.graph.socialgraph import SocialGraph
from repro.graph.traversal import DijkstraIterator
from repro.plan.rules import check_routed
from repro.spatial.grid import UniformGrid
from repro.spatial.nn import IncrementalNearestNeighbors
from repro.spatial.point import LocationTable
from repro.topk.quick_combine import QuickCombinePolicy, RoundRobinPolicy
from repro.utils.validation import UnlocatedUserError, check_user

INF = math.inf
_SOCIAL = 0
_SPATIAL = 1


class TwofoldSearch:
    """TSA query processor.

        >>> from repro import TwofoldSearch, SocialGraph, LocationTable, Normalization
        >>> from repro.spatial.grid import UniformGrid
        >>> g = SocialGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 3.0)])
        >>> loc = LocationTable.from_columns([0.0, 0.1, 0.9, 0.2], [0.0, 0.0, 0.9, 0.1])
        >>> tsa = TwofoldSearch(g, loc, UniformGrid.build(loc, 2),
        ...                     Normalization(p_max=4.0, d_max=1.5))
        >>> tsa.search(0, k=2, alpha=0.5).users
        [1, 3]

    Parameters
    ----------
    landmarks:
        When provided, candidates are pruned with landmark lower bounds
        before phase 2 (the paper's default TSA; pass ``None`` for the
        plain variant it "disregards because it consistently performs
        worse").
    probe_policy:
        ``"round-robin"`` (default) or ``"quick-combine"`` (TSA-QC).
    point_to_point:
        Optional distance oracle evaluating phase-2 candidates directly
        (TSA-CH).
    """

    def __init__(
        self,
        graph: SocialGraph,
        locations: LocationTable,
        grid: UniformGrid,
        normalization: Normalization,
        landmarks: LandmarkIndex | None = None,
        probe_policy: str = "round-robin",
        point_to_point=None,
        kernels=None,
    ) -> None:
        if probe_policy not in ("round-robin", "quick-combine"):
            raise ValueError(f"unknown probe policy {probe_policy!r}")
        self.graph = graph
        self.locations = locations
        self.grid = grid
        self.normalization = normalization
        self.landmarks = landmarks
        self.probe_policy = probe_policy
        self.point_to_point = point_to_point
        self.kernels = kernels

    # -- query ----------------------------------------------------------------

    def search(self, query_user: int, k: int, alpha: float) -> SSRQResult:
        """Answer the query over a fresh Dijkstra stream from ``v_q``."""
        check_user(query_user, self.graph.n)
        stats = SearchStats()
        start = time.perf_counter()
        rank = RankingFunction(alpha, self.normalization)
        check_routed("tsa-qc" if self.probe_policy == "quick-combine" else "tsa", rank)
        location = self.locations.get(query_user)
        if location is None:
            raise UnlocatedUserError.of(query_user)
        qx, qy = location

        buffer = TopKBuffer(k)
        oracle = self.point_to_point
        social = DijkstraIterator(self.graph, query_user)
        oracle_pops_before = oracle.pops if oracle is not None else 0
        nn = IncrementalNearestNeighbors(
            self.grid, self.locations, qx, qy, exclude=query_user, kernels=self.kernels
        )
        if self.probe_policy == "quick-combine":
            policy = QuickCombinePolicy((alpha, 1.0 - alpha))
        else:
            policy = RoundRobinPolicy(2)

        locations = self.locations
        candidates: dict[int, float] = {}  # Q: user -> spatial distance
        cand_heap: list[tuple[float, int]] = []  # lazy min-heap over Q by d
        tp = 0.0
        td = 0.0
        social_live = True
        spatial_live = True

        # ---- Phase 1: interleaved twofold search -------------------------
        while social_live or spatial_live:
            theta = rank.social_part(tp if social_live else INF) + rank.spatial_part(
                td if spatial_live else INF
            )
            if theta > buffer.fk:
                break
            side = policy.choose((social_live, spatial_live))
            if side == _SOCIAL:
                item = social.next()
                if item is None:
                    social_live = False
                    continue
                v, p = item
                tp = p
                policy.observe(_SOCIAL, p)
                if v == query_user:
                    continue
                d = locations.distance(query_user, v)
                buffer.offer(v, rank.score(p, d), p, d)
                stats.candidates_scored += 1
                # Fully evaluated now; drop from Q if the spatial search
                # had found it first (Algorithm 1, lines 7-8).
                candidates.pop(v, None)
            else:
                item = nn.next()
                if item is None:
                    spatial_live = False
                    continue
                u, d = item
                td = d
                policy.observe(_SPATIAL, d)
                if u not in social.settled:
                    candidates[u] = d
                    heapq.heappush(cand_heap, (d, u))

        # ---- Landmark pruning of candidates (TSA's landmark aid) ----------
        tp_floor = tp if social_live else INF  # unsettled users have p >= tp
        if candidates and self.landmarks is not None:
            fk = buffer.fk
            lm = self.landmarks
            for u in list(candidates):
                lb_p = lm.lower_bound(query_user, u)
                if lb_p < tp_floor:
                    lb_p = tp_floor
                lb = rank.social_part(lb_p) + rank.spatial_part(candidates[u])
                if lb > fk:
                    del candidates[u]

        # ---- Phase 2: resolve candidates ----------------------------------
        if candidates:
            if self.point_to_point is not None:
                self._resolve_with_oracle(
                    query_user, rank, buffer, candidates, tp_floor, stats
                )
            else:
                self._resolve_with_social_search(
                    query_user, rank, buffer, candidates, cand_heap, social, social_live, stats
                )

        stats.pops_social += social.heap.pops
        if oracle is not None:
            stats.pops_social += oracle.pops - oracle_pops_before
        stats.pops_spatial = nn.heap.pops
        stats.cells_opened = nn.cells_opened
        stats.elapsed = time.perf_counter() - start
        return SSRQResult(query_user, k, alpha, buffer.neighbors(), stats)

    # -- phase-2 strategies -----------------------------------------------

    def _resolve_with_social_search(
        self,
        query_user: int,
        rank: RankingFunction,
        buffer: TopKBuffer,
        candidates: dict[int, float],
        cand_heap: list[tuple[float, int]],
        social: DijkstraIterator,
        social_live: bool,
        stats: SearchStats,
    ) -> None:
        """Continue the social expansion until every candidate is found
        or ruled out (Algorithm 1, lines 15-24)."""
        locations = self.locations
        while candidates and social_live:
            # t'_d: smallest spatial distance among remaining candidates.
            while cand_heap and cand_heap[0][1] not in candidates:
                heapq.heappop(cand_heap)
            td_min = cand_heap[0][0] if cand_heap else INF
            theta2 = rank.social_part(social.last_distance) + rank.spatial_part(td_min)
            if theta2 > buffer.fk:
                break
            item = social.next()
            if item is None:
                social_live = False
                break
            v, p = item
            d = candidates.pop(v, None)
            if d is not None:
                buffer.offer(v, rank.score(p, d), p, d)
                stats.candidates_scored += 1
        # Anything left in Q is either bounded out or unreachable
        # (p = inf -> f = inf): discard.

    def _resolve_with_oracle(
        self,
        query_user: int,
        rank: RankingFunction,
        buffer: TopKBuffer,
        candidates: dict[int, float],
        tp_floor: float,
        stats: SearchStats,
    ) -> None:
        """Evaluate surviving candidates via the point-to-point oracle
        (TSA-CH), nearest first, re-checking bounds as ``f_k`` drops."""
        lm = self.landmarks
        oracle = self.point_to_point
        for u in sorted(candidates, key=lambda u: (candidates[u], u)):
            d = candidates[u]
            lb_p = tp_floor
            if lm is not None:
                lm_lb = lm.lower_bound(query_user, u)
                if lm_lb > lb_p:
                    lb_p = lm_lb
            if rank.social_part(lb_p) + rank.spatial_part(d) > buffer.fk:
                continue
            p = oracle.distance(query_user, u)
            stats.evaluations += 1
            buffer.offer(u, rank.score(p, d), p, d)
            stats.candidates_scored += 1
