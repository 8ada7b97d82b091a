"""Aggregate Index Search — AIS (paper Section 5, Algorithm 2).

One unified branch-and-bound search over the aggregate index: a
min-heap holds internal nodes, leaf cells, and individual users, each
keyed by a lower bound on the best score it can contain:

- nodes/cells: ``MINF = α·p̌(v_q, C) + (1−α)·ď(u_q, C)`` (Theorem 1),
  with ``p̌`` from the cell's social summary (Lemma 2);
- users: per-vertex landmark bound combined with their exact Euclidean
  distance.

Popping a user triggers an exact social-distance evaluation through the
bidirectional module of Section 5.2 (shared forward Dijkstra + caches).
The search terminates when the heap's head key reaches ``f_k``.

The *delayed evaluation strategy* (Section 5.3): before evaluating a
popped user whose distance is not already known, compare their key with
``α·β + (1−α)·d`` where ``β`` is the forward search's frontier
distance; if the key is looser, re-insert with the tighter bound instead
of paying for an exact computation.

:class:`AISVariant` switches each optimisation; the served ``ais`` runs
them all, and :mod:`repro.bench.variants` builds the figure-only
variants (AIS− and AIS-BID of Figure 10, and the ablations) from it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from repro.backend import NumpyKernels
from repro.core.ranking import Normalization, RankingFunction
from repro.core.result import SSRQResult, TopKBuffer
from repro.core.stats import SearchStats
from repro.graph.bidirectional import BidirectionalDistanceEngine
from repro.graph.landmarks import LandmarkIndex
from repro.graph.socialgraph import SocialGraph
from repro.index.aggregate import AggregateIndex
from repro.index.bounds import minf, social_lower_bound
from repro.plan.rules import check_routed
from repro.spatial.point import LocationTable
from repro.utils.heaps import MinHeap
from repro.utils.validation import UnlocatedUserError, check_user

INF = math.inf
_TOP = 0
_LEAF = 1
_USER = 2


@dataclass(frozen=True)
class AISVariant:
    """Feature switches of AIS; the defaults are the paper's AIS, with
    every optimisation on.

        >>> from repro import AISVariant
        >>> AISVariant().delayed_evaluation
        True
        >>> minus = AISVariant(delayed_evaluation=False)   # the paper's AIS−
        >>> minus.share_forward, minus.delayed_evaluation
        (True, False)
    """

    share_forward: bool = True
    cache_paths: bool = True
    delayed_evaluation: bool = True
    #: ablation (not in the paper): drop social summaries, keeping only
    #: spatial bounds in cell keys
    use_social_summaries: bool = True
    #: forward/reverse step ratio of the distance engine (1 = the
    #: paper's strict alternation; see BidirectionalDistanceEngine)
    forward_interleave: int = 1


class AggregateIndexSearch:
    """AIS query processor.

    The engine builds it with all its substrates wired up:

        >>> from repro import GeoSocialEngine, gowalla_like
        >>> engine = GeoSocialEngine.from_dataset(gowalla_like(n=300, seed=7))
        >>> ais = engine.searcher("ais")
        >>> type(ais).__name__
        'AggregateIndexSearch'
        >>> ais.search(0, k=5, alpha=0.3).users == engine.query(
        ...     0, 5, 0.3, method="bruteforce").users
        True
    """

    def __init__(
        self,
        graph: SocialGraph,
        locations: LocationTable,
        landmarks: LandmarkIndex,
        index: AggregateIndex,
        normalization: Normalization,
        variant: AISVariant = AISVariant(),
        kernels=None,
    ) -> None:
        self.graph = graph
        self.locations = locations
        self.landmarks = landmarks
        self.index = index
        self.normalization = normalization
        self.variant = variant
        self.kernels = kernels if kernels is not None else NumpyKernels()

    def search(
        self,
        query_user: int,
        k: int,
        alpha: float,
        initial: TopKBuffer | None = None,
    ) -> SSRQResult:
        """Answer the query; an optional ``initial`` buffer of already
        fully-evaluated users warm-starts the threshold ``f_k`` (used by
        the AIS-Cache fallback, Section 5.4)."""
        check_user(query_user, self.graph.n)
        stats = SearchStats()
        start = time.perf_counter()
        rank = RankingFunction(alpha, self.normalization)
        check_routed("ais", rank)
        variant = self.variant

        location = self.locations.get(query_user)
        if location is None:
            raise UnlocatedUserError.of(query_user)
        qx, qy = location
        query_vector = self.landmarks.vector(query_user)

        engine = BidirectionalDistanceEngine(
            self.graph,
            query_user,
            landmarks=self.landmarks,
            share_forward=variant.share_forward,
            cache_paths=variant.cache_paths,
            forward_interleave=variant.forward_interleave,
        )
        buffer = initial if initial is not None else TopKBuffer(k)
        heap = MinHeap()
        index = self.index
        locations = self.locations
        kernels = self.kernels
        xs, ys = locations.columns()
        use_summaries = variant.use_social_summaries
        # On a digraph only Lemma 2's forward side m̌ − p(l, q) bounds
        # p(q → ·): an infinite ceiling m̂ switches the other side off.
        ceiling = [INF] * len(query_vector) if self.graph.directed else None

        def node_key(node, summary, bbox, is_top: bool) -> float:
            social_lb = (
                social_lower_bound(query_vector, summary.m_check, ceiling or summary.m_hat)
                if use_summaries
                else 0.0
            )
            return minf(rank, social_lb, index.spatial_mindist(bbox, node, is_top, qx, qy))

        seq = 0  # deterministic tie-break for equal keys
        for top, summary, bbox in index.tops():
            heap.push((node_key(top, summary, bbox, True), seq, _TOP, top))
            seq += 1

        while heap:
            key, _, kind, payload = heap.pop()
            if key > buffer.fk:
                break
            if kind == _TOP:
                stats.cells_opened += 1
                for leaf, summary, bbox in index.children(payload):
                    heap.push((node_key(leaf, summary, bbox, False), seq, _LEAF, leaf))
                    seq += 1
            elif kind == _LEAF:
                stats.cells_opened += 1
                # One batched evaluation per leaf: exact spatial
                # distances, per-vertex ALT bounds, and blended keys
                # over the cell's id-array in three kernel calls.
                ids = index.grid.ids_in(*payload)
                distances = kernels.euclidean_to_point(xs, ys, qx, qy, ids)
                social_lbs = kernels.alt_lower_bounds(self.landmarks, query_vector, ids)
                keys = kernels.blend(rank.w_social, rank.w_spatial, social_lbs, distances)
                for pos in range(len(ids)):
                    user = int(ids[pos])
                    if user == query_user:
                        continue
                    user_key = float(keys[pos])
                    if user_key < INF:
                        heap.push((user_key, seq, _USER, (user, float(distances[pos]))))
                        seq += 1
            else:
                user, d = payload
                if variant.delayed_evaluation and engine.known_distance(user) is None:
                    beta_key = rank.social_part(engine.beta) + rank.spatial_part(d)
                    if key < beta_key:
                        heap.push((beta_key, seq, _USER, (user, d)))
                        seq += 1
                        stats.reinsertions += 1
                        continue
                p = engine.distance(user)
                stats.evaluations += 1
                buffer.offer(user, rank.score(p, d), p, d)
                stats.candidates_scored += 1

        stats.pops_index = heap.pops
        stats.cache_hits = engine.cache_hits
        stats.pops_social = engine.reverse_pops + engine.forward_pops
        if engine.forward is not None:
            stats.pops_social += engine.forward.heap.pops
        stats.elapsed = time.perf_counter() - start
        return SSRQResult(query_user, k, alpha, buffer.neighbors(), stats)
