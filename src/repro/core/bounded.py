"""Bounded social-first search: SFA's stopping rule, run by the kernel.

SFA (paper Section 4.1) expands the social graph around ``v_q`` and
stops once ``α·p(next)/P_max`` exceeds the k-th best score ``θ``.
``bounded`` executes the same rule as a *radius* instead of a Python
loop: any upper bound ``θ̂ ≥ θ`` turns it into "nobody farther than
``r = θ̂·P_max/α`` can be an answer", and one
``sssp_column(limit=r)`` kernel call settles exactly that ball.

1. Expand a small first ball (its radius read off a lazily sampled
   distance profile of this graph), score it with the spatial column
   the scan needs anyway, and take ``θ̂`` = its k-th finite score.
2. ``r = θ̂·P_max/α``, nudged up until ``fl(w_social·r) > θ̂``.  If the
   first ball already covers ``r`` its scan *is* the answer; otherwise
   expand once more with ``limit=r`` — or unbounded, when ``r`` would
   settle most of the graph anyway or the ball held fewer than ``k``
   finite scores.
3. One :func:`~repro.social.scan.dense_scan` over that column is
   Definition 1.

**When the ball does not pay.**  In a small world the radius of ``θ``
holds nearly the whole graph at spatial-heavy ``α``, and the first ball
is then pure overhead.  Before step 1 the searcher predicts ``r`` from
two profiles sampled once per graph, with no learned state: the social
profile ``R`` (the radius holding ``m`` users) and the sorted spatial
distances ``S`` pooled from sampled located users.  The ball holds
``m = max(8k, n/25)`` users, ``m · located share`` of them located, so
its k-th spatial neighbour sits near the quantile
``S(k / (m · located share))`` and
``r ≈ R(m) + (w_spatial / w_social) · S(…)``.  When that reaches the
radius holding all but 0.1 % of what a source reaches, the ball is
skipped: one unbounded column and one dense scan, which is exactly the
``bruteforce`` path (and the column is cached).  The prediction treats
spatial and social distance as independent, which overstates ``r``
where friends live close together; the threshold sits at the tail of
``R`` for that reason (docs/BENCHMARKS.md has the per-α
measurements).

**Why the answer is exact.**  Every label ``≤ r`` of a limited column
is final (a vertex is only reached through closer ones, all inside the
ball), so everyone inside scores bit-identically to bruteforce.  Anyone
outside has ``p > r``, hence ``score ≥ fl(w_social·p) ≥ fl(w_social·r)
> θ̂``, and at least ``k`` users inside score ``≤ θ̂`` — so no outsider
is among the ``(score, id)``-smallest ``k``, ties included.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np

from repro.backend import Kernels, resolve_backend
from repro.core.ranking import Normalization, RankingFunction
from repro.core.result import SSRQResult
from repro.core.stats import SearchStats
from repro.graph.socialgraph import SocialGraph
from repro.social.scan import dense_scan, spatial_column
from repro.spatial.point import LocationTable
from repro.utils.validation import check_user

INF = math.inf

#: sources pooled into each distance profile
_PROFILE_SOURCES = 3
#: the first ball is skipped when the predicted radius holds this share
#: of what a source reaches
_WHOLE_GRAPH = 0.999


def _pooled(columns: list) -> np.ndarray:
    """The finite entries of ``columns``, pooled and sorted."""
    if not columns:
        return np.empty(0)
    return np.sort(np.concatenate([c[np.isfinite(c)] for c in columns]))


class BoundedSearch:
    """Radius-limited exact SSRQ processor (``method="bounded"``).

        >>> from repro import BoundedSearch, SocialGraph, LocationTable, Normalization
        >>> g = SocialGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 3.0)])
        >>> loc = LocationTable.from_columns([0.0, 0.1, 0.9, 0.2], [0.0, 0.0, 0.9, 0.1])
        >>> bounded = BoundedSearch(g, loc, Normalization(p_max=4.0, d_max=1.5))
        >>> bounded.search(0, k=2, alpha=0.5).users
        [1, 3]
    """

    def __init__(
        self,
        graph: SocialGraph,
        locations: LocationTable,
        normalization: Normalization,
        kernels: Kernels | None = None,
    ) -> None:
        self.graph = graph
        self.locations = locations
        self.normalization = normalization
        self.kernels = kernels if kernels is not None else resolve_backend("python")
        # sampled lazily, once; a racing first query computes the same
        # value twice, which is harmless
        self._profiles = None

    def _sample_profiles(self):
        """``(social, spatial, located share)``.  ``social[m - 1]`` is
        the radius within which a sampled source reaches ``m`` users on
        average; ``spatial`` the sorted distances from sampled located
        users to every located user."""
        if self._profiles is None:
            graph, kernels = self.graph, self.kernels
            rng = random.Random(graph.n)
            # an isolated source reaches nobody: draw among vertices
            # with an edge, or the profile reads too small a radius
            sources = np.flatnonzero(np.diff(graph.indptr)).tolist()
            columns = [
                np.asarray(kernels.sssp_column(graph, rng.choice(sources)), dtype=np.float64)
                for _ in range(_PROFILE_SOURCES if sources else 0)
            ]
            locations = self.locations
            xs, ys = locations.columns()
            located = np.flatnonzero(~np.isnan(xs)).tolist()
            distances = [
                np.asarray(kernels.euclidean_to_point(xs, ys, *locations.get(q)), dtype=np.float64)
                for q in (rng.choice(located) for _ in range(_PROFILE_SOURCES if located else 0))
            ]
            # every _PROFILE_SOURCES-th pooled distance: averaged over
            # the sources
            social = _pooled(columns)[_PROFILE_SOURCES - 1 :: _PROFILE_SOURCES]
            self._profiles = (social, _pooled(distances), len(located) / graph.n)
        return self._profiles

    def _radius_holding(self, users: int) -> float:
        """The radius within which a sampled source reaches ``users``
        users on average; ``inf`` when that is the whole profile (the
        ball would be everything reachable)."""
        social = self._sample_profiles()[0]
        if users >= len(social):
            return INF
        return float(social[users - 1])

    def _first_radius(self, k: int, rank: RankingFunction) -> float:
        """The first ball's radius, or ``inf`` when the ball is
        predicted not to pay (module docstring)."""
        social, spatial, share = self._sample_profiles()
        m = max(8 * k, self.graph.n // 25)
        radius = self._radius_holding(m)
        predicted = radius
        if rank.needs_spatial:
            if not len(spatial):
                return INF  # nobody located: no finite score in any ball
            at = math.ceil(k / (m * share) * len(spatial)) - 1
            predicted += rank.w_spatial / rank.w_social * spatial[min(at, len(spatial) - 1)]
        whole = self._radius_holding(max(1, int(_WHOLE_GRAPH * len(social))))
        return INF if predicted >= whole else radius

    @staticmethod
    def _radius_for(theta: float, w_social: float) -> float:
        """The smallest radius (give or take an ulp) with
        ``fl(w_social·r) > theta``: everyone beyond it scores strictly
        worse than ``theta``, so a tie exactly on the boundary is
        inside.  ``inf`` if a few ulps do not get there (subnormals)."""
        radius = theta / w_social
        for _ in range(4):
            if w_social * radius > theta:
                return radius
            radius = math.nextafter(radius, INF)
        return INF

    def scan(self, query_user: int, k: int, alpha: float):
        """``(result, column)``: the answer, plus the query user's full
        social column when the expansion went unbounded (the pipeline's
        column step caches it) and ``None`` when it stopped at a
        radius."""
        check_user(query_user, self.graph.n)
        stats = SearchStats()
        start = time.perf_counter()
        rank = RankingFunction(alpha, self.normalization)
        if not rank.needs_social:
            raise ValueError(
                "bounded requires alpha > 0: with alpha == 0 no social radius "
                "bounds the answer; use SPA (the engine routes this automatically)"
            )
        kernels = self.kernels
        n = self.graph.n
        d = spatial_column(kernels, rank, self.locations, query_user)

        def expand(limit):  # ``inf`` is the unbounded column
            return kernels.sssp_column(self.graph, query_user, limit=limit)

        def scan_over(column):
            return dense_scan(kernels, rank, column, self.locations, query_user, k, spatial=d)

        passes = 1
        radius = self._first_radius(k, rank)
        column = expand(radius)
        neighbors, finite = scan_over(column)
        if radius != INF:
            needed = INF
            if len(neighbors) == k:
                needed = self._radius_for(neighbors[-1].score, rank.w_social)
                if needed >= self._radius_holding(n // 2):
                    needed = INF  # most of the graph: take (and cache) all of it
            if needed > radius:
                passes = 2
                radius = needed
                column = expand(radius)
                neighbors, finite = scan_over(column)

        stats.pops_social = kernels.count_finite(column)
        stats.evaluations = stats.candidates_scored = finite
        stats.extra["bounded_passes"] = passes
        stats.extra["bounded_radius"] = radius
        stats.elapsed = time.perf_counter() - start
        result = SSRQResult(query_user, k, alpha, neighbors, stats)
        return result, (column if radius == INF else None)

    def search(self, query_user: int, k: int, alpha: float) -> SSRQResult:
        """Answer the query (uniform searcher signature)."""
        return self.scan(query_user, k, alpha)[0]
