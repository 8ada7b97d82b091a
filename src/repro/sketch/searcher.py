"""``method="approx"`` — sketch-scored SSRQ with a certified bound.

Mirrors :class:`~repro.core.bruteforce.BruteForceSearch`'s columnar
flow, with the forward Dijkstra replaced by one sketch lookup: the
social column is the midpoint of each user's ``[p̌, p̂]`` sketch
interval, so the whole query is a handful of kernel calls over dense
columns — no traversal, no heap, no per-degree cost.  That is what
buys the ≥10x on high-degree query users where Dijkstra's frontier is
the bottleneck (``benchmarks/bench_approx.py``).

The reported ranking is approximate; the error is not.  For every
reported neighbour ``u`` the true score satisfies::

    |f̃(u) − f(u)| = w_social · |p̃(u) − p(u)| <= w_social · half(u)

because the spatial term is computed exactly (same kernel as every
exact searcher) and the true social distance lies inside the sketch
interval.  The query's :attr:`~repro.core.result.SSRQResult.error_bound`
is the max of that quantity over the reported neighbours — computed at
query time from the same columns, so it holds by construction on every
query, not just on benchmarked ones.
"""

from __future__ import annotations

import math
import time

from repro.backend import Kernels, resolve_backend
from repro.core.ranking import Normalization, RankingFunction
from repro.core.result import Neighbor, SSRQResult
from repro.core.stats import SearchStats
from repro.graph.socialgraph import SocialGraph
from repro.sketch.index import SketchIndex
from repro.spatial.point import LocationTable
from repro.utils.validation import check_user

INF = math.inf
_NAN = math.nan


class ApproxSketchSearch:
    """Bounded-error SSRQ processor answering from a sketch.

    Reached through the engine facade like every other method; the
    result carries the certified score-error radius of its ranking::

        >>> from repro import GeoSocialEngine, gowalla_like
        >>> engine = GeoSocialEngine.from_dataset(gowalla_like(n=80, seed=3))
        >>> result = engine.query(user=8, k=5, alpha=0.3, method="approx")
        >>> len(result.users) == 5 and result.error_bound >= 0.0
        True
    """

    def __init__(
        self,
        graph: SocialGraph,
        locations: LocationTable,
        normalization: Normalization,
        sketch: SketchIndex,
        kernels: Kernels | None = None,
    ) -> None:
        self.graph = graph
        self.locations = locations
        self.normalization = normalization
        self.sketch = sketch
        self.kernels = kernels if kernels is not None else resolve_backend("python")

    def search(
        self,
        query_user: int,
        k: int,
        alpha: float,
        initial=None,
    ) -> SSRQResult:
        """Score every user from the sketch midpoint; an optional
        ``initial`` buffer of already (exactly) evaluated users is
        merged in, contributing zero to the error bound."""
        check_user(query_user, self.graph.n)
        stats = SearchStats()
        start = time.perf_counter()
        rank = RankingFunction(alpha, self.normalization)
        kernels = self.kernels
        n = self.graph.n

        half = None
        if rank.needs_social:
            lower, upper = self.sketch.intervals(query_user, kernels)
            p, half = kernels.interval_midpoints(lower, upper)
        else:  # pure-spatial degenerate (normally routed to spa)
            p = kernels.dense_from_dict(n, {}, INF)

        location = self.locations.get(query_user) if rank.needs_spatial else None
        qx, qy = location if location is not None else (_NAN, _NAN)
        xs, ys = self.locations.columns()
        d = kernels.euclidean_to_point(xs, ys, qx, qy)

        scores = kernels.blend(rank.w_social, rank.w_spatial, p, d)
        scores[query_user] = INF  # never report the query user
        top = kernels.top_k_by_score(scores, None, k)
        neighbors = [
            Neighbor(int(u), float(scores[u]), float(p[u]), float(d[u])) for u in top
        ]
        # per-user certified score-error radii of the *reported* set
        w_social = rank.w_social
        radii = (
            {nb.user: w_social * float(half[nb.user]) for nb in neighbors}
            if half is not None
            else {}
        )
        if initial is not None:
            for nb in neighbors:
                initial.offer(nb.user, nb.score, nb.social, nb.spatial)
            neighbors = initial.neighbors()
        bound = max((radii.get(nb.user, 0.0) for nb in neighbors), default=0.0)
        stats.evaluations = kernels.count_finite(scores)
        stats.candidates_scored = stats.evaluations
        stats.elapsed = time.perf_counter() - start
        return SSRQResult(
            query_user, k, alpha, neighbors, stats, error_bound=bound
        )
