"""Exact brute-force SSRQ evaluation.

Takes the full social-distance column of the query vertex (the
``sssp_column`` kernel) and scores every user.
Quadratic-ish and indifferent to all of the paper's optimisations — the
ground truth every algorithm is tested against, and the natural
definition of correctness for SSRQ (Definition 1).

Everything is columnar: the social column comes from one
``sssp_column`` kernel call, the spatial column from one
``euclidean_to_point`` kernel call over the whole location table, and
one ``blend`` + ``top_k_by_score`` pass selects the answer (shared with
every other column consumer via :func:`repro.social.scan.dense_scan`).

Engines that carry a :class:`~repro.social.cache.SocialColumnCache`
call :meth:`BruteForceSearch.scan` from the pipeline's column step
(:func:`repro.social.scan.column_step`), which caches the column it
returns; :meth:`~BruteForceSearch.search` stays the cache-free
reference every differential suite compares against.
"""

from __future__ import annotations

import math
import time

from repro.backend import NumpyKernels
from repro.core.ranking import Normalization, RankingFunction
from repro.core.result import SSRQResult
from repro.core.stats import SearchStats
from repro.graph.socialgraph import SocialGraph
from repro.social.scan import dense_scan
from repro.spatial.point import LocationTable
from repro.utils.validation import check_user

INF = math.inf


class BruteForceSearch:
    """Reference SSRQ processor (not part of the paper's method suite).

        >>> from repro import BruteForceSearch, SocialGraph, LocationTable, Normalization
        >>> g = SocialGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 3.0)])
        >>> loc = LocationTable.from_columns([0.0, 0.1, 0.9, 0.2], [0.0, 0.0, 0.9, 0.1])
        >>> bf = BruteForceSearch(g, loc, Normalization(p_max=4.0, d_max=1.5))
        >>> bf.search(0, k=2, alpha=0.5).users
        [1, 3]
    """

    def __init__(
        self,
        graph: SocialGraph,
        locations: LocationTable,
        normalization: Normalization,
        kernels: NumpyKernels | None = None,
    ) -> None:
        self.graph = graph
        self.locations = locations
        self.normalization = normalization
        self.kernels = kernels if kernels is not None else NumpyKernels()

    def scan(self, query_user: int, k: int, alpha: float):
        """``(result, column)``: the answer, plus the query user's full
        social column (``None`` when the ranking has no social term and
        no column was built)."""
        check_user(query_user, self.graph.n)
        stats = SearchStats()
        start = time.perf_counter()
        rank = RankingFunction(alpha, self.normalization)
        kernels = self.kernels

        if rank.needs_social:
            column = kernels.sssp_column(self.graph, query_user)
            # one per vertex a scalar expansion would have settled
            stats.pops_social = kernels.count_finite(column)
            p = column
        else:
            column = None
            p = kernels.dense_from_dict(self.graph.n, {}, INF)

        # The spatial column (inside dense_scan): distances to the query
        # point, or all-inf when the spatial term is irrelevant / the
        # query is unlocated (a NaN query point makes the kernel emit
        # inf everywhere — exactly the scalar `distance()` contract).
        neighbors, finite = dense_scan(kernels, rank, p, self.locations, query_user, k)
        stats.evaluations = stats.candidates_scored = finite
        stats.elapsed = time.perf_counter() - start
        return SSRQResult(query_user, k, alpha, neighbors, stats), column

    def search(self, query_user: int, k: int, alpha: float) -> SSRQResult:
        """Score every user."""
        return self.scan(query_user, k, alpha)[0]
