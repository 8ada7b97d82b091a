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
is then pure overhead.  Before step 1 the searcher predicts ``θ`` from
two profiles sampled once per graph, with no learned state: the social
profile ``R`` (the radius holding ``m`` users) and the sorted spatial
distances ``S`` pooled from sampled located users.  The ball holds
``m = max(8k, n/25)`` users, ``m · located share`` of them located, so
its k-th spatial neighbour sits near the quantile
``S(k / (m · located share))`` and
``θ ≈ w_social · R(m) + w_spatial · S(…)`` (in score units: at a
subnormal ``α`` the ratio of the weights overflows).  When that
reaches ``w_social`` times the radius holding all but 0.1 % of what a
source reaches, the ball is skipped: one unbounded column and one
dense scan, which is exactly the ``bruteforce`` path (and the column
is cached).  The prediction treats spatial and social distance as
independent, which overstates ``θ`` where friends live close
together; the threshold sits at the tail of
``R`` for that reason (docs/BENCHMARKS.md has the per-α
measurements).

**Why the answer is exact.**  Every label ``≤ r`` of a limited column
is final (a vertex is only reached through closer ones, all inside the
ball), so everyone inside scores bit-identically to bruteforce.  Anyone
outside has ``p > r``, hence ``score ≥ fl(w_social·p) ≥ fl(w_social·r)
> θ̂``, and at least ``k`` users inside score ``≤ θ̂`` — so no outsider
is among the ``(score, id)``-smallest ``k``, ties included.

**No social term** (``α = 0``, or an ``α`` whose social weight
underflows to 0): the same rule in space, over one k-d tree of the
located users (:class:`LocatedTree`, which a location update only
marks).  The tree proposes the query point's ``k`` nearest users;
their ``k``-th score is ``θ̂``, and the tree's ball at
``r = _radius_for(θ̂, w_spatial)`` (widened for the tree's rounding)
holds everyone who can score ``≤ θ̂``, boundary ties and ties that
underflow to 0 included.  Every candidate is re-scored with the
``sqrt(dx² + dy²)`` bruteforce uses, so the ``(score, id)`` order is
bruteforce's bit for bit.
"""

from __future__ import annotations

import math
import random
import threading
import time
from itertools import repeat

import numpy as np

from repro.backend import NumpyKernels
from repro.core.ranking import Normalization, RankingFunction
from repro.core.result import Neighbor, SSRQResult
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
#: the k-d tree is rebuilt once more than ``1/_DIRTY_SHARE`` of it is
#: dirty: ≈ 3 µs of rebuild per user dirtied (docs/BENCHMARKS.md, "α = 0
#: among moves", measures it against other shares)
_DIRTY_SHARE = 8


class LocatedTree:
    """A ``cKDTree`` over the located users, built by the first reader
    under ``lock``.  A location update only marks its user dirty
    (:meth:`mark`); a reader drops the dirty users from what the tree
    proposes and adds each one located now, so it proposes the current
    table.  Like the grid, it is derived data and never saved."""

    def __init__(self, locations: LocationTable, lock=None) -> None:
        self.locations = locations
        self._lock = lock if lock is not None else threading.Lock()
        #: ``[tree, ids, drop, moved, dirty]``: ``ids``' positions at
        #: build time, a mask of the users updated since, the first
        #: ``dirty`` of them in ``moved`` (room for as many as
        #: :meth:`refresh` keeps the tree for)
        self._built = None

    def mark(self, user: int) -> None:
        """``user`` moved, arrived or left (unlocked, like the update)."""
        built = self._built
        if built is not None and not built[2][user]:
            built[2][user] = True
            if built[4] < len(built[3]):
                built[3][built[4]] = user
            built[4] += 1

    def refresh(self) -> "tuple[int, bool]":
        """Build the tree if there is none, or again if more than an
        eighth of its users are dirty (:data:`_DIRTY_SHARE`): ``(dirty
        users found, whether it built)``."""
        built = self._built
        found = 0 if built is None else built[4]
        stale = built is None or found > len(built[3])
        if stale:
            # imported here: scipy.spatial costs ≈ 0.12 s and 8 MiB, which
            # only an α = 0 query should pay
            from scipy.spatial import cKDTree

            with self._lock:
                if self._built is built:
                    xs, ys = self.locations.columns()
                    ids = np.flatnonzero(~np.isnan(xs))
                    tree = cKDTree(np.column_stack((xs[ids], ys[ids])))
                    moved = np.empty(len(ids) // _DIRTY_SHARE, np.intp)
                    self._built = [tree, ids, np.zeros(len(xs), bool), moved, 0]
        return found, stale

    def near(self, x: float, y: float, user: int, count=None, radius=None) -> np.ndarray:
        """The users located now, ``user`` excepted, who may lie nearest
        ``(x, y)``: the clean ones among the tree's ``count + 1``
        nearest, or every clean one within ``radius`` (``inf``: all),
        and every dirty user located now.  :meth:`refresh` first.  The
        tree compares squared distances, so the ball's square is
        widened past ``radius²`` by a relative 2**-43 and four subnormal
        ulps, for its rounding."""
        tree, ids, drop, moved, dirty = self._built
        moved = moved[:dirty]
        moved = moved[~np.isnan(self.locations.xs[moved])]
        if radius is None:
            found = np.atleast_1d(tree.query((x, y), min(count + 1, len(ids)))[1])
        else:
            ball = math.sqrt(radius * radius * (1 + 2**-43) + 2**-1072)
            found = np.asarray(tree.query_ball_point((x, y), ball), np.intp)
        found = ids[found]
        here = np.concatenate((found[~drop[found]], moved))
        return here[here != user]


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
        >>> bounded.search(0, k=2, alpha=0.0).users
        [1, 3]

    ``tree`` is the k-d tree ``α = 0`` reads: the engine's, which its
    location updates mark.  Without one, each ``α = 0`` query builds a
    tree of its own from the table as it is then.
    """

    def __init__(
        self,
        graph: SocialGraph,
        locations: LocationTable,
        normalization: Normalization,
        kernels: NumpyKernels | None = None,
        tree: LocatedTree | None = None,
    ) -> None:
        self.graph = graph
        self.locations = locations
        self.normalization = normalization
        self.kernels = kernels if kernels is not None else NumpyKernels()
        self.tree = tree
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
            sources = np.flatnonzero(np.diff(graph.indptr))
            columns = [
                kernels.sssp_column(graph, rng.choice(sources))
                for _ in range(_PROFILE_SOURCES if len(sources) else 0)
            ]
            locations = self.locations
            xs, ys = locations.columns()
            located = np.flatnonzero(~np.isnan(xs))
            distances = [
                kernels.euclidean_to_point(xs, ys, *locations.get(rng.choice(located)))
                for _ in range(_PROFILE_SOURCES if len(located) else 0)
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
        k = min(k, self.graph.n)  # a k past n predicts as n: k / (m * share) must fit a float
        m = max(8 * k, self.graph.n // 25)
        radius = self._radius_holding(m)
        # in score units (module docstring)
        predicted = rank.w_social * radius
        if rank.needs_spatial:
            if not len(spatial):
                return INF  # nobody located: no finite score in any ball
            at = math.ceil(k / (m * share) * len(spatial)) - 1
            predicted += rank.w_spatial * spatial[min(at, len(spatial) - 1)]
        whole = self._radius_holding(max(1, int(_WHOLE_GRAPH * len(social))))
        return INF if predicted >= rank.w_social * whole else radius

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
        rank = RankingFunction(alpha, self.normalization)
        kernels = self.kernels
        stats = SearchStats()
        start = time.perf_counter()
        if not rank.needs_social:
            neighbors = self._nearest(query_user, k, rank, stats)
            stats.elapsed = time.perf_counter() - start
            return SSRQResult(query_user, k, alpha, neighbors, stats), None
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

    def _nearest(self, query_user: int, k: int, rank: RankingFunction, stats) -> list:
        """The answer without a social term, off the k-d tree (module
        docstring).  An unlocated query user has no finite score."""
        where = self.locations.get(query_user)
        if where is None:
            return []
        tree = self.tree if self.tree is not None else LocatedTree(self.locations)
        kernels, w = self.kernels, rank.w_spatial
        xs, ys = self.locations.columns()
        found, rebuilt = tree.refresh()
        stats.extra["tree_dirty"] = found
        stats.extra["tree_rebuilt"] = int(rebuilt)

        def scored(ids):
            d = kernels.euclidean_to_point(xs, ys, *where, ids=ids)
            return d, kernels.blend(0.0, w, None, d)

        ids = tree.near(*where, query_user, count=k)
        d, scores = scored(ids)
        # fewer than k candidates bound nothing: the ball is everyone
        theta = float(np.partition(scores, k - 1)[k - 1]) if len(ids) >= k else INF
        ids = tree.near(*where, query_user, radius=self._radius_for(theta, w))
        d, scores = scored(ids)
        stats.evaluations = stats.candidates_scored = len(ids)
        top = kernels.top_k_by_score(scores, ids, k)
        return list(
            map(Neighbor, ids[top].tolist(), scores[top].tolist(), repeat(INF), d[top].tolist())
        )

    def search(self, query_user: int, k: int, alpha: float) -> SSRQResult:
        """Answer the query (uniform searcher signature)."""
        return self.scan(query_user, k, alpha)[0]
