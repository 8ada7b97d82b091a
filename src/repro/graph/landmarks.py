"""Landmark selection and ALT distance tables.

Landmarks (Goldberg & Harrelson, the paper's reference [25]) are a small
set of vertices with pre-computed distances to every vertex.  By the
triangle inequality, for any landmark ``l``::

    p(u, v) >= |p(l, u) - p(l, v)|          (lower bound)
    p(u, v) <= p(l, u) + p(l, v)            (upper bound)

The tightest bound over all landmarks drives A* search, TSA's candidate
pruning, per-user bounds in the AIS heap, and — aggregated per cell via
min/max vectors — the social summaries of the AIS index (Section 5.1).

The paper fine-tunes the number of landmarks to ``M = 8``.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as _np

from repro.backend import resolve_backend
from repro.graph.socialgraph import SocialGraph
from repro.utils.rng import make_rng

INF = math.inf

#: the landmark selection strategies :func:`select_landmarks` knows
LANDMARK_STRATEGIES = ("farthest", "random", "degree")


def _distance_row(graph: SocialGraph, landmark: int) -> list[float]:
    """Distances from ``landmark`` to every vertex (``inf`` when
    unreachable), as a flat list indexed by vertex id — one
    ``sssp_column`` kernel call (bit-identical on both backends)."""
    column = resolve_backend().sssp_column(graph, landmark)
    return column if isinstance(column, list) else column.tolist()


def select_landmarks(
    graph: SocialGraph,
    m: int,
    strategy: str = "farthest",
    seed: int = 0,
) -> list[int]:
    """Choose ``m`` landmark vertices.

    Strategies:

    - ``"farthest"`` (default, per [25]): greedy k-center — start from
      the highest-degree vertex and repeatedly add the vertex maximising
      the minimum distance to the chosen set (restricted to reachable
      vertices, so landmarks stay in the giant component).
    - ``"random"``: uniform sample.
    - ``"degree"``: the ``m`` highest-degree vertices (hub landmarks).
    """
    return _select(graph, m, strategy, seed)[0]


def _select(
    graph: SocialGraph, m: int, strategy: str, seed: int
) -> "tuple[list[int], list[list[float]] | None]":
    """:func:`select_landmarks` plus, for the strategy that expands
    from every vertex it picks, the distance rows those expansions
    produced (aligned with the returned landmarks; ``None`` otherwise)
    — so :meth:`LandmarkIndex.build` does not expand from them again."""
    if m < 1:
        raise ValueError(f"need at least one landmark, got {m}")
    if m > graph.n:
        raise ValueError(f"cannot select {m} landmarks from {graph.n} vertices")

    if strategy == "random":
        rng = make_rng(seed)
        return sorted(rng.sample(range(graph.n), m)), None

    degrees = _np.diff(graph.indptr)
    if strategy == "degree":
        # highest degree first, ties to the smaller id
        return sorted(_np.argsort(-degrees, kind="stable")[:m].tolist()), None

    if strategy != "farthest":
        raise ValueError(f"unknown landmark strategy {strategy!r}")

    start = int(_np.argmax(degrees))  # the first vertex of maximum degree
    rows = {start: _distance_row(graph, start)}
    min_dist = list(rows[start])
    for _ in range(m - 1):
        candidate = -1
        candidate_d = -1.0
        for v, d in enumerate(min_dist):
            if d != INF and d > candidate_d and v not in rows:
                candidate = v
                candidate_d = d
        if candidate < 0:
            # Graph smaller/more disconnected than m: fall back to any
            # not-yet-chosen vertex.
            candidate = next(v for v in range(graph.n) if v not in rows)
        row = rows[candidate] = _distance_row(graph, candidate)
        for v, d in enumerate(row):
            if d < min_dist[v]:
                min_dist[v] = d
    chosen = sorted(rows)
    return chosen, [rows[v] for v in chosen]


class LandmarkIndex:
    """Pre-computed landmark distance tables with bound queries.

    ``dist[j][v]`` is the graph distance between the ``j``-th landmark
    and vertex ``v`` (``m_vj`` in the paper's notation).  For directed
    graphs two tables are kept (to/from each landmark); for undirected
    graphs they coincide.

    Storage is columnar: the rows of :attr:`dist` are views into one
    contiguous ``(n_landmarks, n_users)`` float64 matrix
    (:attr:`matrix`), so scalar row access and the vectorized ALT-bound
    kernels of :mod:`repro.backend` always observe the same numbers.
    """

    __slots__ = ("graph", "landmarks", "dist", "dist_rev", "_matrix", "_matrix_rev")

    def __init__(
        self,
        graph: SocialGraph,
        landmarks: Sequence[int],
        rows: "list[list[float]] | None" = None,
    ) -> None:
        self.graph = graph
        self.landmarks = list(landmarks)
        if rows is None:  # else: the forward rows, already expanded
            rows = [_distance_row(graph, l) for l in self.landmarks]
        #: distances landmark -> v (== v -> landmark for undirected)
        self.dist: list = self._adopt_rows(rows, "_matrix", graph.n)
        if graph.directed:
            rev = graph.reverse()
            rev_rows = [_distance_row(rev, l) for l in self.landmarks]
            self.dist_rev = self._adopt_rows(rev_rows, "_matrix_rev", graph.n)
        else:
            self.dist_rev = self.dist
            self._matrix_rev = self._matrix

    def _adopt_rows(self, rows: list[list[float]], attr: str, n: int) -> list:
        """Store ``rows`` behind ``attr`` as a contiguous matrix and
        return per-landmark row *views* of it."""
        matrix = (
            _np.array(rows, dtype=_np.float64) if rows else _np.empty((0, n))
        )
        setattr(self, attr, matrix)
        return [matrix[j] for j in range(matrix.shape[0])]

    @property
    def matrix(self):
        """The ``(n_landmarks, n_users)`` float64 distance matrix (the
        columnar form of :attr:`dist`, whose rows are views into it)."""
        return self._matrix

    @property
    def matrix_rev(self):
        """Reverse-orientation matrix (``is matrix`` for undirected
        graphs)."""
        return self._matrix_rev

    @classmethod
    def build(
        cls,
        graph: SocialGraph,
        m: int = 8,
        strategy: str = "farthest",
        seed: int = 0,
    ) -> "LandmarkIndex":
        return cls(graph, *_select(graph, m, strategy, seed))

    @property
    def m(self) -> int:
        """Number of landmarks (``M`` in the paper)."""
        return len(self.landmarks)

    def vector(self, v: int) -> tuple[float, ...]:
        """Landmark distance vector of vertex ``v`` (``m_v*``)."""
        return tuple(row[v] for row in self.dist)

    def lower_bound(self, u: int, v: int) -> float:
        """Tightest triangle-inequality lower bound on ``p(u, v)``.

        Undirected graphs use ``|p(l,u) − p(l,v)|``.  Directed graphs
        need the orientation-aware forms ``p(l→v) − p(l→u)`` and
        ``p(u→l) − p(v→l)`` (the symmetric difference is *not* valid).

        Infinite table entries encode disconnection and are handled so
        that the bound stays valid: if exactly one of ``u, v`` reaches a
        landmark, they are in different components and the bound is
        ``inf`` (undirected only); if neither does, that landmark is
        uninformative.
        """
        best = 0.0
        if not self.graph.directed:
            for row in self.dist:
                a = row[u]
                b = row[v]
                if a == b:
                    continue  # also covers inf == inf
                if a == INF or b == INF:
                    return INF
                diff = a - b if a > b else b - a
                if diff > best:
                    best = diff
            return best
        for fwd, rev in zip(self.dist, self.dist_rev):
            # p(u, v) >= p(l -> v) - p(l -> u)
            a, b = fwd[v], fwd[u]
            if a != b and b != INF:
                diff = a - b
                if diff > best:
                    best = diff
            # p(u, v) >= p(u -> l) - p(v -> l)
            a, b = rev[u], rev[v]
            if a != b and b != INF:
                diff = a - b
                if diff > best:
                    best = diff
        return best

    def upper_bound(self, u: int, v: int) -> float:
        """Tightest triangle-inequality upper bound on ``p(u, v)``."""
        best = INF
        for row in self.dist:
            s = row[u] + row[v]
            if s < best:
                best = s
        return best

    def heuristic_to(self, target: int) -> Callable[[int], float]:
        """Admissible, consistent A* heuristic estimating ``p(v, target)``.

        The target's landmark vector is captured once, so per-vertex
        evaluation is a tight loop over ``M`` floats.  Directed graphs
        use the orientation-aware ALT potentials.
        """
        rows = self.dist
        target_vec = [row[target] for row in rows]
        if self.graph.directed:
            rev_rows = self.dist_rev
            target_rev = [row[target] for row in rev_rows]

            def h_directed(v: int) -> float:
                best = 0.0
                for j, row in enumerate(rows):
                    # p(v, t) >= p(l -> t) - p(l -> v)
                    b = row[v]
                    if b != INF:
                        diff = target_vec[j] - b
                        if diff > best:
                            best = diff
                    # p(v, t) >= p(v -> l) - p(t -> l)
                    b = target_rev[j]
                    if b != INF:
                        diff = rev_rows[j][v] - b
                        if diff > best:
                            best = diff
                return best

            return h_directed

        def h(v: int) -> float:
            best = 0.0
            for j, row in enumerate(rows):
                a = row[v]
                b = target_vec[j]
                if a == b:
                    continue
                if a == INF or b == INF:
                    return INF
                diff = a - b if a > b else b - a
                if diff > best:
                    best = diff
            return best

        return h

    def max_finite_distance(self) -> float:
        """Largest finite table entry — a cheap lower bound on the graph
        diameter, used as a sanity fallback for ``P_max``."""
        finite = self._matrix[_np.isfinite(self._matrix)]
        return float(finite.max()) if finite.size else 0.0
