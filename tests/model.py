"""A scalar model of Definition 1: the whole-query oracle.

The paper's SSRQ (Definition 1) ranks every user ``u_i != u_q`` by

    f(u_q, u_i) = α · p(v_q, v_i)/P_max + (1 − α) · d(u_q, u_i)/D_max

and returns the ``k`` smallest.  :class:`Model` writes that down as
plainly as it goes: the social graph is a dict of edges, the locations
a dict of points, ``p`` comes from its own ``heapq`` Dijkstra over the
edge dict and ``d`` is ``sqrt(dx*dx + dy*dy)`` on Python floats.  It
shares with the engine only what Definition 1 leaves to the
implementation:

- the float association of :class:`~repro.core.ranking.RankingFunction`
  (the weights pre-divided by the normalisers; a zero-weight term adds
  exactly 0, even at ``inf``), so a correct engine's scores are
  bit-equal to the model's;
- the normalisers themselves: an engine estimates them once and keeps
  them through moves and rebuilds, except that a rebuild re-estimates
  one that is 0 (:meth:`Model.rebuild` calls the same
  ``Normalization.estimate`` on its edges and locations);
- the ``(score, id)`` order, and bruteforce's exclusions: the query user
  and every infinite score.

It also carries what the serving layer adds around Definition 1: edge
updates are recorded and change no answer until :meth:`Model.rebuild`,
exactly as ``QueryService.update_edge`` / ``rebuild_engine`` behave; a
snapshot is :meth:`Model.copy`, which drops the recorded updates as a
restore does; and a query user without a location is answerable only
at ``α = 1``.
"""

from __future__ import annotations

import heapq
import math

from repro.core.ranking import Normalization, RankingFunction
from repro.graph.socialgraph import SocialGraph
from repro.spatial.point import LocationTable

INF = math.inf

__all__ = ["Model"]


class Model:
    """Definition 1 over a dict of edges and a dict of locations.

        >>> from repro import Normalization
        >>> model = Model(3, {(0, 1): 1.0, (1, 2): 1.0}, {0: (0.0, 0.0), 2: (0.0, 1.0)},
        ...               Normalization(p_max=2.0, d_max=1.0))
        >>> model.answer(0, k=5, alpha=0.5)
        [(2, 1.0)]
        >>> model.answer(0, k=5, alpha=1.0)
        [(1, 0.5), (2, 1.0)]
    """

    def __init__(
        self,
        n: int,
        edges: "dict[tuple[int, int], float]",
        locations: "dict[int, tuple[float, float]]",
        normalization: Normalization,
        directed: bool = False,
        seed: int = 0,
    ) -> None:
        self.n = n
        self.directed = directed
        #: the engine's seed, which a re-estimate's diameter sweeps draw from
        self.seed = seed
        #: the served edge set: ``(u, v) -> weight`` (``u < v`` when
        #: undirected)
        self.edges = dict(edges)
        #: edge updates recorded since the last rebuild: ``key -> weight``,
        #: ``None`` = delete
        self.pending: "dict[tuple[int, int], float | None]" = {}
        self.locations = dict(locations)
        self.normalization = normalization
        #: ``social_distances`` per source, until the edges change
        self._columns: "dict[int, dict[int, float]]" = {}

    @classmethod
    def of_engine(cls, engine) -> "Model":
        """The model of what ``engine`` serves: its graph's edges, its
        located users, its normalisers and its seed."""
        graph = engine.graph
        edges = {(u, v): w for u, v, w in graph.edges()}
        located = {u: engine.locations.get(u) for u in engine.locations.located_users()}
        return cls(graph.n, edges, located, engine.normalization, graph.directed, engine.seed)

    def copy(self) -> "Model":
        """What this model serves now, as a snapshot holds it: the
        served edges and the current locations, without the recorded
        edge updates (a restore discards them)."""
        return Model(
            self.n, self.edges, self.locations, self.normalization, self.directed, self.seed
        )

    # -- updates ------------------------------------------------------

    def key(self, u: int, v: int) -> "tuple[int, int]":
        return (u, v) if self.directed or u < v else (v, u)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``(u, v)`` exists once the recorded updates land."""
        key = self.key(u, v)
        if key in self.pending:
            return self.pending[key] is not None
        return key in self.edges

    def update_edge(self, u: int, v: int, weight: "float | None") -> None:
        self.pending[self.key(u, v)] = weight

    def rebuild(self) -> None:
        """Fold the recorded updates in, and re-estimate a normaliser of
        0 over the new edges and the current locations."""
        if self.pending:
            self._columns.clear()
        for key, weight in self.pending.items():
            if weight is None:
                self.edges.pop(key, None)
            else:
                self.edges[key] = weight
        self.pending.clear()
        norm = self.normalization
        if 0.0 in (norm.p_max, norm.d_max):
            graph = SocialGraph.from_edges(
                self.n, [(u, v, w) for (u, v), w in self.edges.items()], directed=self.directed
            )
            fresh = Normalization.estimate(
                graph, LocationTable.from_dict(self.n, self.locations), seed=self.seed
            )
            self.normalization = Normalization(
                norm.p_max or fresh.p_max, norm.d_max or fresh.d_max
            )

    # -- Definition 1 -------------------------------------------------

    def social_distances(self, source: int) -> "dict[int, float]":
        """``p(source, v)`` for every ``v`` the served edges reach."""
        if source in self._columns:
            return self._columns[source]
        adjacency: "dict[int, list[tuple[int, float]]]" = {}
        for (u, v), w in self.edges.items():
            adjacency.setdefault(u, []).append((v, w))
            if not self.directed:
                adjacency.setdefault(v, []).append((u, w))
        settled: "dict[int, float]" = {}
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if u in settled:
                continue
            settled[u] = d
            for v, w in adjacency.get(u, ()):
                if v not in settled:
                    heapq.heappush(heap, (d + w, v))
        self._columns[source] = settled
        return settled

    def distance(self, u: int, v: int) -> float:
        """``d(u, v)``; ``inf`` when either location is unknown."""
        a, b = self.locations.get(u), self.locations.get(v)
        if a is None or b is None:
            return INF
        dx = a[0] - b[0]
        dy = a[1] - b[1]
        return math.sqrt(dx * dx + dy * dy)

    def rows(self, user: int, k: int, alpha: float) -> "list[tuple[int, float, float, float]]":
        """The answer as ``(user, score, social, spatial)`` rows, with
        bruteforce's ``Neighbor`` conventions: a term the ranking does
        not use reads ``inf``.  Inside the input domain every score is
        finite unless a distance it uses is infinite (asserted)."""
        if alpha < 1.0 and user not in self.locations:
            raise ValueError(f"query user {user} has no known location")
        rank = RankingFunction(alpha, self.normalization)
        social = self.social_distances(user) if rank.needs_social else {}
        ranked = []
        for v in range(self.n):
            if v == user:
                continue
            p = social.get(v, INF)
            d = self.distance(user, v) if rank.needs_spatial else INF
            score = rank.score(p, d)
            used = (p if rank.needs_social else 0.0, d if rank.needs_spatial else 0.0)
            assert score < INF or INF in used, f"f({user}, {v}) overflowed: p={p}, d={d}"
            if score != INF:
                ranked.append((score, v, p, d))
        ranked.sort()
        return [(v, score, p, d) for score, v, p, d in ranked[:k]]

    def answer(self, user: int, k: int, alpha: float) -> "list[tuple[int, float]]":
        """The top-``k`` ``(user, score)`` pairs in ``(score, id)`` order."""
        return [(v, score) for v, score, _, _ in self.rows(user, k, alpha)]
