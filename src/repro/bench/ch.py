"""Contraction Hierarchies (CH) — the comparator of Figure 8.

The paper compares its incremental-Dijkstra distance modules against the
state-of-the-art pre-computation technique CH (its reference [44]) and
finds CH *slower* on social networks, because (i) CH favours low-degree,
near-planar graphs and (ii) the paper's methods share one incremental
search across all distance computations from ``v_q``.  Reproducing that
comparison requires an actual CH implementation, provided here; the
``*-ch`` variants of :mod:`repro.bench.variants` plug it into SFA, SPA
and TSA as their point-to-point distance module.

**Preprocessing** contracts vertices in importance order (lazy
priorities: edge-difference estimate + deleted neighbours, refreshed
only when a neighbour was contracted since the last evaluation),
inserting shortcuts whenever a limited *witness search* cannot prove a
bypass exists.  Limited witness searches only ever add extra shortcuts,
never omit needed ones, so correctness is preserved.

**Core.**  Social networks densify catastrophically toward the end of
contraction — hub vertices accumulate shortcuts until every contraction
is quadratic.  Following the standard *core-CH* construction, vertices
whose remaining degree exceeds ``core_degree_limit`` are never
contracted; they form an uncontracted top *core* in which both query
searches may travel freely.  This keeps preprocessing near-linear while
remaining exact — and it faithfully exposes why CH degenerates on such
graphs: queries decay toward a Dijkstra over the dense core.

**Query.**  SSRQ evaluation asks for many targets from the *same*
source (the query vertex), so the hierarchy memoises the last source's
complete upward search space and answers each target with a backward
upward search only, pruned by the best meeting found so far.  Upward
edges lead to higher-ranked vertices, and core vertices (all of maximal
rank) keep their full remaining adjacency, so the searches can meet
anywhere on the peak of an up-(core-)down path.  The hierarchy counts
the heap pops of both searches in :attr:`ContractionHierarchy.pops`.
"""

from __future__ import annotations

import heapq
import math

from repro.graph.socialgraph import SocialGraph
from repro.utils.rng import make_rng

INF = math.inf

#: neighbour pairs a priority evaluation checks before it samples
_PRIORITY_SAMPLE = 40
#: seed of the pair sampling
_SEED = 0


def _adjacency(graph: SocialGraph) -> list[dict[int, float]]:
    """Mutable adjacency dicts of ``graph``, which contraction edits."""
    return [dict(graph.neighbors(u)) for u in range(graph.n)]


def _witness_search(
    adj: list[dict[int, float]],
    source: int,
    excluded: int,
    targets: set[int],
    cutoff: float,
    settle_limit: int,
) -> dict[int, float]:
    """Limited Dijkstra from ``source`` over the remaining graph,
    never entering ``excluded``; returns settled distances for vertices
    in ``targets`` (possibly incomplete — callers treat absence as
    'no witness found')."""
    dist = {source: 0.0}
    heap = [(0.0, source)]
    settled: set[int] = set()
    found: dict[int, float] = {}
    remaining = len(targets)
    budget = settle_limit
    while heap and remaining > 0 and budget > 0:
        d, x = heapq.heappop(heap)
        if x in settled:
            continue
        settled.add(x)
        budget -= 1
        if x in targets:
            found[x] = d
            remaining -= 1
        if d > cutoff:
            break
        for y, w in adj[x].items():
            if y == excluded or y in settled:
                continue
            nd = d + w
            if nd <= cutoff and nd < dist.get(y, INF):
                dist[y] = nd
                heapq.heappush(heap, (nd, y))
    return found


class ContractionHierarchy:
    """Preprocessed hierarchy answering exact distances from one source
    at a time."""

    __slots__ = ("n", "rank", "upward", "num_shortcuts", "core_size", "pops", "_source", "_forward")

    def __init__(
        self,
        n: int,
        rank: list[int],
        upward: list[list[tuple[int, float]]],
        num_shortcuts: int,
        core_size: int,
    ) -> None:
        self.n = n
        #: contraction order (0 = contracted first; core vertices share
        #: the maximal rank ``n``)
        self.rank = rank
        #: upward adjacency: edges toward weakly-higher-ranked vertices
        self.upward = upward
        self.num_shortcuts = num_shortcuts
        #: number of uncontracted (core) vertices
        self.core_size = core_size
        #: heap pops of every query so far (searchers read the change
        #: across one query)
        self.pops = 0
        self._source: int | None = None
        self._forward: dict[int, float] = {}

    # -- preprocessing -----------------------------------------------------

    @classmethod
    def build(
        cls,
        graph: SocialGraph,
        witness_settle_limit: int = 40,
        core_degree_limit: int = 48,
    ) -> "ContractionHierarchy":
        """Contract the graph bottom-up.  Undirected graphs only (the
        paper's setting).

        ``core_degree_limit`` bounds the remaining degree at which a
        vertex is still contracted; set it to ``n`` to force full
        contraction (tiny graphs / tests).
        """
        if graph.directed:
            raise NotImplementedError("CH preprocessing implemented for undirected graphs")
        n = graph.n
        rng = make_rng(_SEED)
        adj = _adjacency(graph)
        rank = [n] * n  # default: core tier
        upward: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        deleted_neighbors = [0] * n
        version = [0] * n  # bumped when a neighbour contracts
        num_shortcuts = 0

        def priority(v: int) -> float:
            """Edge difference (sampled above ``_PRIORITY_SAMPLE`` pairs)
            plus deleted-neighbour tie-breaking."""
            nbrs = list(adj[v])
            deg = len(nbrs)
            pairs = deg * (deg - 1) // 2
            if pairs == 0:
                missing = 0
            elif pairs <= _PRIORITY_SAMPLE:
                missing = 0
                for i, u in enumerate(nbrs):
                    au = adj[u]
                    for w in nbrs[i + 1 :]:
                        if w not in au:
                            missing += 1
            else:
                hits = 0
                for _ in range(_PRIORITY_SAMPLE):
                    u, w = rng.sample(nbrs, 2)
                    if w not in adj[u]:
                        hits += 1
                missing = hits * pairs // _PRIORITY_SAMPLE
            return (missing - deg) + 2.0 * deleted_neighbors[v]

        heap = [(priority(v), version[v], v) for v in range(n)]
        heapq.heapify(heap)
        order = 0
        contracted = [False] * n
        while heap:
            p, ver, v = heapq.heappop(heap)
            if contracted[v]:
                continue
            if ver != version[v]:
                # A neighbour contracted since evaluation: refresh lazily.
                heapq.heappush(heap, (priority(v), version[v], v))
                continue
            nbrs = sorted(adj[v].items())
            if len(nbrs) > core_degree_limit:
                continue  # joins the core: never contracted, never re-pushed
            # Contract v.
            contracted[v] = True
            rank[v] = order
            order += 1
            upward[v] = [(u, w) for u, w in nbrs]
            for u, _ in nbrs:
                del adj[u][v]
                deleted_neighbors[u] += 1
                version[u] += 1
            for i, (u, wu) in enumerate(nbrs):
                rest = nbrs[i + 1 :]
                if not rest:
                    continue
                targets = {w for w, _ in rest}
                cutoff = wu + max(ww for _, ww in rest)
                witness = _witness_search(adj, u, v, targets, cutoff, witness_settle_limit)
                au = adj[u]
                for w, ww in rest:
                    via = wu + ww
                    if witness.get(w, INF) <= via:
                        continue  # a bypass at most as long exists
                    old = au.get(w)
                    if old is None or via < old:
                        if old is None:
                            num_shortcuts += 1
                        au[w] = via
                        adj[w][u] = via
            adj[v].clear()

        # Core vertices keep their full remaining adjacency (traversable
        # by both searches: all core edges are weakly upward).
        core_size = 0
        for v in range(n):
            if not contracted[v]:
                core_size += 1
                upward[v] = sorted(adj[v].items())
        return cls(n, rank, upward, num_shortcuts, core_size)

    # -- queries --------------------------------------------------------------

    def _upward_distances(self, source: int) -> dict[int, float]:
        """Complete upward search space of ``source``: every vertex
        reachable by weakly-rank-increasing edges, with its distance."""
        upward = self.upward
        dist: dict[int, float] = {source: 0.0}
        settled: set[int] = set()
        hp = [(0.0, source)]
        pops = 0
        while hp:
            d, v = heapq.heappop(hp)
            pops += 1
            if v in settled:
                continue
            settled.add(v)
            for u, w in upward[v]:
                nd = d + w
                if nd < dist.get(u, INF):
                    dist[u] = nd
                    heapq.heappush(hp, (nd, u))
        self.pops += pops
        return dist

    def distance(self, source: int, target: int) -> float:
        """Exact graph distance from ``source`` to ``target``: the upward
        search space of ``source`` is computed once per change of source,
        then only the backward upward search from ``target`` runs."""
        if source != self._source:
            self._forward = self._upward_distances(source)
            self._source = source
        if source == target:
            return 0.0
        forward = self._forward
        upward = self.upward
        best = forward.get(target, INF)
        dist_b: dict[int, float] = {target: 0.0}
        settled: set[int] = set()
        hp = [(0.0, target)]
        pops = 0
        while hp:
            key = hp[0][0]
            if best <= key:
                break
            d, v = heapq.heappop(hp)
            pops += 1
            if v in settled:
                continue
            settled.add(v)
            fv = forward.get(v)
            if fv is not None and d + fv < best:
                best = d + fv
            for u, w in upward[v]:
                nd = d + w
                if nd < dist_b.get(u, INF) and nd < best:
                    dist_b[u] = nd
                    heapq.heappush(hp, (nd, u))
        self.pops += pops
        return best
