"""Weighted social graph in compressed sparse row (CSR) form.

The paper's setting (Section 3): an undirected graph ``G = (V, E)`` with
one vertex per user and positive edge weights encoding friendship
strength (smaller weight = stronger tie).  The work "extends to directed
graphs easily", and so does this class.

CSR keeps the three flat arrays ``indptr``, ``nbrs`` and ``wts``; the
out-neighbourhood of vertex ``v`` is
``nbrs[indptr[v]:indptr[v+1]]`` / ``wts[indptr[v]:indptr[v+1]]``.
Flat Python lists are the fastest random-access container available to
the *incremental* searchers' pure-Python Dijkstra loops (SFA's stream,
TSA's interleave, AIS's forward search), which settle a few vertices at
a time.  A *full* expansion does not run here: it is the
``sssp_column`` kernel of :mod:`repro.backend`, which parks an array
form of the same CSR on the graph the first time it is asked — this
module itself imports neither NumPy nor SciPy.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping, Sequence


class SocialGraph:
    """Immutable weighted graph over vertices ``0..n-1``.

    Parallel edges are collapsed to the smallest weight at construction;
    self-loops are rejected (they can never appear on a shortest path
    with positive weights and the paper's friendship semantics exclude
    them).

        >>> from repro import SocialGraph
        >>> g = SocialGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 3.0)])
        >>> g.n, g.num_edges, g.degree(0)
        (4, 3, 2)
        >>> sorted(g.neighbors(0))
        [(1, 1.0), (3, 3.0)]
    """

    __slots__ = (
        "n", "indptr", "nbrs", "wts", "directed", "_num_edges", "_reverse", "_csr",
    )

    def __init__(
        self,
        n: int,
        indptr: list[int],
        nbrs: list[int],
        wts: list[float],
        directed: bool = False,
        _num_edges: int | None = None,
    ) -> None:
        if len(indptr) != n + 1:
            raise ValueError("indptr must have length n + 1")
        if len(nbrs) != len(wts):
            raise ValueError("nbrs and wts must have equal length")
        self.n = n
        self.indptr = indptr
        self.nbrs = nbrs
        self.wts = wts
        self.directed = directed
        if _num_edges is None:
            _num_edges = len(nbrs) if directed else len(nbrs) // 2
        self._num_edges = _num_edges
        self._reverse: "SocialGraph | None" = None
        #: array form of the CSR, built and owned by the backend kernel
        #: that runs full expansions over it
        #: (:meth:`~repro.backend.base.Kernels.sssp_column`)
        self._csr = None

    # -- construction ---------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int, float]],
        directed: bool = False,
    ) -> "SocialGraph":
        """Build from ``(u, v, weight)`` triples.

        For undirected graphs each input edge is stored in both
        directions.  Duplicate edges keep the minimum weight.
        """
        best: dict[tuple[int, int], float] = {}
        for u, v, w in edges:
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            if not 0 <= u < n or not 0 <= v < n:
                raise ValueError(f"edge ({u}, {v}) out of range [0, {n})")
            if w <= 0 or not math.isfinite(w):
                raise ValueError(f"edge ({u}, {v}) has non-positive weight {w}")
            if not directed and u > v:
                u, v = v, u
            key = (u, v)
            old = best.get(key)
            if old is None or w < old:
                best[key] = w

        counts = [0] * (n + 1)
        for u, v in best:
            counts[u + 1] += 1
            if not directed:
                counts[v + 1] += 1
        indptr = counts
        for i in range(1, n + 1):
            indptr[i] += indptr[i - 1]
        m = indptr[n]
        nbrs = [0] * m
        wts = [0.0] * m
        cursor = list(indptr[:n])
        for (u, v), w in best.items():
            nbrs[cursor[u]] = v
            wts[cursor[u]] = w
            cursor[u] += 1
            if not directed:
                nbrs[cursor[v]] = u
                wts[cursor[v]] = w
                cursor[v] += 1
        return cls(n, indptr, nbrs, wts, directed, _num_edges=len(best))

    @classmethod
    def from_csr(
        cls,
        n: int,
        indptr: Sequence[int],
        nbrs: Sequence[int],
        wts: Sequence[float],
        directed: bool = False,
        num_edges: int | None = None,
    ) -> "SocialGraph":
        """Re-adopt already-built CSR columns (the persistence path of
        :mod:`repro.store`): no edge collapsing or re-sorting, just
        structural validation of the three arrays.

        Unlike :meth:`from_edges`, the input is trusted to be a valid
        CSR image produced by this class — but since the columns may
        come from disk, the cheap invariants (monotone ``indptr``,
        neighbour ids in range, positive finite weights) are checked so
        a corrupted file fails loudly instead of corrupting a search.

            >>> from repro import SocialGraph
            >>> g = SocialGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)])
            >>> clone = SocialGraph.from_csr(
            ...     g.n, list(g.indptr), list(g.nbrs), list(g.wts))
            >>> clone.num_edges, sorted(clone.neighbors(1))
            (2, [(0, 1.0), (2, 2.0)])
        """
        indptr = list(indptr)
        nbrs = list(nbrs)
        wts = list(wts)
        if len(indptr) != n + 1 or indptr[0] != 0 or indptr[n] != len(nbrs):
            raise ValueError(
                f"CSR indptr inconsistent: len={len(indptr)} (need {n + 1}), "
                f"first={indptr[:1]}, last={indptr[-1:]} vs {len(nbrs)} entries"
            )
        if any(a > b for a, b in zip(indptr, indptr[1:])):
            raise ValueError("CSR indptr must be non-decreasing")
        if any(not 0 <= v < n for v in nbrs):
            raise ValueError(f"CSR neighbour id out of range [0, {n})")
        if any(w <= 0 or not math.isfinite(w) for w in wts):
            raise ValueError("CSR edge weights must be positive and finite")
        return cls(n, indptr, nbrs, wts, directed, _num_edges=num_edges)

    @classmethod
    def from_adjacency(
        cls, adjacency: Sequence[dict[int, float]], directed: bool = False
    ) -> "SocialGraph":
        """Build from a list of ``{neighbor: weight}`` dicts."""
        n = len(adjacency)
        edges = []
        for u, nbrs in enumerate(adjacency):
            for v, w in nbrs.items():
                if directed or u < v:
                    edges.append((u, v, w))
                elif v not in range(n) or u not in adjacency[v]:
                    raise ValueError(f"undirected adjacency asymmetric at ({u}, {v})")
        return cls.from_edges(n, edges, directed)

    # -- accessors --------------------------------------------------------

    @property
    def num_edges(self) -> int:
        """Number of (undirected) edges."""
        return self._num_edges

    def degree(self, v: int) -> int:
        """Out-degree of ``v`` (== degree for undirected graphs)."""
        return self.indptr[v + 1] - self.indptr[v]

    @property
    def average_degree(self) -> float:
        if self.n == 0:
            return 0.0
        return len(self.nbrs) / self.n if self.directed else 2.0 * self._num_edges / self.n

    @property
    def max_degree(self) -> int:
        return max((self.degree(v) for v in range(self.n)), default=0)

    def neighbors(self, v: int) -> Iterator[tuple[int, float]]:
        """Iterate ``(neighbor, weight)`` pairs of ``v``."""
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return zip(self.nbrs[lo:hi], self.wts[lo:hi])

    def has_edge(self, u: int, v: int) -> bool:
        lo, hi = self.indptr[u], self.indptr[u + 1]
        return v in self.nbrs[lo:hi]

    def edge_weight(self, u: int, v: int) -> float | None:
        lo, hi = self.indptr[u], self.indptr[u + 1]
        for i in range(lo, hi):
            if self.nbrs[i] == v:
                return self.wts[i]
        return None

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate every edge once (``u <= v`` for undirected graphs)."""
        for u in range(self.n):
            lo, hi = self.indptr[u], self.indptr[u + 1]
            for i in range(lo, hi):
                v = self.nbrs[i]
                if self.directed or u < v:
                    yield u, v, self.wts[i]

    def reverse(self) -> "SocialGraph":
        """Graph with every edge reversed (cached; self for undirected)."""
        if not self.directed:
            return self
        if self._reverse is None:
            rev_edges = ((v, u, w) for u, v, w in self.edges())
            self._reverse = SocialGraph.from_edges(self.n, rev_edges, directed=True)
        return self._reverse

    # -- derived structures ------------------------------------------------

    def to_adjacency(self) -> list[dict[int, float]]:
        """Mutable adjacency-dict view (used by CH construction)."""
        adj: list[dict[int, float]] = [{} for _ in range(self.n)]
        for u in range(self.n):
            lo, hi = self.indptr[u], self.indptr[u + 1]
            for i in range(lo, hi):
                adj[u][self.nbrs[i]] = self.wts[i]
        return adj

    def subgraph(self, vertices: Sequence[int]) -> tuple["SocialGraph", dict[int, int]]:
        """Induced subgraph on ``vertices``.

        Returns the new graph (vertices relabelled ``0..len-1``) and the
        old-id -> new-id mapping.  Used by Forest-Fire sampling (Fig 14b).
        """
        mapping = {old: new for new, old in enumerate(vertices)}
        edges = []
        for old_u in vertices:
            new_u = mapping[old_u]
            lo, hi = self.indptr[old_u], self.indptr[old_u + 1]
            for i in range(lo, hi):
                old_v = self.nbrs[i]
                new_v = mapping.get(old_v)
                if new_v is None:
                    continue
                if self.directed or new_u < new_v:
                    edges.append((new_u, new_v, self.wts[i]))
        return SocialGraph.from_edges(len(vertices), edges, self.directed), mapping

    def edge_key(self, u: int, v: int) -> tuple[int, int]:
        """The key edge ``(u, v)`` travels under in an update mapping:
        ``(min, max)`` on an undirected graph, where ``(u, v)`` and
        ``(v, u)`` are one edge; the pair as given on a directed one."""
        return (u, v) if self.directed or u < v else (v, u)

    def with_edge_updates(
        self, updates: Mapping[tuple[int, int], float | None]
    ) -> "SocialGraph":
        """Copy of the graph with every edge ``(u, v)`` of ``updates``
        set to its weight (new or changed) or removed (``None``;
        removing an absent edge changes nothing).  One pass over the
        edges whatever the batch size; ids and weights are checked by
        :meth:`from_edges`.

            >>> from repro import SocialGraph
            >>> g = SocialGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)])
            >>> sorted(g.with_edge_updates({(2, 0): 0.5, (0, 1): None}).edges())
            [(0, 2, 0.5), (1, 2, 2.0)]
        """
        weights = {(u, v): w for u, v, w in self.edges()}
        for (u, v), weight in updates.items():
            key = self.edge_key(u, v)
            if weight is None:
                weights.pop(key, None)
            else:
                weights[key] = weight
        return SocialGraph.from_edges(
            self.n, ((u, v, w) for (u, v), w in weights.items()), self.directed
        )

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"SocialGraph(n={self.n}, edges={self._num_edges}, {kind})"
