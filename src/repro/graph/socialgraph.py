"""Weighted social graph in compressed sparse row (CSR) form.

The paper's setting (Section 3): an undirected graph ``G = (V, E)`` with
one vertex per user and positive edge weights encoding friendship
strength (smaller weight = stronger tie).  The work "extends to directed
graphs easily", and so does this class.

CSR keeps the three flat arrays ``indptr``, ``nbrs`` and ``wts``; the
out-neighbourhood of vertex ``v`` is
``nbrs[indptr[v]:indptr[v+1]]`` / ``wts[indptr[v]:indptr[v+1]]``.
They are read-only contiguous NumPy arrays — ``int32``, ``int32`` and
``float64`` — and the one canonical copy of the graph: the builders
produce them without a Python list in between, the ``sssp_column``
kernel of :mod:`repro.backend` hands them to scipy's Dijkstra without a
copy, and :mod:`repro.store` writes them and maps them back.

The *incremental* searchers' pure-Python Dijkstra loops (SFA's stream,
TSA's interleave, AIS's forward search, A*, the bidirectional oracle,
the CH build, forest-fire sampling) settle a few vertices at a time and
read each settled vertex's row off the arrays, as two slices turned into
Python lists (:meth:`SocialGraph.neighbors`): a query pays for the rows
it settles, and no process holds a second, list-shaped copy of the
graph.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.utils.validation import check_weight, weight_faults

#: the CSR's index dtype (what scipy's sparse graphs take without a copy)
_INDEX_DTYPE = np.int32
_INDEX_MAX = int(np.iinfo(_INDEX_DTYPE).max)


def _readonly(values, dtype) -> np.ndarray:
    """``values`` as a contiguous read-only ``dtype`` array: a read-only
    view when it already is one (no copy), a converted copy otherwise."""
    array = np.ascontiguousarray(values, dtype=dtype)
    if array.flags.writeable:
        array = array.view()
        array.flags.writeable = False
    return array


def _check_edge(n: int, u, v, w) -> None:
    """The per-edge contract of :meth:`SocialGraph.from_edges`, in the
    order its messages take precedence."""
    if u == v:
        raise ValueError(f"self-loop on vertex {u}")
    if not 0 <= u < n or not 0 <= v < n:
        raise ValueError(f"edge ({u}, {v}) out of range [0, {n})")
    check_weight(f"edge ({u}, {v}) weight", w)


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
        >>> g.indptr.dtype.name, g.nbrs.dtype.name, g.wts.dtype.name
        ('int32', 'int32', 'float64')
    """

    __slots__ = ("n", "indptr", "nbrs", "wts", "directed", "_num_edges", "_reverse", "_csr")

    def __init__(
        self,
        n: int,
        indptr,
        nbrs,
        wts,
        directed: bool = False,
        _num_edges: int | None = None,
    ) -> None:
        if len(indptr) != n + 1:
            raise ValueError("indptr must have length n + 1")
        if len(nbrs) != len(wts):
            raise ValueError("nbrs and wts must have equal length")
        if n > _INDEX_MAX or len(nbrs) > _INDEX_MAX:
            raise ValueError(
                f"graph with {n} vertices and {len(nbrs)} CSR entries exceeds the "
                f"{np.dtype(_INDEX_DTYPE).name} index range"
            )
        self.n = n
        self.indptr = _readonly(indptr, _INDEX_DTYPE)
        self.nbrs = _readonly(nbrs, _INDEX_DTYPE)
        self.wts = _readonly(wts, np.float64)
        self.directed = directed
        if _num_edges is None:
            _num_edges = len(nbrs) if directed else len(nbrs) // 2
        self._num_edges = _num_edges
        self._reverse: "SocialGraph | None" = None
        #: scipy's sparse-matrix handle over the arrays, built and owned
        #: by the backend kernel that runs full expansions over them
        #: (:meth:`~repro.backend.NumpyKernels.sssp_column`)
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
        us, vs, ws = tuple(zip(*edges)) or ((), (), ())
        return cls.from_edge_arrays(n, us, vs, ws, directed)

    @classmethod
    def from_edge_arrays(cls, n: int, us, vs, ws, directed: bool = False) -> "SocialGraph":
        """:meth:`from_edges` over three parallel columns (edge ``i`` is
        ``(us[i], vs[i], ws[i])``) — what the dataset builders hand over.

        The first offending edge in input order raises; duplicates keep
        their first occurrence's place and the minimum weight; a
        vertex's neighbours are listed in the order their edges first
        occur (a stable counting sort by row).

            >>> from repro import SocialGraph
            >>> g = SocialGraph.from_edge_arrays(3, [0, 2, 1], [1, 1, 0], [1.0, 0.5, 0.25])
            >>> g.num_edges, sorted(g.edges())
            (2, [(0, 1, 0.25), (1, 2, 0.5)])
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        ws = np.asarray(ws, dtype=np.float64)
        if not len(us) == len(vs) == len(ws):
            raise ValueError("edge columns must have equal length")
        bad = (us == vs) | (us < 0) | (us >= n) | (vs < 0) | (vs >= n) | weight_faults(ws)
        if bad.any():
            first = int(np.argmax(bad))
            _check_edge(n, int(us[first]), int(vs[first]), float(ws[first]))
        if directed:
            rows, cols, weights = _collapse(n, us, vs, ws)
        else:
            heads, tails, ws = _collapse(n, np.minimum(us, vs), np.maximum(us, vs), ws)
            # edge i lands at 2i in its head's row and 2i + 1 in its
            # tail's; a stable sort by row keeps first-occurrence order
            rows = np.column_stack((heads, tails)).ravel()
            cols = np.column_stack((tails, heads)).ravel()
            weights = np.repeat(ws, 2)
        order = np.argsort(rows, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(n, indptr, cols[order], weights[order], directed)

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
        structural validation of the three arrays.  Columns already in
        the graph's dtypes are adopted without a copy (an mmapped load
        stays mapped); others — ``int64`` ids, lists — are cast once,
        after the checks have put every value in range.

        Unlike :meth:`from_edges`, the input is trusted to be a valid
        CSR image produced by this class — but since the columns may
        come from disk, the cheap invariants (monotone ``indptr``,
        neighbour ids in range, weights in the input domain) are checked
        so a corrupted file fails loudly instead of corrupting a search.

            >>> from repro import SocialGraph
            >>> g = SocialGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)])
            >>> clone = SocialGraph.from_csr(g.n, g.indptr, g.nbrs, g.wts)
            >>> clone.num_edges, sorted(clone.neighbors(1))
            (2, [(0, 1.0), (2, 2.0)])
            >>> clone.nbrs is g.nbrs
            True
        """
        indptr, nbrs = np.asarray(indptr), np.asarray(nbrs)
        wts = np.asarray(wts, dtype=np.float64)
        if len(indptr) != n + 1 or indptr[0] != 0 or indptr[n] != len(nbrs):
            raise ValueError(
                f"CSR indptr inconsistent: len={len(indptr)} (need {n + 1}), "
                f"first={indptr[:1].tolist()}, last={indptr[-1:].tolist()} "
                f"vs {len(nbrs)} entries"
            )
        if (indptr[1:] < indptr[:-1]).any():
            raise ValueError("CSR indptr must be non-decreasing")
        if len(nbrs) and (nbrs.min() < 0 or nbrs.max() >= n):
            raise ValueError(f"CSR neighbour id out of range [0, {n})")
        bad = np.flatnonzero(weight_faults(wts))
        if bad.size:
            check_weight(f"CSR weight wts[{bad[0]}]", float(wts[bad[0]]))
        return cls(n, indptr, nbrs, wts, directed, _num_edges=num_edges)

    # -- accessors --------------------------------------------------------

    @property
    def num_edges(self) -> int:
        """Number of (undirected) edges."""
        return self._num_edges

    def degree(self, v: int) -> int:
        """Out-degree of ``v`` (== degree for undirected graphs)."""
        return int(self.indptr[v + 1] - self.indptr[v])

    @property
    def average_degree(self) -> float:
        if self.n == 0:
            return 0.0
        return len(self.nbrs) / self.n if self.directed else 2.0 * self._num_edges / self.n

    @property
    def max_degree(self) -> int:
        return int(np.diff(self.indptr).max()) if self.n else 0

    def neighbors(self, v: int) -> Iterator[tuple[int, float]]:
        """Iterate ``(neighbor, weight)`` pairs of ``v``."""
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return zip(self.nbrs[lo:hi].tolist(), self.wts[lo:hi].tolist())

    def has_edge(self, u: int, v: int) -> bool:
        lo, hi = self.indptr[u], self.indptr[u + 1]
        return v in self.nbrs[lo:hi]

    def edge_weight(self, u: int, v: int) -> float | None:
        lo, hi = self.indptr[u], self.indptr[u + 1]
        hits = np.flatnonzero(self.nbrs[lo:hi] == v)
        return float(self.wts[lo + hits[0]]) if hits.size else None

    def _edge_arrays(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Every edge once as ``(us, vs, ws)`` columns, in CSR order
        (``u < v`` for undirected graphs)."""
        rows = np.repeat(np.arange(self.n, dtype=_INDEX_DTYPE), np.diff(self.indptr))
        if self.directed:
            return rows, self.nbrs, self.wts
        keep = rows < self.nbrs
        return rows[keep], self.nbrs[keep], self.wts[keep]

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate every edge once (``u <= v`` for undirected graphs)."""
        us, vs, ws = self._edge_arrays()
        # one int object per vertex, shared by every tuple that names it:
        # a caller keeping the tuples keeps n ids, not two per edge
        ids = list(range(self.n)).__getitem__
        return zip(map(ids, us.tolist()), map(ids, vs.tolist()), ws.tolist())

    def reverse(self) -> "SocialGraph":
        """Graph with every edge reversed (cached; self for undirected)."""
        if not self.directed:
            return self
        if self._reverse is None:
            us, vs, ws = self._edge_arrays()
            self._reverse = SocialGraph.from_edge_arrays(self.n, vs, us, ws, directed=True)
        return self._reverse

    # -- derived structures ------------------------------------------------

    def to_adjacency(self) -> list[dict[int, float]]:
        """Mutable adjacency-dict view (used by CH construction)."""
        return [dict(self.neighbors(u)) for u in range(self.n)]

    def subgraph(self, vertices: Sequence[int]) -> tuple["SocialGraph", dict[int, int]]:
        """Induced subgraph on ``vertices``.

        Returns the new graph (vertices relabelled ``0..len-1``) and the
        old-id -> new-id mapping.  Used by Forest-Fire sampling (Fig 14b).
        """
        mapping = {old: new for new, old in enumerate(vertices)}
        new_id = np.full(self.n, -1, dtype=np.int64)
        new_id[list(mapping)] = list(mapping.values())
        rows = new_id[np.repeat(np.arange(self.n), np.diff(self.indptr))]
        cols = new_id[self.nbrs]
        # each edge once (undirected: from its lower new id's row), by
        # row and then in CSR order, as a walk over ``vertices`` meets it
        keep = (rows >= 0) & (cols >= 0) & (self.directed | (rows < cols))
        order = np.flatnonzero(keep)[np.argsort(rows[keep], kind="stable")]
        return SocialGraph.from_edge_arrays(
            len(vertices), rows[order], cols[order], self.wts[order], self.directed
        ), mapping

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
        removing an absent edge changes nothing).  The edges keep their
        order, changed ones in place and new ones after them in update
        order, so the result equals :meth:`from_edges` over that list;
        ids and weights are checked as :meth:`from_edges` checks them.

            >>> from repro import SocialGraph
            >>> g = SocialGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)])
            >>> sorted(g.with_edge_updates({(2, 0): 0.5, (0, 1): None}).edges())
            [(0, 2, 0.5), (1, 2, 2.0)]
        """
        us, vs, ws = self._edge_arrays()
        ws = ws.copy()
        keep = np.ones(len(ws), dtype=bool)  # False: removed by the batch
        n = self.n
        keys = us.astype(np.int64) * n + vs
        order = np.argsort(keys)
        sorted_keys = keys[order]

        def position(u: int, v: int) -> int:
            """Index of edge ``(u, v)`` in the CSR-order columns, or -1."""
            if not (0 <= u < n and 0 <= v < n):
                return -1
            at = int(np.searchsorted(sorted_keys, u * n + v))
            return int(order[at]) if at < len(keys) and sorted_keys[at] == u * n + v else -1

        added: dict[tuple[int, int], float] = {}  # new (or removed and re-set) edges
        for (u, v), weight in updates.items():
            key = self.edge_key(u, v)
            at = position(*key)
            if at >= 0 and keep[at]:
                if weight is None:
                    keep[at] = False
                else:
                    ws[at] = weight
            elif weight is None:
                added.pop(key, None)
            else:
                added[key] = weight
        new = np.array(list(added), dtype=np.int64).reshape(-1, 2)
        return SocialGraph.from_edge_arrays(
            n,
            np.concatenate((us[keep], new[:, 0])),
            np.concatenate((vs[keep], new[:, 1])),
            np.concatenate((ws[keep], list(added.values()))),
            self.directed,
        )

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"SocialGraph(n={self.n}, edges={self._num_edges}, {kind})"


def _collapse(n: int, heads, tails, ws):
    """Parallel edges merged: each ``(head, tail)`` pair once, at its
    first occurrence, with its minimum weight."""
    keys = heads * n + tails
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    repeats = sorted_keys[1:] == sorted_keys[:-1]
    if not repeats.any():
        return heads, tails, ws
    starts = np.flatnonzero(np.concatenate(([True], ~repeats)))
    lightest = np.minimum.reduceat(ws[order], starts)
    firsts = order[starts]  # the stable sort puts each pair's first occurrence first
    placed = np.argsort(firsts)
    firsts = firsts[placed]
    return heads[firsts], tails[firsts], lightest[placed]
