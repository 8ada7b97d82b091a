"""Vectorized kernels over contiguous NumPy columns.

==========================  ==========================================
``euclidean_to_point``      distances from a query point to a batch of
                            users (``NaN`` coordinates → ``inf``)
``alt_lower_bounds``        per-user ALT landmark lower bounds on the
                            social distance (Lemma 2's vertex form)
``blend``                   the α-blended rank score
                            ``w_social·p + w_spatial·d`` with the
                            zero-weight/∞ contract of
                            :class:`~repro.core.ranking.RankingFunction`
``top_k_by_score``          smallest-``(score, id)`` selection with the
                            deterministic smaller-id tie-break
                            (``ids=None``: positions are the ids)
``sssp_column``             the dense social-distance column of one
                            source vertex: every *full* expansion
                            (bruteforce, landmark rows, diameter
                            sweeps, subscription repairs) is this call;
                            with ``limit=r`` it settles only the ball
                            of radius ``r`` (``bounded``)
==========================  ==========================================

plus ``dense_from_dict``, ``count_finite``, and five kernels no
searcher calls (``alt_upper_bounds``, ``interval_midpoints``,
``blend_topk_multi``, ``nanbbox``, ``summary_minmax``), kept because
the benchmark tracer (``perfbench/trace.py``) wraps them by name.

Every score is what the scalar Definition 1 arithmetic gives,
bit-for-bit: distances are ``sqrt(dx² + dy²)`` (the repo-wide
primitive — *not* ``np.hypot``, which differs from ``math.hypot`` by 1
ulp on part of the input space), blending multiplies by the same
pre-divided weights as :class:`~repro.core.ranking.RankingFunction`,
and ALT bounds exploit IEEE special-value arithmetic (``inf − inf =
NaN`` marks an uninformative landmark, one-sided ``inf`` survives
``abs`` as the exact disconnection bound).  The test suite pins this
against a scalar reference of every kernel and a scalar model of
Definition 1.

``sssp_column`` hands the traversal itself to
``scipy.sparse.csgraph.dijkstra`` (scipy is a dependency), which adds
the same ``d[u] + w`` float64 sums as an incremental
:class:`~repro.graph.traversal.DijkstraIterator` and so lands on the
same labels: a final Dijkstra label is ``min`` over in-edges ``(u, v)``
of ``fl(d[u] + w)`` with ``d[u]`` itself final, which no heap order or
tie-break can change.  ``limit`` is scipy's own early exit (labels
``<= limit`` are kept and final; every other entry reads ``inf``).
"""

from __future__ import annotations

import math
import threading

import numpy as np

INF = math.inf

#: serialises the one-time build of a graph's scipy handle, so
#: concurrent first queries share one
_CSR_BUILD_LOCK = threading.Lock()


def _scipy_csr(graph):
    """``graph``'s CSR as a ``scipy.sparse.csr_matrix`` over the graph's
    own arrays (adopted, not copied), built once per graph and parked on
    it.  scipy is imported on first use, so ``import repro`` does not
    pay for it."""
    handle = graph._csr
    if handle is None:
        from scipy.sparse import csr_matrix

        with _CSR_BUILD_LOCK:
            handle = graph._csr
            if handle is None:
                handle = graph._csr = csr_matrix(
                    (graph.wts, graph.nbrs, graph.indptr), shape=(graph.n, graph.n)
                )
    return handle


def positions_are_ids(ids) -> bool:
    """Whether ``top_k_by_score``'s ``ids`` argument says "the id of a
    score is its position": ``None``, or an ascending ``range`` (which
    orders ties exactly as positions do)."""
    return ids is None or (isinstance(ids, range) and ids.step > 0)


class NumpyKernels:
    """Array kernels over the engine's columns.

        >>> from repro.backend import NumpyKernels
        >>> kernels = NumpyKernels()
        >>> [float(v) for v in kernels.blend(0.5, 0.0, [2.0, float("inf")], [1.0, 1.0])]
        [1.0, inf]
    """

    name = "numpy"

    def euclidean_to_point(self, xs, ys, qx, qy, ids=None):
        if qx != qx or qy != qy:  # unlocated query point: all-inf, no math
            return np.full(len(xs) if ids is None else len(ids), INF)
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if ids is not None:
            ids = np.asarray(ids, dtype=np.intp)
            xs = xs[ids]
            ys = ys[ids]
        # sqrt(dx·dx + dy·dy) in two buffers; a NaN coordinate (an
        # unlocated user, either axis) is "infinitely far"
        d = qx - xs
        dy = qy - ys
        d *= d
        d += np.multiply(dy, dy, out=dy)
        return np.fmin(np.sqrt(d, out=d), INF, out=d)

    def alt_lower_bounds(self, landmarks, query_vector, ids):
        matrix = landmarks.matrix
        ids = np.asarray(ids, dtype=np.intp)
        if matrix.shape[0] == 0:
            return np.zeros(ids.shape[0])
        q = np.asarray(query_vector, dtype=np.float64)
        with np.errstate(invalid="ignore"):
            diff = matrix[:, ids] - q[:, None]
        if not landmarks.graph.directed:
            np.abs(diff, out=diff)
        # inf − inf = NaN: both sides disconnected from the landmark —
        # uninformative, contributes 0, as does a negative forward
        # difference on a digraph.  A one-sided inf stays the exact
        # "unreachable" bound.
        diff[~(diff > 0.0)] = 0.0
        return diff.max(axis=0)

    def alt_upper_bounds(self, landmarks, query_vector, ids):
        matrix = landmarks.matrix
        ids = np.asarray(ids, dtype=np.intp)
        if matrix.shape[0] == 0:
            return np.full(ids.shape[0], INF)
        q = np.asarray(query_vector, dtype=np.float64)
        # inf + anything = inf, never NaN — a landmark that misses
        # either side simply proposes an infinite (useless) bound.
        return (q[:, None] + matrix[:, ids]).min(axis=0)

    def interval_midpoints(self, lower, upper):
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        # inf − inf = NaN where both bounds are infinite; the unreachable
        # mask overwrites those lanes with the scalar contract's inf.
        with np.errstate(invalid="ignore"):
            half = (upper - lower) * 0.5
            est = lower + half
        unreachable = np.isinf(upper)
        half[unreachable] = INF
        est[unreachable] = INF
        return est, half

    def blend(self, w_social, w_spatial, social, spatial):
        # Zero-weight terms contribute exactly 0 even at inf (the
        # RankingFunction contract); gating on the scalar weight keeps
        # 0·inf = NaN out of the arithmetic entirely.
        if w_social == 0.0:
            if w_spatial == 0.0:
                return np.zeros(len(spatial))
            return np.multiply(w_spatial, spatial, dtype=np.float64)
        out = np.multiply(w_social, social, dtype=np.float64)
        if w_spatial != 0.0:
            out += np.multiply(w_spatial, spatial, dtype=np.float64)
        return out

    def top_k_by_score(self, scores, ids, k):
        if k <= 0:  # match heapq.nsmallest: nothing qualifies
            return []
        scores = np.asarray(scores, dtype=np.float64)
        # The k-th smallest score (O(n); NaN and inf partition last),
        # widened to every boundary tie so the exact (score, id)
        # tie-break survives; with k past n or fewer than k finite
        # scores, every finite score qualifies.
        kth = scores[np.argpartition(scores, k - 1)[k - 1]] if k < scores.size else INF
        keep = np.flatnonzero(scores <= kth if kth < INF else scores < INF)
        s = scores[keep]
        if positions_are_ids(ids):
            # ``keep`` ascends, so a stable sort on the score alone
            # breaks ties toward the smaller position = the smaller id
            order = np.argsort(s, kind="stable")
        else:
            order = np.lexsort((np.asarray(ids)[keep], s))
        return keep[order[:k]].tolist()

    def blend_topk_multi(self, requests, social, spatial, exclude=None):
        out = []
        for k, w_social, w_spatial in requests:
            scores = self.blend(w_social, w_spatial, social, spatial)
            if exclude is not None:
                scores[exclude] = INF  # blend output is fresh — never a cached column
            top = self.top_k_by_score(scores, None, k)
            out.append([(int(u), float(scores[u])) for u in top])
        return out

    def nanbbox(self, xs, ys, ids=None):
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if ids is not None:
            ids = np.asarray(ids, dtype=np.intp)
            xs = xs[ids]
            ys = ys[ids]
        # Per-coordinate contract (like euclidean_to_point): a NaN on
        # either axis makes the whole point "unlocated".
        mask = ~(np.isnan(xs) | np.isnan(ys))
        if not mask.any():
            return None
        xs = xs[mask]
        ys = ys[mask]
        return (float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max()))

    def summary_minmax(self, landmarks, ids):
        matrix = landmarks.matrix
        m = matrix.shape[0]
        ids = np.asarray(ids, dtype=np.intp)
        if ids.shape[0] == 0:
            return [INF] * m, [-INF] * m
        sub = matrix[:, ids]
        return sub.min(axis=1).tolist(), sub.max(axis=1).tolist()

    def dense_from_dict(self, n, mapping, default):
        column = np.full(n, default, dtype=np.float64)
        if mapping:
            column[np.fromiter(mapping.keys(), dtype=np.intp, count=len(mapping))] = (
                np.fromiter(mapping.values(), dtype=np.float64, count=len(mapping))
            )
        return column

    def count_finite(self, values):
        return int(np.count_nonzero(np.isfinite(np.asarray(values, dtype=np.float64))))

    def sssp_column(self, graph, source, limit=None):
        if not 0 <= source < graph.n:  # scipy would wrap a negative index
            raise ValueError(f"source {source} out of range [0, {graph.n})")
        from scipy.sparse.csgraph import dijkstra

        return dijkstra(
            _scipy_csr(graph), directed=True, indices=source,
            limit=INF if limit is None else limit,
        )
