"""Vectorized kernels over contiguous NumPy columns.

Every method matches :class:`~repro.backend.base.PythonKernels`
bit-for-bit: distances are ``sqrt(dx² + dy²)`` (the repo-wide primitive
— *not* ``np.hypot``, which differs from ``math.hypot`` by 1 ulp on
part of the input space), blending multiplies by the same pre-divided
weights, and ALT bounds exploit IEEE special-value arithmetic
(``inf − inf = NaN`` marks an uninformative landmark, one-sided ``inf``
survives ``abs`` as the exact disconnection bound).

``sssp_column`` hands the traversal itself to
``scipy.sparse.csgraph.dijkstra`` (the optional ``fast`` extra), which
adds the same ``d[u] + w`` float64 sums as the scalar expansion and so
lands on the same labels; without scipy the kernel falls back to that
scalar expansion itself.  ``limit`` is scipy's own early exit (labels
``<= limit`` are kept and final) and the scalar expansion's cutoff.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from repro.backend.base import positions_are_ids, settle_all

INF = math.inf

#: serialises the one-time build of a graph's scipy handle, so
#: concurrent first queries share one
_CSR_BUILD_LOCK = threading.Lock()


def _scipy_csr(graph):
    """``graph``'s CSR as a ``scipy.sparse.csr_matrix`` over the graph's
    own arrays (adopted, not copied), built once per graph and parked on
    it; ``None`` when scipy is not importable."""
    handle = graph._csr
    if handle is None:
        try:
            from scipy.sparse import csr_matrix
        except ImportError:
            return None
        with _CSR_BUILD_LOCK:
            handle = graph._csr
            if handle is None:
                handle = graph._csr = csr_matrix(
                    (graph.wts, graph.nbrs, graph.indptr), shape=(graph.n, graph.n)
                )
    return handle


class NumpyKernels:
    """Array kernels; bit-identical to the scalar reference.

        >>> from repro.backend import NumpyKernels
        >>> kernels = NumpyKernels()
        >>> [float(v) for v in kernels.blend(0.5, 0.0, [2.0, float("inf")], [1.0, 1.0])]
        [1.0, inf]
    """

    name = "numpy"
    vectorized = True

    def euclidean_to_point(self, xs, ys, qx, qy, ids=None):
        if qx != qx or qy != qy:  # unlocated query point: all-inf, no math
            return np.full(len(xs) if ids is None else len(ids), INF)
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if ids is not None:
            ids = np.asarray(ids, dtype=np.intp)
            xs = xs[ids]
            ys = ys[ids]
        dx = qx - xs
        dy = qy - ys
        d = np.sqrt(dx * dx + dy * dy)
        # NaN coordinates (unlocated user, either axis) mean "infinitely far".
        return np.where(np.isnan(d), INF, d)

    def alt_lower_bounds(self, landmarks, query_vector, ids):
        matrix = landmarks.matrix
        ids = np.asarray(ids, dtype=np.intp)
        if matrix.shape[0] == 0:
            return np.zeros(ids.shape[0])
        q = np.asarray(query_vector, dtype=np.float64)
        # inf − inf = NaN: both sides disconnected from the landmark —
        # uninformative, contributes 0.  A one-sided inf survives |·| as
        # the exact "different components" bound.
        with np.errstate(invalid="ignore"):
            diff = np.abs(q[:, None] - matrix[:, ids])
        diff[np.isnan(diff)] = 0.0
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
            return w_spatial * np.asarray(spatial, dtype=np.float64)
        if w_spatial == 0.0:
            return w_social * np.asarray(social, dtype=np.float64)
        return w_social * np.asarray(social, dtype=np.float64) + w_spatial * np.asarray(
            spatial, dtype=np.float64
        )

    def top_k_by_score(self, scores, ids, k):
        if k <= 0:  # match heapq.nsmallest: nothing qualifies
            return []
        scores = np.asarray(scores, dtype=np.float64)
        finite = np.nonzero(scores < INF)[0]  # NaN < inf is False too
        s = scores[finite]
        if 0 < k < s.size:
            # Partition down to the k smallest scores first (O(n)), then
            # widen to every boundary tie so the exact (score, id)
            # tie-break survives, and sort only that sliver.
            boundary = s[np.argpartition(s, k - 1)[:k]].max()
            keep = np.nonzero(s <= boundary)[0]
            finite, s = finite[keep], s[keep]
        if positions_are_ids(ids):
            # ``finite`` ascends, so a stable sort on the score alone
            # breaks ties toward the smaller position = the smaller id
            order = np.argsort(s, kind="stable")
        else:
            order = np.lexsort((np.asarray(ids)[finite], s))
        return finite[order[:k]].tolist()

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
        csr = _scipy_csr(graph)
        if csr is None:
            return self.dense_from_dict(graph.n, settle_all(graph, source, limit), INF)
        from scipy.sparse.csgraph import dijkstra

        return dijkstra(
            csr, directed=True, indices=source, limit=INF if limit is None else limit
        )
