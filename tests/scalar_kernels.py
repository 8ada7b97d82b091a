"""The scalar reference of every kernel: the per-kernel oracle.

:class:`PythonKernels` is the loops the algorithms ran before the
columnar refactor, one Python float operation at a time, kept verbatim
as the reference :class:`~repro.backend.NumpyKernels` is checked
against kernel by kernel (``test_backend_kernels.py``,
``test_sssp_kernel.py``, ``test_backend_equivalence.py``).  No engine
runs it: the whole-query oracle is the Definition 1 model in
``tests/model.py``.  :func:`social_lower_bound_vertex` is the one-pair
form of ``alt_lower_bounds`` on an undirected graph.
"""

from __future__ import annotations

import heapq
import math

from repro.backend.numpy_backend import positions_are_ids

INF = math.inf
_sqrt = math.sqrt


def social_lower_bound_vertex(query_vector, vertex_vector) -> float:
    """The landmark lower bound ``p̌(v_q, v_i)`` of one vertex pair: the
    largest ``|m_qj − m_ij|`` over the landmarks, ``inf`` when exactly
    one side is disconnected from a landmark (Lemma 2's cell with
    ``m̌ = m̂ = m_i``)."""
    best = 0.0
    for j, mqj in enumerate(query_vector):
        mij = vertex_vector[j]
        if mqj == mij:
            continue
        if mqj == INF or mij == INF:
            return INF
        diff = mqj - mij if mqj > mij else mij - mqj
        if diff > best:
            best = diff
    return best


class PythonKernels:
    """Scalar kernels: the pre-refactor per-user loops, verbatim.

        >>> from tests.scalar_kernels import PythonKernels
        >>> kernels = PythonKernels()
        >>> list(kernels.blend(0.5, 0.0, [2.0, float("inf")], [1.0, 1.0]))
        [1.0, inf]
    """

    name = "python"
    vectorized = False

    def euclidean_to_point(self, xs, ys, qx, qy, ids=None):
        if qx != qx or qy != qy:
            n = len(xs) if ids is None else len(ids)
            return [INF] * n
        out = []
        append = out.append
        if ids is None:
            for ux, uy in zip(xs, ys):
                if ux != ux or uy != uy:
                    append(INF)
                else:
                    dx = qx - ux
                    dy = qy - uy
                    append(_sqrt(dx * dx + dy * dy))
            return out
        for u in ids:
            ux = xs[u]
            uy = ys[u]
            if ux != ux or uy != uy:
                append(INF)
            else:
                dx = qx - ux
                dy = qy - uy
                append(_sqrt(dx * dx + dy * dy))
        return out

    def alt_lower_bounds(self, landmarks, query_vector, ids):
        rows = landmarks.dist
        forward_only = landmarks.graph.directed
        out = []
        append = out.append
        for u in ids:
            best = 0.0
            for j, mqj in enumerate(query_vector):
                mij = rows[j][u]
                if mqj == mij or (forward_only and mij < mqj):
                    continue
                if mqj == INF or mij == INF:
                    best = INF
                    break
                diff = mqj - mij if mqj > mij else mij - mqj
                if diff > best:
                    best = diff
            append(best)
        return out

    def alt_upper_bounds(self, landmarks, query_vector, ids):
        rows = landmarks.dist
        out = []
        append = out.append
        for u in ids:
            best = INF
            for j, mqj in enumerate(query_vector):
                s = mqj + rows[j][u]
                if s < best:
                    best = s
            append(best)
        return out

    def interval_midpoints(self, lower, upper):
        est = []
        half = []
        for lo, hi in zip(lower, upper):
            if hi == INF:
                est.append(INF)
                half.append(INF)
            else:
                h = (hi - lo) * 0.5
                est.append(lo + h)
                half.append(h)
        return est, half

    def blend(self, w_social, w_spatial, social, spatial):
        if w_social == 0.0:
            if w_spatial == 0.0:
                return [0.0] * len(spatial)
            return [w_spatial * d for d in spatial]
        if w_spatial == 0.0:
            return [w_social * p for p in social]
        return [w_social * p + w_spatial * d for p, d in zip(social, spatial)]

    def top_k_by_score(self, scores, ids, k):
        if positions_are_ids(ids):
            finite = [(s, i) for i, s in enumerate(scores) if s == s and s != INF]
            return [i for _, i in heapq.nsmallest(k, finite)]
        finite = [
            (s, ids[i], i) for i, s in enumerate(scores) if s == s and s != INF
        ]
        return [i for _, _, i in heapq.nsmallest(k, finite)]

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
        minx = miny = INF
        maxx = maxy = -INF
        located = False
        it = range(len(xs)) if ids is None else ids
        for u in it:
            x = xs[u]
            y = ys[u]
            if x != x or y != y:
                continue
            located = True
            if x < minx:
                minx = x
            if x > maxx:
                maxx = x
            if y < miny:
                miny = y
            if y > maxy:
                maxy = y
        if not located:
            return None
        return (minx, miny, maxx, maxy)

    def summary_minmax(self, landmarks, ids):
        rows = landmarks.dist
        m_check = [INF] * len(rows)
        m_hat = [-INF] * len(rows)
        for j, row in enumerate(rows):
            lo = INF
            hi = -INF
            for u in ids:
                value = row[u]
                if value < lo:
                    lo = value
                if value > hi:
                    hi = value
            m_check[j] = lo
            m_hat[j] = hi
        return m_check, m_hat

    def dense_from_dict(self, n, mapping, default):
        column = [default] * n
        for key, value in mapping.items():
            column[key] = value
        return column

    def count_finite(self, values):
        return sum(1 for v in values if v == v and v != INF and v != -INF)

    def sssp_column(self, graph, source, limit=None):
        # a DijkstraIterator run to exhaustion, or until the popped label
        # exceeds ``limit`` (imported here, not at module level: the
        # graph package's build paths import this package)
        from repro.graph.traversal import dijkstra_distances

        if limit is not None and limit < 0:  # as scipy does
            raise ValueError(f"limit must be >= 0, got {limit}")
        return self.dense_from_dict(graph.n, dijkstra_distances(graph, source, limit), INF)
