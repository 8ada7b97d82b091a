"""The ``Kernels`` protocol and its scalar reference implementation.

A *kernel* is one of the few bulk primitives every SSRQ hot loop is
made of, lifted from per-user scalar calls to whole candidate arrays:

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
``blend_topk_multi``        fused same-user batch scoring: several
                            ``(k, α)`` variants answered from one pair
                            of shared columns, one blend+top-k pass each
``nanbbox``                 coordinate envelope of a user batch
``summary_minmax``          per-landmark min/max over a user batch (the
                            ``(m̌, m̂)`` social-summary vectors)
``sssp_column``             the dense social-distance column of one
                            source vertex: every *full* expansion
                            (bruteforce, landmark rows, diameter
                            sweeps, subscription repairs) is this call;
                            with ``limit=r`` it settles only the ball
                            of radius ``r`` (``bounded``)
==========================  ==========================================

:class:`PythonKernels` is the *extracted* scalar behavior — the exact
loops the algorithms ran before the columnar refactor, kept as the
semantics oracle.  :class:`~repro.backend.numpy_backend.NumpyKernels`
vectorizes the same contracts; because every floating-point operation
involved (``-``, ``*``, ``+``, ``sqrt``, ``abs``, comparisons) is
IEEE-exact elementwise, the two backends produce *bit-identical*
scores, rankings, and tie-breaks — a property the backend-equivalence
test suite pins rather than assumes.

Kernels accept user batches as any integer sequence (Python lists or
``intp`` id-arrays from :meth:`repro.spatial.grid.UniformGrid.ids_in`)
and coordinate columns as whatever
:meth:`repro.spatial.point.LocationTable.columns` stores.

Besides the searchers, the stream layer's repair pass
(:meth:`repro.stream.SubscriptionRegistry.flush`) leans on
``euclidean_to_point`` to re-derive the spatial column of a whole
pending-delta batch in one call — bit-identical to what the searchers
computed, which is what makes repaired results indistinguishable from
fresh ones.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.landmarks import LandmarkIndex
    from repro.graph.socialgraph import SocialGraph

INF = math.inf
_sqrt = math.sqrt


@runtime_checkable
class Kernels(Protocol):
    """Batched evaluation primitives behind every candidate loop."""

    #: backend identifier ("python" / "numpy")
    name: str
    #: whether bulk calls are array-vectorized — introspection only
    #: (callers batch unconditionally; the scalar backend loops inside
    #: the kernel, so both shapes share one code path)
    vectorized: bool

    def euclidean_to_point(
        self, xs, ys, qx: float, qy: float, ids=None
    ) -> Sequence[float]:
        """Distances from ``(qx, qy)`` to users ``ids`` (all users when
        ``None``), aligned with ``ids``; unknown locations (and an
        unknown query point) yield ``inf``."""
        ...

    def alt_lower_bounds(
        self, landmarks: "LandmarkIndex", query_vector: Sequence[float], ids
    ) -> Sequence[float]:
        """Per-user ALT lower bounds ``p̌(v_q, v_i) = max_j |m_qj − m_ij|``
        over the landmark tables (``inf`` when exactly one side is
        disconnected from some landmark; uninformative landmarks
        contribute 0)."""
        ...

    def alt_upper_bounds(
        self, landmarks: "LandmarkIndex", query_vector: Sequence[float], ids
    ) -> Sequence[float]:
        """Per-user ALT upper bounds ``p̂(v_q, v_i) = min_j (m_qj + m_ij)``
        over the landmark tables (``inf`` when no landmark reaches both
        sides) — the batched form of
        :meth:`~repro.graph.landmarks.LandmarkIndex.upper_bound`."""
        ...

    def interval_midpoints(self, lower, upper) -> tuple:
        """``(estimate, halfwidth)`` columns for per-user distance
        intervals ``[lower, upper]``: the midpoint ``lo + (hi − lo)/2``
        and its certified error radius ``(hi − lo)/2``.  An infinite
        upper bound (no finite certificate) yields ``inf`` for both."""
        ...

    def blend(
        self, w_social: float, w_spatial: float, social, spatial
    ) -> Sequence[float]:
        """α-blended scores ``w_social·p + w_spatial·d`` where a
        zero-weight term contributes exactly 0 even at ``p``/``d`` =
        ``inf`` (the :class:`~repro.core.ranking.RankingFunction`
        contract)."""
        ...

    def top_k_by_score(self, scores, ids, k: int) -> list[int]:
        """Positions of the ``k`` smallest entries by ``(score, id)``
        (deterministic smaller-id tie-break), in ascending order;
        ``inf``/NaN scores never qualify.  ``ids=None`` (or an
        ascending ``range``) means *positions are the ids* — the
        whole-table scans' case, answered without building any O(n)
        id object."""
        ...

    def blend_topk_multi(
        self, requests, social, spatial, exclude: int | None = None
    ) -> list[list[tuple[int, float]]]:
        """Fused same-user batch scoring: for each ``(k, w_social,
        w_spatial)`` request, ``blend`` the shared columns and select
        the ``(score, id)``-smallest ``k`` — the columns are
        materialised once and every request is one columnar pass.
        Either column may be ``None`` when every request's matching
        weight is 0 (``blend``'s zero-weight gate never reads it);
        ``exclude`` is a position forced to ``inf`` first (the query
        user).  Returns per request ``[(position, score), ...]`` in
        ascending ``(score, id)`` order as plain Python values —
        backend-independent, bit-identical to a per-request ``blend`` +
        ``top_k_by_score``."""
        ...

    def nanbbox(self, xs, ys, ids=None) -> tuple[float, float, float, float] | None:
        """``(minx, miny, maxx, maxy)`` over the known locations of
        ``ids`` (all users when ``None``); ``None`` when none are
        located."""
        ...

    def summary_minmax(
        self, landmarks: "LandmarkIndex", ids
    ) -> tuple[list[float], list[float]]:
        """The ``(m̌, m̂)`` social-summary vectors over ``ids``: per
        landmark, the min and max distance among the batch."""
        ...

    def dense_from_dict(self, n: int, mapping: dict, default: float) -> Sequence[float]:
        """A dense length-``n`` column with ``mapping``'s values at its
        keys and ``default`` elsewhere (marshals e.g. a Dijkstra
        distance dict into kernel-ready form)."""
        ...

    def count_finite(self, values) -> int:
        """Number of finite (non-``inf``, non-NaN) entries."""
        ...

    def sssp_column(
        self, graph: "SocialGraph", source: int, limit: float | None = None
    ) -> Sequence[float]:
        """Exact shortest-path distances from ``source`` to every vertex
        of ``graph`` as a dense length-``n`` float64 column (``inf`` for
        unreachable vertices).  Bit-identical on every backend *and* to
        the distances an incremental
        :class:`~repro.graph.traversal.DijkstraIterator` settles: a
        final Dijkstra label is ``min`` over in-edges ``(u, v)`` of
        ``fl(d[u] + w)`` with ``d[u]`` itself final, which no heap
        order or tie-break can change.

        With ``limit=r`` (``r >= 0``; ``None`` and ``inf`` mean no
        limit) the expansion stops at radius
        ``r``: every vertex whose distance is ``<= r`` carries that same
        final label (a vertex is only ever reached through closer ones,
        all inside the ball), every other entry reads ``inf``."""
        ...


class PythonKernels:
    """Scalar kernels: the pre-refactor per-user loops, verbatim.

        >>> from repro.backend import PythonKernels
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
        out = []
        append = out.append
        for u in ids:
            best = 0.0
            for j, mqj in enumerate(query_vector):
                mij = rows[j][u]
                if mqj == mij:
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
        return self.dense_from_dict(graph.n, settle_all(graph, source, limit), INF)


def positions_are_ids(ids) -> bool:
    """Whether ``top_k_by_score``'s ``ids`` argument says "the id of a
    score is its position": ``None``, or an ascending ``range`` (which
    orders ties exactly as positions do)."""
    return ids is None or (isinstance(ids, range) and ids.step > 0)


def settle_all(graph: "SocialGraph", source: int, limit: float | None = None) -> dict:
    """The reference expansion behind ``sssp_column``: a
    :class:`~repro.graph.traversal.DijkstraIterator` run to exhaustion,
    or until the popped label exceeds ``limit`` (imported here, not at
    module level — the graph package's build paths import this
    package)."""
    from repro.graph.traversal import dijkstra_distances

    if limit is not None and limit < 0:  # as scipy does
        raise ValueError(f"limit must be >= 0, got {limit}")
    return dijkstra_distances(graph, source, limit)
