"""Lower bounds for the AIS branch-and-bound search (Section 5.1).

Two ingredients per index cell ``C``:

- spatial: ``ď(u_q, C)`` — minimum Euclidean distance from the query
  point to the cell rectangle (:meth:`repro.spatial.point.BBox.mindist`);
- social: ``p̌(v_q, C)`` — Lemma 2's extension of the landmark triangle
  inequality from single vertices to *groups* of vertices, using the
  cell's min/max landmark-distance vectors.

Their ``α``-combination is Theorem 1's ``MINF``, a valid lower bound on
the score of every user under ``C``.

Infinite landmark distances (vertices disconnected from a landmark) are
handled without NaN and keep every bound valid; see the case analysis
in :func:`social_lower_bound`.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.ranking import RankingFunction

INF = math.inf


def social_lower_bound(
    query_vector: Sequence[float],
    m_check: Sequence[float],
    m_hat: Sequence[float],
) -> float:
    """Lemma 2: lower bound on ``p(v_q, v_i)`` for every vertex ``v_i``
    summarised by ``(m̌, m̂)``.

    For the ``j``-th landmark with query distance ``m_qj``::

        m_qj < m̌[j]  ->  bound m̌[j] − m_qj
        m_qj > m̂[j]  ->  bound m_qj − m̂[j]
        otherwise    ->  no information from this landmark

    Infinity cases (``inf`` encodes disconnection): when ``m_qj`` is
    finite but ``m̌[j] = inf``, every summarised vertex is disconnected
    from landmark ``j`` while the query reaches it — so they are
    disconnected from the query and the bound ``inf`` is exact.  The
    symmetric case (``m_qj = inf``, ``m̂[j]`` finite) is analogous.  When
    both sides are infinite the landmark is simply uninformative (the
    comparisons are false and contribute 0).

    On a digraph (forward tables ``m = p(l → ·)``) only the first case
    bounds ``p(v_q → v_i)``; an all-``inf`` ``m̂`` leaves exactly that.
    """
    best = 0.0
    for j, mqj in enumerate(query_vector):
        lo = m_check[j]
        if mqj < lo:
            bound = lo - mqj
        else:
            hi = m_hat[j]
            if mqj > hi:
                bound = mqj - hi
            else:
                continue
        if bound > best:
            best = bound
            if best == INF:
                return INF
    return best


def minf(
    rank: RankingFunction,
    social_bound: float,
    spatial_bound: float,
) -> float:
    """Theorem 1: ``MINF = α·p̌ + (1−α)·ď`` (normalised, weighted)."""
    return rank.social_part(social_bound) + rank.spatial_part(spatial_bound)
