"""The NO-OP / REPAIR / RECOMPUTE rule for one update, the subscription
registry's screen and repair.

This module is the single home of the maintenance rule:
:func:`classify_location_update` (the screen) and
:func:`rescore_members` (the single-member re-score with its
escalation test).  :class:`repro.stream.registry.SubscriptionRegistry`
is its one consumer and keeps only its *policy*: NO-OP counts; REPAIR
queues the mover for one batched pass at read time (members re-scored,
possible entrants scored exactly and offered); RECOMPUTE marks the
subscription.  It screens every subscription on every update, so it
keeps no index of who is in which result.  The result cache screens
nothing: a location update evicts every cached answer below ``α = 1``
(:mod:`repro.service.cache`).

A stored top-k result ``R`` for query ``(q, k, α)`` changes under a
location update of user ``m`` in exactly three ways, and each is
detectable from ``R`` alone (the per-update *safe-condition* screen):

NO-OP
    The update provably cannot change ``R``.  Pure-social queries
    (``α = 1``) never see locations; and a mover outside ``R`` cannot
    enter it when even the spatial part of its new score already
    exceeds the threshold ``θ = f_k``: scores are
    ``f = α·p/P_max + (1−α)·d/D_max`` with ``p ≥ 0``, so
    ``(1−α)/D_max · d(q, m_new) > θ`` proves ``m`` out
    (:func:`entry_lower_bound`, computed with the stored
    :class:`~repro.core.ranking.RankingFunction`'s own weight so the
    floating-point association is the engine's).

REPAIR
    The update can change ``R``, but the new ``R`` is a function of the
    old one plus a *single candidate re-score*:

    - ``m ∈ R``: the move changed only ``m``'s spatial term — its
      social distance is location-independent and already stored on the
      :class:`~repro.core.result.Neighbor`.  If the re-scored key
      ``(f′, m)`` still does not exceed the old k-th key
      ``(f_k, id_k)``, every user outside ``R`` still scores strictly
      worse than the new k-th, so re-sorting ``R`` with ``m``'s new
      score *is* the fresh answer.  If it does exceed it, ``m`` may
      drop out and the old (k+1)-th — unknown — may return: RECOMPUTE.
    - ``m ∉ R`` and the screen cannot prove it out: score ``m`` exactly
      and offer it; it either displaces the current k-th or changes
      nothing.  (With ``|R| < k`` every located user is a candidate —
      the buffer has an open slot.)

RECOMPUTE
    The previous result carries no usable information: the *query
    user* moved (every spatial term changed), a member lost its
    location (it leaves, and the old (k+1)-th is unknown — chosen for
    open-slot results too, where dropping it would be exact: one rule,
    and the case is rare), or a member re-score escalated as above.

Safety argument (why REPAIR is exact): a fresh query's ranking differs
from ``R`` only in the scores of users whose location changed.  Every
non-moved non-member had key ``> (f_k, id_k)`` when ``R`` was exact —
that is precisely the top-k property — and repairs never raise the
k-th key above its old value, so those users remain out after the
repair; the moved users are re-scored with the engine's own primitives
(stored social distance, ``sqrt(dx²+dy²)`` spatial, the
:class:`~repro.core.ranking.RankingFunction` float association), so
admitted scores are bit-identical to what the search would have
produced.  The rule is therefore *exact*, not heuristic — the
whole-stack model (``tests/test_service_model.py``) checks the
registry's policy on every update and every maintained result against
Definition 1 over randomized interleavings.

Repairs reuse stored social distances, so the registry offers them only
for methods whose social distances are schedule-independent (forward
Dijkstra values —
:data:`~repro.stream.subscription.REPAIRABLE_METHODS`).  The AIS
family's bidirectional evaluations may legitimately differ by float
association (≤ 1 ulp between schedules), so AIS subscriptions skip
REPAIR and fall through to RECOMPUTE — NO-OP screening, the common
case, still applies.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Container, Mapping

from repro.core.result import Neighbor
from repro.spatial.point import euclidean

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.ranking import RankingFunction
    from repro.core.result import SSRQResult

INF = math.inf

#: update classifications
NOOP = "noop"
REPAIR = "repair"
RECOMPUTE = "recompute"


def entry_lower_bound(
    w_spatial: float, qx: float, qy: float, x: float, y: float
) -> float:
    """Spatial lower bound on the mover's new score as the engine would
    compute it: ``fl(w_spatial · sqrt(dx² + dy²))``.

    Mirrors :class:`~repro.core.ranking.RankingFunction`'s association
    exactly (``w_spatial`` is pre-divided by ``D_max``), so comparing
    it against ``f_k`` with ``>`` is a sound NO-OP proof: the engine's
    score ``fl(w_social·p + w_spatial·d)`` is never below
    ``fl(w_spatial·d)`` for non-negative parts.

        >>> from repro.stream.conditions import entry_lower_bound
        >>> entry_lower_bound(0.5, 0.0, 0.0, 3.0, 4.0)
        2.5
    """
    return w_spatial * euclidean(qx, qy, x, y)


def classify_location_update(
    mover: int,
    x: float | None,
    y: float | None,
    *,
    query_user: int,
    alpha: float,
    w_spatial: float,
    members: Container[int],
    size: int,
    k: int,
    fk: float,
    query_xy: tuple[float, float] | None,
) -> str:
    """Classify one location update against one standing query.

    ``members``/``size``/``fk`` describe the current result ``R``
    (``fk`` is the k-th score, ``inf`` while ``size < k``);
    ``query_xy`` is the query user's current position (``None`` when
    unlocated).  ``x is None`` encodes a forgotten location.

        >>> from repro.stream.conditions import classify_location_update
        >>> classify_location_update(
        ...     9, 5.0, 5.0, query_user=0, alpha=0.3, w_spatial=0.7,
        ...     members=frozenset({1, 2}), size=2, k=2, fk=0.4,
        ...     query_xy=(0.0, 0.0))
        'noop'
        >>> classify_location_update(
        ...     1, 0.1, 0.1, query_user=0, alpha=0.3, w_spatial=0.7,
        ...     members=frozenset({1, 2}), size=2, k=2, fk=0.4,
        ...     query_xy=(0.0, 0.0))
        'repair'
        >>> classify_location_update(
        ...     0, 0.9, 0.9, query_user=0, alpha=0.3, w_spatial=0.7,
        ...     members=frozenset({1, 2}), size=2, k=2, fk=0.4,
        ...     query_xy=(0.0, 0.0))
        'recompute'
    """
    if alpha == 1.0 or w_spatial == 0.0:
        return NOOP  # pure social: locations never matter
    if mover == query_user:
        return RECOMPUTE  # every spatial term changed (or q vanished)
    if x is None or y is None:
        # A forgotten location can only push the mover's score to inf:
        # a member drops out (old (k+1)-th unknown), a non-member
        # changes nothing.
        return RECOMPUTE if mover in members else NOOP
    if mover in members:
        return REPAIR  # single-candidate re-score (may escalate)
    if size < k:
        return REPAIR  # open slot: any located user may join
    if query_xy is None:
        return RECOMPUTE  # cannot screen without the query point
    lower = entry_lower_bound(w_spatial, query_xy[0], query_xy[1], x, y)
    # `>` (not `>=`): at equality the mover could still enter on the
    # smaller-id tie-break.
    if lower > fk:
        return NOOP
    return REPAIR


def rescore_members(
    result: "SSRQResult", rank: "RankingFunction", distance_of: Mapping[int, float]
) -> "list[Neighbor] | None":
    """The single-member re-score: ``result``'s neighbours with every
    member named in ``distance_of`` (user → its *new* spatial distance
    to the query user) re-scored under ``rank`` from its stored social
    distance, in stored order (callers re-sort).  ``None`` escalates to
    RECOMPUTE: a re-scored key exceeds the old k-th key ``(f_k, id_k)``
    of a full result — the member may have dropped below the unknown
    (k+1)-th — or the new score is not finite (the location vanished).
    Ids that are not members are ignored.
    """
    neighbors = result.neighbors
    kth_key = None
    if len(neighbors) >= result.k:
        worst = neighbors[-1]
        kth_key = (worst.score, worst.user)
    score = rank.score
    out = []
    for nb in neighbors:
        d = distance_of.get(nb.user)
        if d is not None:
            # The move changed only the spatial term: the social
            # distance is location-independent and already stored.
            new_score = score(nb.social, d)
            if new_score != new_score or new_score == INF:
                return None
            if kth_key is not None and (new_score, nb.user) > kth_key:
                return None
            nb = Neighbor(nb.user, new_score, nb.social, d)
        out.append(nb)
    return out
