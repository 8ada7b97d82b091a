"""The NO-OP / REPAIR / RECOMPUTE rule for one update — written here,
once, for every layer that keeps a top-k result past the query that
produced it.

This module is the single home of the maintenance rule:
:func:`classify_location_update` (the screen),
:meth:`StoredTopK.rescore_members` (the single-member re-score with its
escalation test) and :class:`StoredIndex` (the query-user/member
inverted index that finds the results an update touches directly).
Two consumers call it and keep only their *policy*:

- :class:`repro.service.cache.ResultCache` — NO-OP keeps the entry;
  REPAIR re-scores in place when the mover is a member of a repairable
  entry; everything else evicts (the next miss recomputes);
- :class:`repro.stream.registry.SubscriptionRegistry` — NO-OP counts;
  REPAIR queues the mover for one batched pass at read time (members
  re-scored, possible entrants scored exactly and offered); RECOMPUTE
  marks the subscription.

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
differential suites (``tests/test_stream_equivalence.py`` and, across
both consumers, ``tests/test_maintenance_differential.py``) pin
maintained ≡ fresh over randomized interleavings.

Repairs reuse stored social distances, so they are only offered for
methods whose social distances are schedule-independent (forward
Dijkstra values — :data:`REPAIRABLE_METHODS`).  The AIS family's
bidirectional evaluations may legitimately differ by float association
(≤ 1 ulp, see :mod:`repro.shard.engine`), so AIS subscriptions skip
REPAIR and fall through to RECOMPUTE — NO-OP screening, the common
case, still applies.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, AbstractSet, Container, Mapping

from repro.core.engine import FORWARD_DETERMINISTIC_METHODS
from repro.core.result import Neighbor
from repro.spatial.point import euclidean

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.ranking import RankingFunction
    from repro.core.request import QueryRequest
    from repro.core.result import SSRQResult

INF = math.inf

#: update classifications
NOOP = "noop"
REPAIR = "repair"
RECOMPUTE = "recompute"

#: the methods single-candidate repair applies to: exactly the ones
#: whose per-neighbor social distances are schedule-independent
#: forward-Dijkstra values, so a stored distance is bit-identical to
#: what a fresh search would recompute (a *core* property — see
#: :data:`repro.core.engine.FORWARD_DETERMINISTIC_METHODS`).  The AIS
#: family and the CH-backed methods evaluate bidirectionally
#: (association may differ by 1 ulp between schedules) and are not
#: repaired.
REPAIRABLE_METHODS = FORWARD_DETERMINISTIC_METHODS


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


def entry_radius(fk: float, w_spatial: float) -> float:
    """The spatial *reach* of a standing query: the distance beyond
    which no mover can enter its top-k.

    Conservatively inflated (relative ``1e-9`` + absolute ``1e-12``,
    far beyond 1-ulp rounding of the division) so that
    ``d > entry_radius(fk, w)`` implies ``fl(w·d) > fk`` — the
    per-subscription screen — for *any* ``d`` at least that far away.
    Used by the shard-aware delta router to skip whole groups of
    subscriptions in O(1).

        >>> from repro.stream.conditions import entry_radius
        >>> entry_radius(1.0, 0.5) >= 2.0
        True
        >>> entry_radius(float("inf"), 0.5)
        inf
        >>> entry_radius(1.0, 0.0)
        inf
    """
    if w_spatial <= 0.0 or fk == INF:
        return INF
    return (fk * (1.0 + 1e-9) + 1e-12) / w_spatial


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


_NONE: frozenset = frozenset()


class StoredTopK:
    """One stored top-k result and what the rule needs to maintain it:
    the query that produced it (``method`` already resolved), its
    :class:`~repro.core.ranking.RankingFunction`, the current result
    and its membership.  A result-cache entry is one of these; a
    :class:`~repro.stream.subscription.Subscription` extends it with
    the stream state.  ``result``/``member_ids`` change only through
    :meth:`StoredIndex.install`, which keeps the member index in
    lockstep.
    """

    __slots__ = ("request", "rank", "repairable", "result", "member_ids")

    def __init__(self, request: "QueryRequest", rank: "RankingFunction") -> None:
        self.request = request
        self.rank = rank
        #: whether single-member repair applies (:data:`REPAIRABLE_METHODS`)
        self.repairable = request.method in REPAIRABLE_METHODS
        self.result: "SSRQResult | None" = None
        self.member_ids: frozenset = _NONE

    def classify(
        self,
        mover: int,
        x: float | None,
        y: float | None,
        query_xy: tuple[float, float] | None,
    ) -> str:
        """:func:`classify_location_update` against this result
        (``query_xy``: the query user's current position)."""
        request = self.request
        result = self.result
        return classify_location_update(
            mover,
            x,
            y,
            query_user=request.user,
            alpha=request.alpha,
            w_spatial=self.rank.w_spatial,
            members=self.member_ids,
            size=len(result.neighbors),
            k=request.k,
            fk=result.fk,
            query_xy=query_xy,
        )

    def rescore_members(self, distance_of: Mapping[int, float]) -> "list[Neighbor] | None":
        """The single-member re-score: the stored neighbours with every
        member named in ``distance_of`` (user → its *new* spatial
        distance to the query user) re-scored from its stored social
        distance, in stored order (callers re-sort).  ``None`` escalates
        to RECOMPUTE: a re-scored key exceeds the old k-th key
        ``(f_k, id_k)`` of a full result — the member may have dropped
        below the unknown (k+1)-th — or the new score is not finite
        (the location vanished).  Ids that are not members are ignored.
        """
        neighbors = self.result.neighbors
        kth_key = None
        if len(neighbors) >= self.request.k:
            worst = neighbors[-1]
            kth_key = (worst.score, worst.user)
        score = self.rank.score
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


class StoredIndex:
    """The inverted index over :class:`StoredTopK` holders: by query
    user and by current member — the two ways a location update of one
    user touches a stored result *directly* (everything else is the
    entrant screen).  Not thread-safe: each consumer guards it with its
    own lock.
    """

    __slots__ = ("_by_query_user", "_by_member")

    def __init__(self) -> None:
        self._by_query_user: dict[int, set[StoredTopK]] = {}
        self._by_member: dict[int, set[StoredTopK]] = {}

    @staticmethod
    def _link(table: dict, users, stored: StoredTopK) -> None:
        for user in users:
            table.setdefault(user, set()).add(stored)

    @staticmethod
    def _unlink(table: dict, users, stored: StoredTopK) -> None:
        for user in users:
            holders = table.get(user)
            if holders is not None:
                holders.discard(stored)
                if not holders:
                    del table[user]

    def add(self, stored: StoredTopK) -> None:
        """Start tracking ``stored`` (by its query user, and by the
        members of whatever result it already holds)."""
        self._link(self._by_query_user, (stored.request.user,), stored)
        self._link(self._by_member, stored.member_ids, stored)

    def remove(self, stored: StoredTopK) -> None:
        """Stop tracking ``stored`` (no-op if it never was)."""
        self._unlink(self._by_query_user, (stored.request.user,), stored)
        self._unlink(self._by_member, stored.member_ids, stored)

    def install(self, stored: StoredTopK, result: "SSRQResult | None") -> None:
        """Give a tracked ``stored`` a new result (``None``: it holds
        none now), swapping its membership in the member index."""
        self._unlink(self._by_member, stored.member_ids, stored)
        stored.result = result
        stored.member_ids = (
            frozenset(nb.user for nb in result.neighbors) if result is not None else _NONE
        )
        self._link(self._by_member, stored.member_ids, stored)

    def touched(self, user: int) -> "AbstractSet[StoredTopK]":
        """The holders ``user`` issued or is a member of (a fresh set:
        callers may re-install while iterating it)."""
        return self._by_query_user.get(user, _NONE) | self._by_member.get(user, _NONE)

    def clear(self) -> None:
        self._by_query_user.clear()
        self._by_member.clear()
