"""The standing-query handle with its NO-OP / REPAIR / RECOMPUTE rule,
and the stream-maintenance counters.

This module is the single home of the maintenance rule:
:meth:`Subscription.classify` (the screen) and :func:`rescore_members`
(the single-member re-score with its escalation test).
:class:`repro.stream.registry.SubscriptionRegistry` is its one consumer
and keeps only its *policy*: NO-OP counts; REPAIR queues the mover for
one batched pass at read time (members re-scored, possible entrants
scored exactly and offered); RECOMPUTE marks the subscription.  It
screens every subscription on every update, so it keeps no index of
who is in which result.  The result cache screens nothing: a location
update evicts every cached answer below ``α = 1``
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
    ``(1−α)/D_max · d(q, m_new) > θ`` proves ``m`` out (computed with
    the stored :class:`~repro.core.ranking.RankingFunction`'s own
    weight so the floating-point association is the engine's).

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
:data:`~repro.plan.rules.FORWARD_DETERMINISTIC_METHODS`).  The AIS
family's bidirectional evaluations may legitimately differ by float
association (≤ 1 ulp between schedules), so AIS subscriptions skip
REPAIR and fall through to RECOMPUTE — NO-OP screening, the common
case, still applies.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Mapping

from repro.core.result import Neighbor
from repro.plan.rules import FORWARD_DETERMINISTIC_METHODS
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


class Subscription:
    """One registered standing query ``(user, k, α, method)``: the
    request that produced its result, the
    :class:`~repro.core.ranking.RankingFunction` that result was scored
    under, the maintained result and its membership, plus the stream
    state.

    Created by :meth:`SubscriptionRegistry.subscribe
    <repro.stream.registry.SubscriptionRegistry.subscribe>`, which
    mutates it under its own lock; treat it as an opaque handle plus
    read-only introspection.  ``request`` stays as it was asked, so
    every recompute resolves it again (the engine's endpoint rule, or
    the planner for ``"auto"``) against the engine of the moment;
    ``method`` reads the requested name until the
    first result and then names whatever the latest recompute ran, and
    ``repairable`` says whether single-candidate repair applies to it.
    ``error`` holds the engine's message while the query user has no
    location and the query's α needs one (``suspended``; a fresh query
    would raise, and so does reading); ``result`` is ``None`` then.

        >>> from repro import GeoSocialEngine, QueryService, gowalla_like
        >>> from repro.stream import SubscriptionRegistry
        >>> engine = GeoSocialEngine.from_dataset(gowalla_like(n=300, seed=7))
        >>> registry = SubscriptionRegistry(QueryService(engine, cache_size=0))
        >>> sub = registry.subscribe(user=8, k=5, alpha=0.3, method="tsa")
        >>> sub.user, sub.k, sub.repairable, sub.suspended
        (8, 5, True, False)
        >>> len(registry.result(sub).users)
        5
    """

    __slots__ = (
        "request",
        "rank",
        "result",
        "member_ids",
        "user",
        "k",
        "alpha",
        "method",
        "error",
        "pending",
        "recompute_pending",
        "noops",
        "repairs",
        "recomputes",
    )

    def __init__(self, request: "QueryRequest", rank: "RankingFunction") -> None:
        # ``request`` is what every maintenance recompute re-runs, as
        # asked; ``result``/``member_ids``/``method`` change together,
        # through :meth:`install`
        self.request = request
        self.rank = rank
        self.result: "SSRQResult | None" = None
        self.member_ids: frozenset = frozenset()
        self.user = request.user
        self.k = request.k
        self.alpha = request.alpha
        self.method = request.method
        self.error: str | None = None
        #: users whose moves await application — ids only: the repair
        #: pass reads their *current* positions from the location table
        self.pending: set[int] = set()
        self.recompute_pending = False
        self.noops = 0
        self.repairs = 0
        self.recomputes = 0

    def install(self, result: "SSRQResult | None") -> None:
        """Hold ``result`` (``None``: hold none), its membership and the
        method that produced it, so the result is screened and repaired
        as what actually ran."""
        self.result = result
        if result is None:
            self.member_ids = frozenset()
        else:
            self.member_ids = frozenset(nb.user for nb in result.neighbors)
            self.method = result.method

    def classify(
        self,
        mover: int,
        x: float | None,
        y: float | None,
        query_xy: tuple[float, float] | None,
    ) -> str:
        """Classify one location update of ``mover`` against the held
        result: NO-OP, REPAIR or RECOMPUTE.  ``x is None`` encodes a
        forgotten location; ``query_xy`` is the query user's current
        position (``None`` when unlocated).  A suspended subscription
        resumes (or keeps failing) only through its own query user.

            >>> from repro.core.ranking import Normalization, RankingFunction
            >>> from repro.core.request import QueryRequest
            >>> from repro.core.result import SSRQResult
            >>> sub = Subscription(QueryRequest(0, k=2, alpha=0.3, method="tsa"),
            ...                    RankingFunction(0.3, Normalization(1.0, 1.0)))
            >>> sub.install(SSRQResult(0, 2, 0.3, [Neighbor(1, 0.3, 0.1, 0.1),
            ...                                    Neighbor(2, 0.4, 0.2, 0.2)]))
            >>> [sub.classify(mover, x, x, (0.0, 0.0))
            ...  for mover, x in ((9, 5.0), (1, 0.1), (0, 0.9))]
            ['noop', 'repair', 'recompute']
        """
        if self.error is not None:
            return RECOMPUTE if mover == self.user else NOOP
        w_spatial = self.rank.w_spatial
        if self.alpha == 1.0 or w_spatial == 0.0:
            return NOOP  # pure social: locations never matter
        if mover == self.user:
            return RECOMPUTE  # every spatial term changed (or q vanished)
        if x is None or y is None:
            # A forgotten location can only push the mover's score to inf:
            # a member drops out (old (k+1)-th unknown), a non-member
            # changes nothing.
            return RECOMPUTE if mover in self.member_ids else NOOP
        if mover in self.member_ids:
            return REPAIR  # single-candidate re-score (may escalate)
        result = self.result
        if len(result.neighbors) < self.k:
            return REPAIR  # open slot: any located user may join
        if query_xy is None:
            return RECOMPUTE  # cannot screen without the query point
        # The spatial lower bound on the mover's new score as the engine
        # would compute it, fl(w_spatial · sqrt(dx² + dy²)): it mirrors
        # RankingFunction's association exactly (``w_spatial`` is
        # pre-divided by D_max), and the engine's score
        # fl(w_social·p + w_spatial·d) is never below fl(w_spatial·d)
        # for non-negative parts, so `>` against f_k is a sound proof.
        # `>` (not `>=`): at equality the mover could still enter on
        # the smaller-id tie-break.
        if w_spatial * euclidean(query_xy[0], query_xy[1], x, y) > result.fk:
            return NOOP
        return REPAIR

    # -- introspection -------------------------------------------------

    @property
    def suspended(self) -> bool:
        """Whether the query user's missing location keeps the query
        from being answered (``error`` holds why)."""
        return self.error is not None

    @property
    def repairable(self) -> bool:
        """Whether single-member repair applies to ``method`` (its
        social distances are forward-deterministic)."""
        return self.method in FORWARD_DETERMINISTIC_METHODS

    @property
    def dirty(self) -> bool:
        """Whether un-applied deltas are queued (the next read applies
        them)."""
        return self.recompute_pending or bool(self.pending)

    def __repr__(self) -> str:
        state = "suspended" if self.suspended else ("dirty" if self.dirty else "clean")
        return (
            f"Subscription(user={self.user}, k={self.k}, alpha={self.alpha}, "
            f"method={self.method!r}, {state})"
        )


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


@dataclass
class StreamStats:
    """Lifetime counters of one :class:`SubscriptionRegistry`.

        >>> from repro.stream import StreamStats
        >>> stats = StreamStats(noops=8, repair_marks=1, recompute_marks=1)
        >>> stats.snapshot()["noops"]
        8
        >>> round(stats.maintained_fraction, 2)
        0.9
    """

    #: subscriptions ever registered
    subscribed: int = 0
    #: location updates (moves and forgets) heard from the service
    location_updates: int = 0
    #: per-(update, subscription) classifications
    noops: int = 0
    repair_marks: int = 0
    recompute_marks: int = 0
    #: repair / recompute passes actually executed at read time
    repairs_applied: int = 0
    recomputes_applied: int = 0
    #: exact social-distance evaluations paid by repairs
    entrant_evaluations: int = 0
    #: engine swaps heard (a rebuild or a restore): everything recomputed
    engine_swaps: int = 0
    #: subscriptions currently suspended (query user unlocated)
    suspended: int = 0

    @property
    def maintained_fraction(self) -> float:
        """Fraction of per-subscription classifications that avoided a
        full recompute (``0.0`` before any classification)."""
        total = self.noops + self.repair_marks + self.recompute_marks
        return (self.noops + self.repair_marks) / total if total else 0.0

    def snapshot(self) -> dict:
        """The fields plus ``maintained_fraction``, as one plain dict."""
        return {**asdict(self), "maintained_fraction": self.maintained_fraction}
