"""The standing-query handle and the stream-maintenance counters.

A :class:`Subscription` is owned by a
:class:`~repro.stream.registry.SubscriptionRegistry`: the registry
mutates its pending-delta state under its own lock, applies repairs
and recomputes on read, and keeps the per-subscription counters that
let operators see *why* maintenance is cheap (how many updates were
proven irrelevant versus repaired versus recomputed).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from repro.core.engine import FORWARD_DETERMINISTIC_METHODS
from repro.stream.conditions import classify_location_update

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.ranking import RankingFunction
    from repro.core.request import QueryRequest
    from repro.core.result import SSRQResult

#: the methods the registry's batched repair applies to: exactly the
#: ones whose per-neighbor social distances are schedule-independent
#: forward-Dijkstra values, so a stored distance is bit-identical to
#: what a fresh search would recompute (a *core* property — see
#: :data:`repro.core.engine.FORWARD_DETERMINISTIC_METHODS`).  The AIS
#: family and the CH-backed methods evaluate bidirectionally
#: (association may differ by 1 ulp between schedules) and are not
#: repaired.
REPAIRABLE_METHODS = FORWARD_DETERMINISTIC_METHODS


class Subscription:
    """One registered standing query ``(user, k, α, method)``: the
    request that produced its result, the
    :class:`~repro.core.ranking.RankingFunction` that result was scored
    under, the maintained result and its membership, plus the stream
    state.

    Created by :meth:`SubscriptionRegistry.subscribe
    <repro.stream.registry.SubscriptionRegistry.subscribe>`; treat it
    as an opaque handle plus read-only introspection.  ``request``
    stays as it was asked, so every recompute resolves it again (the
    engine's endpoint rule, or the planner for ``"auto"``) against the
    engine of the moment; ``method`` reads the requested name until the
    first result and then names whatever the latest recompute ran, and
    ``repairable`` says whether single-candidate repair applies to it
    (see :data:`REPAIRABLE_METHODS`).

        >>> from repro import GeoSocialEngine, QueryService, gowalla_like
        >>> from repro.stream import SubscriptionRegistry
        >>> engine = GeoSocialEngine.from_dataset(gowalla_like(n=300, seed=7))
        >>> registry = SubscriptionRegistry(QueryService(engine, cache_size=0))
        >>> sub = registry.subscribe(user=8, k=5, alpha=0.3, method="tsa")
        >>> sub.user, sub.k, sub.repairable, sub.active
        (8, 5, True, True)
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
        "repairable",
        "suspended",
        "error",
        "pending",
        "recompute_pending",
        "noops",
        "repairs",
        "recomputes",
    )

    def __init__(self, request: "QueryRequest", rank: "RankingFunction") -> None:
        # ``request`` is what every maintenance recompute re-runs, as
        # asked; ``result`` is ``None`` while suspended, and ``result``/``member_ids`` change
        # together, through :meth:`install`
        self.request = request
        self.rank = rank
        self.result: "SSRQResult | None" = None
        self.member_ids: frozenset = frozenset()
        self.user = request.user
        self.k = request.k
        self.alpha = request.alpha
        self.method = request.method
        #: whether single-member repair applies (:data:`REPAIRABLE_METHODS`)
        self.repairable = request.method in REPAIRABLE_METHODS
        #: True while the query user has no location and the query's
        #: α needs one — a fresh query would raise; so does reading
        self.suspended = False
        self.error: str | None = None
        #: users whose moves await application — ids only: the repair
        #: pass reads their *current* positions from the location table
        self.pending: set[int] = set()
        self.recompute_pending = False
        self.noops = 0
        self.repairs = 0
        self.recomputes = 0

    def follow(self, method: str) -> None:
        """Track the ``method`` the latest recompute ran, so the stored
        result is screened and repaired as what actually produced it."""
        self.method = method
        self.repairable = method in REPAIRABLE_METHODS

    def install(self, result: "SSRQResult | None") -> None:
        """Hold ``result`` (``None``: hold none) and its membership."""
        self.result = result
        self.member_ids = (
            frozenset(nb.user for nb in result.neighbors) if result is not None else frozenset()
        )

    def classify(
        self,
        mover: int,
        x: float | None,
        y: float | None,
        query_xy: tuple[float, float] | None,
    ) -> str:
        """:func:`~repro.stream.conditions.classify_location_update`
        against the held result (``query_xy``: the query user's current
        position)."""
        result = self.result
        return classify_location_update(
            mover,
            x,
            y,
            query_user=self.user,
            alpha=self.alpha,
            w_spatial=self.rank.w_spatial,
            members=self.member_ids,
            size=len(result.neighbors),
            k=self.k,
            fk=result.fk,
            query_xy=query_xy,
        )

    # -- introspection -------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether the subscription currently holds a servable result."""
        return not self.suspended

    @property
    def dirty(self) -> bool:
        """Whether un-applied deltas are queued (the next read applies
        them)."""
        return self.recompute_pending or bool(self.pending)

    def members(self) -> frozenset:
        """Current result membership (empty while suspended)."""
        return self.member_ids

    def __repr__(self) -> str:
        state = "suspended" if self.suspended else ("dirty" if self.dirty else "clean")
        return (
            f"Subscription(user={self.user}, k={self.k}, alpha={self.alpha}, "
            f"method={self.method!r}, {state})"
        )


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

    #: subscriptions ever registered / currently registered
    subscribed: int = 0
    active: int = 0
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
