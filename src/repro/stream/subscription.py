"""The standing-query handle and the stream-maintenance counters.

A :class:`Subscription` is owned by a
:class:`~repro.stream.registry.SubscriptionRegistry`: the registry
mutates its pending-delta state under its own lock, applies repairs
and recomputes on read, and keeps the per-subscription counters that
let operators see *why* maintenance is cheap (how many updates were
proven irrelevant versus repaired versus recomputed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.plan.rules import AUTO
from repro.stream.conditions import REPAIRABLE_METHODS, StoredTopK, entry_radius

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.ranking import RankingFunction
    from repro.core.request import QueryRequest

INF = math.inf


class Subscription(StoredTopK):
    """One registered standing query ``(user, k, α, method)`` — a
    :class:`~repro.stream.conditions.StoredTopK` (request, ranking
    function, maintained result and membership) plus the stream state.

    Created by :meth:`SubscriptionRegistry.subscribe
    <repro.stream.registry.SubscriptionRegistry.subscribe>`; treat it
    as an opaque handle plus read-only introspection.  ``method`` is
    stored pre-routed (endpoint α values route exactly like
    :meth:`~repro.core.engine.GeoSocialEngine.query` does), and
    ``repairable`` says whether single-candidate repair applies (see
    :data:`~repro.stream.conditions.REPAIRABLE_METHODS`).  A
    subscription requested as ``"auto"`` (:attr:`auto`) is re-resolved
    by the planner on every recompute; its ``method`` reads ``"auto"``
    until the first result and then names whatever the latest
    recompute ran.

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
        "user",
        "k",
        "alpha",
        "method",
        "auto",
        "suspended",
        "error",
        "group",
        "pending",
        "recompute_pending",
        "noops",
        "repairs",
        "recomputes",
    )

    def __init__(self, request: "QueryRequest", rank: "RankingFunction") -> None:
        # ``request`` is what every maintenance recompute re-runs
        # (as ``"auto"`` again when :attr:`auto`); ``result`` is
        # ``None`` while suspended
        super().__init__(request, rank)
        self.user = request.user
        self.k = request.k
        self.alpha = request.alpha
        self.method = request.method
        #: requested as ``"auto"``: the planner picks the method of
        #: each recompute, and :meth:`follow` tracks its pick
        self.auto = request.method == AUTO
        #: True while the query user has no location and the query's
        #: α needs one — a fresh query would raise; so does reading
        self.suspended = False
        self.error: str | None = None
        #: delta-routing group key (owning shard id, or ``None``)
        self.group: int | None = None
        #: users whose moves await application — ids only: the repair
        #: pass reads their *current* positions from the location table
        self.pending: set[int] = set()
        self.recompute_pending = False
        self.noops = 0
        self.repairs = 0
        self.recomputes = 0

    def follow(self, method: str) -> None:
        """Pin the stored request to the ``method`` the latest
        recompute resolved to, so the stored result is screened and
        repaired as what actually produced it."""
        if method != self.method:
            self.request = self.request.with_method(method)
            self.method = method
            self.repairable = method in REPAIRABLE_METHODS

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

    def entry_reach(self) -> float:
        """Spatial radius beyond which no mover can enter this top-k
        (``inf`` while the buffer has an open slot; ``0`` when
        locations cannot matter)."""
        if self.alpha == 1.0 or self.rank.w_spatial == 0.0:
            return 0.0
        if self.suspended or self.recompute_pending or self.result is None:
            return 0.0  # already marked / nothing maintained: no screen needed
        if len(self.result.neighbors) < self.k:
            return INF
        return entry_radius(self.result.fk, self.rank.w_spatial)

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
    #: location updates observed by the listener
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
    #: whole subscription groups skipped by the shard-aware router
    group_skips: int = 0
    #: engine swaps detected (rebuild_engine): everything recomputed
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
        """A plain-dict view (stable keys, handy for logging)."""
        return {
            "subscribed": self.subscribed,
            "active": self.active,
            "location_updates": self.location_updates,
            "noops": self.noops,
            "repair_marks": self.repair_marks,
            "recompute_marks": self.recompute_marks,
            "repairs_applied": self.repairs_applied,
            "recomputes_applied": self.recomputes_applied,
            "entrant_evaluations": self.entrant_evaluations,
            "group_skips": self.group_skips,
            "engine_swaps": self.engine_swaps,
            "suspended": self.suspended,
            "maintained_fraction": self.maintained_fraction,
        }
