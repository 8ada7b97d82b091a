"""The subscription registry: standing queries kept current across the
update stream.

:class:`SubscriptionRegistry` sits on top of a
:class:`~repro.service.QueryService` and its engine:

- **ingest** — it follows the service
  (:meth:`~repro.service.QueryService.follow`), so every move or
  forget reaches it inside the update's write lock, and so does every
  engine swap (edge updates change
  nothing served until ``rebuild_engine`` swaps the engine, and the
  swap marks every subscription for recompute);
- **classify** — every update, a move or a forget, is screened
  against every subscription with the NO-OP / REPAIR / RECOMPUTE rule
  of :meth:`Subscription.classify
  <repro.stream.subscription.Subscription.classify>`: O(1) per
  subscription, no queries, no social distances, and no index of who
  is in which result;
- **apply** — classifications only *mark*; the marked work is applied
  in one batched pass per subscription at read time (or via
  :meth:`SubscriptionRegistry.flush`), so a burst of moves costs one
  repair pass, not one per move.  Repairs re-score exactly the moved
  users — stored social distances, one
  :meth:`~repro.backend.NumpyKernels.euclidean_to_point` call for the
  spatial column, a :class:`~repro.core.result.TopKBuffer` rebuild —
  and escalate to a recompute the moment the safe condition fails.
  This is the only layer that screens or repairs: the result cache
  evicts every answer below ``α = 1`` on each location update.

Reads are *linearizable with updates*: :meth:`SubscriptionRegistry.result`
applies pending work under the service's read lock before
returning, so no stale result survives its invalidating update.

    >>> from repro import GeoSocialEngine, QueryService, gowalla_like
    >>> from repro.stream import SubscriptionRegistry
    >>> engine = GeoSocialEngine.from_dataset(gowalla_like(n=300, seed=7))
    >>> service = QueryService(engine, cache_size=64)
    >>> registry = SubscriptionRegistry(service)
    >>> sub = registry.subscribe(user=8, k=5, alpha=0.3, method="tsa")
    >>> registry.result(sub).users == engine.query(8, 5, 0.3, "tsa").users
    True
    >>> service.move_user(42, 0.9, 0.9)
    >>> registry.result(sub).users == engine.query(8, 5, 0.3, "tsa").users
    True
"""

from __future__ import annotations

import math
import threading
from typing import TYPE_CHECKING, Iterator

from repro.core.ranking import RankingFunction
from repro.core.request import QueryRequest
from repro.core.result import SSRQResult, TopKBuffer
from repro.social.scan import materialize_column
from repro.stream.subscription import (
    NOOP,
    RECOMPUTE,
    REPAIR,
    StreamStats,
    Subscription,
    rescore_members,
)
from repro.utils.validation import UnlocatedUserError

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.service import QueryService

INF = math.inf

#: per-subscription cap on buffered repair deltas; beyond it a repair
#: pass would approach recompute cost, so the registry escalates (a
#: recompute also resets the buffer)
PENDING_LIMIT = 64


class SubscriptionRegistry:
    """Continuous top-k subscriptions over a query service.

        >>> from repro import GeoSocialEngine, QueryService, gowalla_like
        >>> from repro.stream import SubscriptionRegistry
        >>> engine = GeoSocialEngine.from_dataset(gowalla_like(n=300, seed=7))
        >>> service = QueryService(engine, cache_size=0)
        >>> registry = SubscriptionRegistry(service)
        >>> sub = registry.subscribe(user=8, k=5, alpha=0.3, method="spa")
        >>> service.move_user(8, 0.5, 0.5)    # query user moved: recompute
        >>> registry.result(sub).users == engine.query(8, 5, 0.3, "spa").users
        True
        >>> registry.stats.recompute_marks
        1

    Parameters
    ----------
    service:
        The serving layer to follow.  Each engine swap it makes
        (:meth:`~repro.service.QueryService.rebuild_engine`, a restore)
        marks every subscription for recompute against the new engine.
        Once the service is closed, every serving call raises
        ``RuntimeError``.
    """

    def __init__(self, service: "QueryService") -> None:
        self.service = service
        self.stats = StreamStats()
        self._lock = threading.Lock()
        self._subs: set[Subscription] = set()
        self._closed = False
        service.follow(self)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Stop following the service; further serving calls raise.
        Idempotent."""
        self._closed = True
        self.service.unfollow(self)

    def __enter__(self) -> "SubscriptionRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("SubscriptionRegistry is closed")

    def __len__(self) -> int:
        return len(self._subs)

    def __iter__(self) -> Iterator[Subscription]:
        return iter(list(self._subs))

    # -- registration --------------------------------------------------

    def subscribe(
        self,
        user: "int | QueryRequest",
        k: int | None = None,
        alpha: float | None = None,
        method: str | None = None,
    ) -> Subscription:
        """Register a standing query and compute its initial result.

        A query user without a known location (and ``alpha < 1``)
        yields a *suspended* subscription — exactly the queries a fresh
        ``engine.query`` would reject — that resumes automatically once
        the user reports a location.

        The request stays as it was asked for the subscription's whole
        life: the initial result and every maintenance recompute resolve
        it again (``auto`` through the engine's planner, ``bounded`` at
        interior ``alpha``), so a swap to an engine with another
        ``P_max`` never reruns a stale method.  ``sub.method`` follows
        ``result.method``, and repairability is classified off it
        (``bounded`` is forward-deterministic, so auto subscriptions
        repair in place).
        """
        self._check_open()
        request = QueryRequest.coerce(user, k, alpha, method)
        with self.service._read_locked_engine() as engine:
            # The initial recompute runs *before* registering, so a bad
            # request (an unknown user or method raises, an unlocated
            # user only suspends) leaves no half-registered subscription
            # behind.
            sub = Subscription(
                request, RankingFunction(request.alpha, engine.normalization)
            )
            with self._lock:
                self._recompute_locked(sub, engine)
                self._subs.add(sub)
                self.stats.subscribed += 1
            return sub

    def unsubscribe(self, sub: Subscription) -> None:
        """Deregister (no-op if already removed)."""
        with self._lock:
            if sub not in self._subs:
                return
            self._subs.discard(sub)
            if sub.suspended:
                self.stats.suspended -= 1

    # -- serving -------------------------------------------------------

    def result(self, sub: Subscription) -> SSRQResult:
        """The subscription's current result, with every pending delta
        applied first (so it equals a fresh ``engine.query`` at this
        instant).  Raises :class:`UnlocatedUserError` — like the fresh
        query would — while the query user has no known location, and
        ``KeyError`` for an unregistered subscription."""
        self._check_open()
        if sub not in self._subs:
            raise KeyError("subscription is not registered here")
        with self.service._read_locked_engine() as engine, self._lock:
            if sub.dirty:
                self._refresh_locked(sub, engine)
            if sub.suspended:
                raise UnlocatedUserError(sub.error)
            return sub.result

    def flush(self) -> dict:
        """Apply all pending deltas in one pass per dirty subscription;
        returns ``{"repaired": r, "recomputed": c}`` for this pass."""
        self._check_open()
        with self.service._read_locked_engine() as engine, self._lock:
            repaired = recomputed = 0
            for sub in self._subs:
                if not sub.dirty:
                    continue
                kind = self._refresh_locked(sub, engine)
                if kind == REPAIR:
                    repaired += 1
                elif kind == RECOMPUTE:
                    recomputed += 1
            return {"repaired": repaired, "recomputed": recomputed}

    # -- following the service (inside the change's write lock) --------

    def location_updated(self, user: int, x: float | None, y: float | None) -> None:
        """Screen every subscription against one move or forget: the
        mover may be its query user, a member or a possible entrant."""
        with self._lock:
            self.stats.location_updates += 1
            for sub in self._subs:
                self._classify_locked(sub, user, x, y)

    def engine_swapped(self, engine) -> None:
        """Mark every subscription for recompute against ``engine``
        (its graph, and so every social distance, may differ)."""
        with self._lock:
            for sub in self._subs:
                sub.recompute_pending = True
                sub.pending.clear()
                sub.rank = RankingFunction(sub.alpha, engine.normalization)
            self.stats.engine_swaps += 1

    def _classify_locked(
        self, sub: Subscription, user: int, x: float | None, y: float | None
    ) -> None:
        if sub.recompute_pending:
            return  # already marked as strongly as possible
        kind = sub.classify(user, x, y, self.service.engine.locations.get(sub.user))
        if kind == NOOP:
            # The mover is provably out *at its current position*; a
            # queued earlier mark (it is not a member) is obsolete.
            sub.pending.discard(user)
            sub.noops += 1
            self.stats.noops += 1
        elif kind == REPAIR and sub.repairable:
            sub.pending.add(user)
            self.stats.repair_marks += 1
            if len(sub.pending) > PENDING_LIMIT:
                self._mark_recompute_locked(sub)
        else:
            self._mark_recompute_locked(sub)

    def _mark_recompute_locked(self, sub: Subscription) -> None:
        sub.recompute_pending = True
        sub.pending.clear()
        self.stats.recompute_marks += 1

    # -- application (read lock + registry lock held) -------------------

    def _refresh_locked(self, sub: Subscription, engine) -> str:
        """Bring ``sub`` current: one batched repair pass, or a
        recompute when marked/escalated.  Returns the kind applied."""
        if sub.recompute_pending:
            return self._recompute_locked(sub, engine)
        if not sub.pending:
            return NOOP
        if self._repair_locked(sub, engine):
            return REPAIR
        return self._recompute_locked(sub, engine)

    def _repair_locked(self, sub: Subscription, engine) -> bool:
        """Apply the pending moves to ``sub.result`` exactly; ``False``
        escalates (a moved member may have dropped out)."""
        pending, sub.pending = sub.pending, set()
        rank = sub.rank
        query_xy = engine.locations.get(sub.user)
        if query_xy is None:
            return False  # should have been marked via the query user
        qx, qy = query_xy
        ids = sorted(pending)
        xs, ys = engine.locations.columns()
        distances = engine.kernels.euclidean_to_point(xs, ys, qx, qy, ids)
        dist_of = {user: float(d) for user, d in zip(ids, distances)}
        members = rescore_members(sub.result, rank, dist_of)
        if members is None:
            return False  # a moved member may have dropped out (or vanished)
        buffer = TopKBuffer(sub.k)
        for nb in members:
            buffer.offer(nb.user, nb.score, nb.social, nb.spatial)
        needs_social = rank.needs_social
        member_ids = sub.member_ids
        # the query user's social column (exact distances, ``inf``
        # included, as every forward-stream method computes them),
        # fetched when the first entrant needs it: at the column cache's
        # layout, which holds every located user, or over every user
        cache = engine.social_cache
        layout = cache.layout if cache is not None else None
        column = None
        for user in ids:
            if user in member_ids:
                continue
            d = dist_of[user]
            if d == INF:
                continue  # unlocated (or the position was since forgotten)
            p = INF
            if needs_social:
                if column is None:
                    column = cache.peek_full(sub.user) if cache is not None else None
                    if column is None:  # kept for the next repair pass
                        column = materialize_column(engine, sub.user)
                self.stats.entrant_evaluations += 1
                p = float(column[user if layout is None else layout.searchsorted(user)])
            buffer.offer(user, rank.score(p, d), p, d)
        sub.install(SSRQResult(sub.user, sub.k, sub.alpha, buffer.neighbors(), method=sub.method))
        sub.repairs += 1
        self.stats.repairs_applied += 1
        return True

    def _recompute_locked(self, sub: Subscription, engine) -> str:
        sub.pending.clear()
        sub.recompute_pending = False
        try:
            result, error = engine.query(sub.request), None
        except UnlocatedUserError as err:
            result, error = None, str(err)
        self.stats.suspended += (error is not None) - sub.suspended
        sub.install(result)
        sub.error = error
        sub.recomputes += 1
        self.stats.recomputes_applied += 1
        return RECOMPUTE

    # -- introspection -------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"SubscriptionRegistry(subscriptions={len(self._subs)}, "
            f"updates={self.stats.location_updates}, "
            f"noops={self.stats.noops}, repairs={self.stats.repairs_applied}, "
            f"recomputes={self.stats.recomputes_applied})"
        )
