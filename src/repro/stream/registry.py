"""The subscription registry: standing queries kept current across the
update stream.

:class:`SubscriptionRegistry` sits on top of a
:class:`~repro.service.QueryService` and its engine (single or
sharded — both expose the same listener/lock surface):

- **ingest** — it subscribes to the engine's location-listener hook,
  so every move applied through *any* path is observed inside the
  update's write lock (edge updates change nothing served until
  ``rebuild_engine`` swaps the engine, which the next read detects);
- **classify** — each (update, subscription) pair is screened with the
  NO-OP / REPAIR / RECOMPUTE rule of :mod:`repro.stream.conditions`
  (the one the result cache calls too): O(1) per subscription, no
  queries, no social distances;
- **route** — subscriptions are grouped by the *owning shard of their
  query user*; a group whose shard envelope (the widen-only
  :class:`~repro.shard.bounds.ShardBounds` bbox, which always contains
  its members) lies farther from the update than the group's
  :meth:`~repro.stream.subscription.Subscription.entry_reach` is
  skipped whole — on a sharded engine an update fans out only to
  shards whose pruning envelopes intersect it;
- **apply** — classifications only *mark*; the marked work is applied
  in one batched pass per subscription at read time (or via
  :meth:`SubscriptionRegistry.flush`), so a burst of moves costs one
  repair pass, not one per move.  Repairs re-score exactly the moved
  users — stored social distances, one
  :meth:`~repro.backend.base.Kernels.euclidean_to_point` call for the
  spatial column, a :class:`~repro.core.result.TopKBuffer` rebuild —
  and escalate to a recompute the moment the safe condition fails.

Reads are *linearizable with updates*: :meth:`SubscriptionRegistry.result`
applies pending work under the engine's read lock before returning, so
no stale result survives its invalidating update.

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

from repro.core.engine import AUTO
from repro.core.ranking import RankingFunction
from repro.core.request import QueryRequest
from repro.core.result import SSRQResult, TopKBuffer
from repro.core.stats import SearchStats
from repro.social.scan import materialize_column
from repro.stream.conditions import NOOP, RECOMPUTE, REPAIR, StoredIndex
from repro.stream.subscription import StreamStats, Subscription
from repro.utils.validation import check_user

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.service import QueryService

INF = math.inf

#: per-subscription cap on buffered repair deltas; beyond it a repair
#: pass would approach recompute cost, so the registry escalates (a
#: recompute also resets the buffer)
PENDING_LIMIT = 64


class _Group:
    """Subscriptions routed together (same owning shard of their query
    users), with a cached conservative entry radius."""

    __slots__ = ("sid", "subs", "radius", "dirty")

    def __init__(self, sid: int | None) -> None:
        self.sid = sid
        self.subs: set[Subscription] = set()
        self.radius = INF
        self.dirty = True

    def refresh_radius(self) -> None:
        self.radius = max(
            (sub.entry_reach() for sub in self.subs), default=0.0
        )
        self.dirty = False


class SubscriptionRegistry:
    """Continuous top-k subscriptions over a query service.

        >>> from repro import GeoSocialEngine, QueryService, gowalla_like
        >>> from repro.stream import SubscriptionRegistry
        >>> engine = GeoSocialEngine.from_dataset(gowalla_like(n=300, seed=7))
        >>> registry = SubscriptionRegistry(QueryService(engine, cache_size=0))
        >>> sub = registry.subscribe(user=8, k=5, alpha=0.3, method="spa")
        >>> engine.move_user(8, 0.5, 0.5)     # query user moved: recompute
        >>> registry.result(sub).users == engine.query(8, 5, 0.3, "spa").users
        True
        >>> registry.stats.recompute_marks
        1

    Parameters
    ----------
    service:
        The serving layer whose engine's update stream to follow.  The
        registry detects :meth:`~repro.service.QueryService.rebuild_engine`
        swaps on the next read and recomputes every subscription
        against the new engine.
    """

    def __init__(self, service: "QueryService") -> None:
        self.service = service
        self.stats = StreamStats()
        self._lock = threading.Lock()
        self._subs: set[Subscription] = set()
        self._index = StoredIndex()
        self._groups: dict[int | None, _Group] = {}
        self._engine = service.engine
        self._closed = False
        self._engine.add_location_listener(self._on_location_update)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Detach from the engine; further serving calls raise.
        Idempotent.

        Taken under the registry lock so it cannot interleave with
        :meth:`_ensure_current_engine`'s listener re-attachment — a
        closed registry must never end up wired to a freshly swapped-in
        engine."""
        with self._lock:
            self._closed = True
            self._engine.remove_location_listener(self._on_location_update)

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

    # -- engine currency ----------------------------------------------

    def _ensure_current_engine(self) -> None:
        """Detect a :meth:`~repro.service.QueryService.rebuild_engine`
        swap: re-attach the listener to the new engine and mark every
        subscription for recompute (updates between the swap and this
        detection were applied to indexes we never observed)."""
        if self.service.engine is not self._engine:
            with self._lock:
                new_engine = self.service.engine
                if new_engine is not self._engine and not self._closed:
                    self._engine.remove_location_listener(self._on_location_update)
                    new_engine.add_location_listener(self._on_location_update)
                    self._engine = new_engine
                    for sub in self._subs:
                        sub.recompute_pending = True
                        sub.pending.clear()
                        sub.rank = RankingFunction(sub.alpha, new_engine.normalization)
                    for group in self._groups.values():
                        group.dirty = True
                    self.stats.engine_swaps += 1

    def _read_locked_engine(self):
        """Acquire the read side of the current engine's lock (retrying
        across a concurrent engine swap, like the service does)."""
        while True:
            self._ensure_current_engine()
            engine = self._engine
            engine.rw_lock.acquire_read()
            if self._engine is engine and self.service.engine is engine:
                return engine
            engine.rw_lock.release_read()

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

        ``method="auto"`` stays ``auto`` for the subscription's whole
        life: the initial result and every maintenance recompute go
        through the engine's adaptive planner, which picks the method
        by its current cost estimates and observes what the recompute
        cost — a standing query is never pinned to whatever was
        cheapest (or was being explored) at subscribe time.
        ``sub.method`` follows ``result.method``, and repairability is
        classified off it (the planner's default candidates are
        forward-deterministic, so auto subscriptions repair in place).
        """
        self._check_open()
        request = QueryRequest.coerce(user, k, alpha, method)
        if request.method == AUTO:
            # One-time planner calibration *before* taking the read
            # lock (each probe acquires the read side itself, so a
            # pending update never queues behind the whole pass).
            self.service._precalibrate_planner()
        engine = self._read_locked_engine()
        try:
            # Validate everything *before* registering, so a bad request
            # cannot leave a half-registered subscription behind (coerce
            # checked the field types and ranges; the user id and the
            # method name are engine-level checks).
            check_user(request.user, engine.graph.n)
            if request.method != AUTO:
                request = request.with_method(engine.resolve_method(request))
            sub = Subscription(
                request, RankingFunction(request.alpha, engine.normalization)
            )
            with self._lock:
                self._subs.add(sub)
                self._index.add(sub)
                self.stats.subscribed += 1
                self.stats.active += 1
                self._recompute_locked(sub, engine)
            return sub
        finally:
            engine.rw_lock.release_read()

    def unsubscribe(self, sub: Subscription) -> None:
        """Deregister (no-op if already removed)."""
        with self._lock:
            if sub not in self._subs:
                return
            self._subs.discard(sub)
            self._index.remove(sub)
            self._ungroup_locked(sub)
            if sub.suspended:
                self.stats.suspended -= 1
            self.stats.active -= 1

    # -- serving -------------------------------------------------------

    def result(self, sub: Subscription) -> SSRQResult:
        """The subscription's current result, with every pending delta
        applied first (so it equals a fresh ``engine.query`` at this
        instant).  Raises ``ValueError`` — like the fresh query would —
        while the query user has no known location, and ``KeyError``
        for an unregistered subscription."""
        self._check_open()
        if sub not in self._subs:
            raise KeyError("subscription is not registered here")
        engine = self._read_locked_engine()
        try:
            with self._lock:
                if sub.dirty:
                    self._refresh_locked(sub, engine)
                if sub.suspended:
                    raise ValueError(sub.error or "subscription is suspended")
                assert sub.result is not None
                return sub.result
        finally:
            engine.rw_lock.release_read()

    def results(self) -> dict[Subscription, SSRQResult | None]:
        """Flush everything and return each subscription's current
        result (``None`` for suspended ones)."""
        self.flush()
        with self._lock:
            return {sub: sub.result for sub in self._subs}

    def flush(self) -> dict:
        """Apply all pending deltas in one pass per dirty subscription;
        returns ``{"repaired": r, "recomputed": c}`` for this pass."""
        self._check_open()
        engine = self._read_locked_engine()
        try:
            with self._lock:
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
        finally:
            engine.rw_lock.release_read()

    # -- classification (fires inside the update's write lock) ---------

    def _on_location_update(self, user: int, x: float | None, y: float | None) -> None:
        with self._lock:
            self.stats.location_updates += 1
            handled = self._index.touched(user)
            for sub in handled:
                self._classify_locked(sub, user, x, y)
            if x is None or y is None:
                return  # a forgotten location cannot create entrants
            # Entrant fan-out, shard-aware: a group is skipped whole
            # when the update lies beyond every member subscription's
            # entry reach from the group's shard envelope.
            mindist_fn = getattr(self._engine, "envelope_mindist", None)
            for group in self._groups.values():
                if group.dirty:
                    group.refresh_radius()
                if (
                    mindist_fn is not None
                    and group.sid is not None
                    and mindist_fn(group.sid, x, y) > group.radius
                ):
                    self.stats.group_skips += 1
                    continue
                for sub in group.subs:
                    if sub not in handled:
                        self._classify_locked(sub, user, x, y)

    def _classify_locked(
        self, sub: Subscription, user: int, x: float | None, y: float | None
    ) -> None:
        if sub.recompute_pending:
            return  # already marked as strongly as possible
        if sub.suspended or sub.result is None:
            # A suspended query resumes (or keeps failing) only through
            # its own query user.
            if user == sub.user:
                self._mark_recompute_locked(sub)
            else:
                sub.noops += 1
                self.stats.noops += 1
            return
        kind = sub.classify(user, x, y, self._engine.locations.get(sub.user))
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
        group = self._groups.get(sub.group)
        if group is not None:
            group.dirty = True

    # -- application (read lock + registry lock held) -------------------

    def _refresh_locked(self, sub: Subscription, engine) -> str:
        """Bring ``sub`` current: one batched repair pass, or a
        recompute when marked/escalated.  Returns the kind applied."""
        if sub.recompute_pending or sub.result is None:
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
        members = sub.rescore_members(dist_of)
        if members is None:
            return False  # a moved member may have dropped out (or vanished)
        buffer = TopKBuffer(sub.k)
        for nb in members:
            buffer.offer(nb.user, nb.score, nb.social, nb.spatial)
        needs_social = rank.needs_social
        member_ids = sub.member_ids
        # the query user's full social column (exact distances, ``inf``
        # included, as every forward-stream method computes them),
        # fetched when the first entrant needs it
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
                    cache = engine.social_cache
                    column = cache.peek_full(sub.user) if cache is not None else None
                    if column is None:  # kept for the next repair pass
                        column = materialize_column(engine, sub.user)
                self.stats.entrant_evaluations += 1
                p = float(column[user])
            buffer.offer(user, rank.score(p, d), p, d)
        stats = SearchStats()
        stats.extra["maintained"] = "repair"
        stats.extra["deltas_applied"] = len(ids)
        self._install_result_locked(
            sub,
            SSRQResult(
                sub.user, sub.k, sub.alpha, buffer.neighbors(), stats, method=sub.method
            ),
        )
        sub.repairs += 1
        self.stats.repairs_applied += 1
        return True

    def _recompute_locked(self, sub: Subscription, engine) -> str:
        sub.pending.clear()
        sub.recompute_pending = False
        was_suspended = sub.suspended
        try:
            result = engine.query(
                sub.request.with_method(AUTO) if sub.auto else sub.request
            )
        except ValueError as err:
            if "no known location" not in str(err):
                raise
            self._index.install(sub, None)
            self._ungroup_locked(sub)
            sub.suspended = True
            sub.error = str(err)
            if not was_suspended:
                self.stats.suspended += 1
        else:
            sub.suspended = False
            sub.error = None
            if sub.auto:
                sub.follow(result.method)
            self._install_result_locked(sub, result)
            self._regroup_locked(sub)
            if was_suspended:
                self.stats.suspended -= 1
        sub.recomputes += 1
        self.stats.recomputes_applied += 1
        return RECOMPUTE

    # -- index / group maintenance (registry lock held) -----------------

    def _install_result_locked(self, sub: Subscription, result: SSRQResult) -> None:
        self._index.install(sub, result)
        group = self._groups.get(sub.group)
        if group is not None:
            group.dirty = True

    def _group_key(self, sub: Subscription) -> int | None:
        shard_of_user = getattr(self._engine, "shard_of_user", None)
        if shard_of_user is None:
            return None
        return shard_of_user(sub.user)

    def _regroup_locked(self, sub: Subscription) -> None:
        key = self._group_key(sub)
        group = self._groups.get(key)
        if group is not None and sub in group.subs:
            group.dirty = True
            return
        self._ungroup_locked(sub)
        if group is None:
            group = self._groups[key] = _Group(key)
        group.subs.add(sub)
        sub.group = key
        group.dirty = True

    def _ungroup_locked(self, sub: Subscription) -> None:
        group = self._groups.get(sub.group)
        if group is not None and sub in group.subs:
            group.subs.discard(sub)
            group.dirty = True
            if not group.subs:
                del self._groups[sub.group]

    # -- introspection -------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"SubscriptionRegistry(subscriptions={len(self._subs)}, "
            f"updates={self.stats.location_updates}, "
            f"noops={self.stats.noops}, repairs={self.stats.repairs_applied}, "
            f"recomputes={self.stats.recomputes_applied})"
        )
