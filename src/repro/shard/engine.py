"""Sharded scatter-gather SSRQ engine.

:class:`ShardedGeoSocialEngine` partitions users across N spatial
shards and answers every query by scatter-gather: per-shard top-k
searches over member-filtered indexes, merged through the
:func:`~repro.topk.merge.merge_topk` combiner, with provably
non-contributing shards pruned by a shard-level ``MINF`` bound
(:mod:`repro.shard.bounds`).

**Why results are identical to one big engine.**  Every shard engine
shares the *full* social graph, the *global* location table, the
landmark index, and the normalization — so any score it reports is the
exact global score.  A shard's spatial indexes cover only its members,
so its local top-k ranks a *superset of its members* (social-stream
methods may also surface a few non-members; duplicates collapse in the
merge).  Any user of the global top-k is a member of exactly one shard
and therefore survives its home shard's local top-k; merging the shard
streams through the same ``(score, user)`` tie-break every single-engine
algorithm uses reproduces the global ranking exactly, including order.
Methods whose distances come from forward Dijkstra streams (SPA, TSA
and variants, SFA, bruteforce) reproduce the single engine's results
*bit-identically*, raw distances included, because a forward Dijkstra
distance depends only on the (unique) shortest path, not the schedule;
the AIS family's bidirectional evaluations sum forward+backward parts
at a schedule-dependent meeting vertex, so its scores may differ from
the single engine's by float associativity (≤ 1 ulp — the same noise
the single engine shows between its own methods) while the rankings
stay identical.

**Why pruning is exact.**  A shard's bound lower-bounds each member's
score (Theorem 1 lifted to the partition); a shard is skipped only when
its bound *strictly* exceeds the current merged ``f_k``, which only
tightens as shards merge — so every skipped member scores strictly
worse than the final k-th answer and could not even win a tie-break.

**Why it is fast.**  Social ties concentrate in geographic cells
(Watts–Dodds–Newman; Herrera-Yagüe et al.), so both score ingredients
are small exactly where the query lives: the home shard (searched
first — its bound is 0) usually fills the top-k, and remote shards
prune.  The survivors run in parallel over
:class:`~repro.utils.concurrency.TaskPool`.

Methods whose candidate stream is purely social (``sfa``,
``bruteforce``, and everything at ``alpha == 1``) never touch a spatial
index; they are delegated to a single shard engine, whose shared
graph + global table make the answer globally exact.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.backend import Kernels
from repro.core.engine import EngineBase, GeoSocialEngine
from repro.core.ranking import Normalization, RankingFunction
from repro.core.request import QueryRequest
from repro.core.result import SSRQResult
from repro.core.stats import SearchStats
from repro.graph.landmarks import LandmarkIndex
from repro.graph.socialgraph import SocialGraph
from repro.plan.rules import METHOD_TABLE
from repro.shard.bounds import ShardBounds
from repro.shard.journal import DeltaJournal, LocationDelta
from repro.shard.partitioner import Partitioner, make_partitioner
from repro.social.cache import SocialColumnCache
from repro.social.scan import peek_scan
from repro.spatial.point import LocationTable
from repro.topk.merge import merge_topk
from repro.utils.concurrency import TaskPool

if TYPE_CHECKING:
    from repro.plan.planner import AdaptivePlanner

INF = math.inf

#: methods answered by one shard engine (no spatial index involved:
#: the shared graph and global location table make them globally exact;
#: "approx" scores global columnar sketches, so it never scatters)
DELEGATED_METHODS = frozenset(
    name for name, spec in METHOD_TABLE.items() if spec.delegated
)


@dataclass
class ScatterStats:
    """Cumulative scatter-gather counters of one sharded engine.

        >>> from repro.shard.engine import ScatterStats
        >>> stats = ScatterStats(scatter_queries=2, shards_considered=8, shards_searched=3)
        >>> stats.shards_pruned, round(stats.pruned_fraction, 3)
        (5, 0.833)
    """

    #: scatter-gather queries answered (delegated ones excluded)
    scatter_queries: int = 0
    #: queries answered by a single delegated shard engine
    delegated_queries: int = 0
    #: nonempty shards that were candidates across all scatter queries
    shards_considered: int = 0
    #: per-shard searches actually executed
    shards_searched: int = 0
    #: scatter-eligible queries answered at the coordinator by one
    #: dense scan over a cached social column (no shard was searched)
    column_scans: int = 0

    @property
    def shards_pruned(self) -> int:
        return self.shards_considered - self.shards_searched

    @property
    def pruned_fraction(self) -> float:
        """Fraction of *non-home* candidate shards skipped by the bound
        (the home shard is always searched)."""
        prunable = self.shards_considered - self.scatter_queries
        return self.shards_pruned / prunable if prunable > 0 else 0.0

    def snapshot(self) -> dict:
        return {
            "scatter_queries": self.scatter_queries,
            "delegated_queries": self.delegated_queries,
            "shards_considered": self.shards_considered,
            "shards_searched": self.shards_searched,
            "shards_pruned": self.shards_pruned,
            "pruned_fraction": self.pruned_fraction,
            "column_scans": self.column_scans,
        }


class ShardedGeoSocialEngine(EngineBase):
    """Spatially partitioned SSRQ engine with the single-engine API.

        >>> from repro import gowalla_like
        >>> from repro.shard import ShardedGeoSocialEngine
        >>> dataset = gowalla_like(n=300, seed=7)
        >>> sharded = ShardedGeoSocialEngine.from_dataset(dataset, n_shards=4)
        >>> result = sharded.query(user=0, k=5, alpha=0.3, method="ais")
        >>> result.users == sharded.query(0, 5, 0.3, method="bruteforce").users
        True

    Drop-in for :class:`~repro.core.engine.GeoSocialEngine` wherever the
    service layer is concerned: both are :class:`~repro.core.engine.
    EngineBase` facades — one ``query`` pipeline, the same
    ``query_many``/listener/``rw_lock``/``save``/``load`` surface,
    bit-identical rankings.  What this class adds is the partition, the
    per-shard pruning bounds, the scatter (inline or process-backed),
    boundary-crossing move routing, and the delta journal.

    Parameters
    ----------
    graph, locations:
        The social graph and the *global* user location table (shared
        by every shard engine; at least one located user is required).
    n_shards:
        Number of spatial partitions (ignored when ``partitioner`` is
        given).
    partitioner:
        A pre-fitted :class:`~repro.shard.partitioner.Partitioner`, or
        ``None`` to fit one of ``partitioner_kind`` to the data.
    partitioner_kind:
        ``"grid"`` (regular tiling, default) or ``"kd"`` (balanced
        median splits).
    max_workers:
        Worker-pool width for the parallel scatter phase (default:
        ``min(4, cpus, n_shards)``; ``1`` scatters sequentially with
        progressive pruning).
    shard_s:
        Grid fanout of each shard's indexes (default: ``s / sqrt(N)``,
        keeping per-cell population comparable to the single engine's;
        results never depend on it, only search cost does).
    num_landmarks, landmark_strategy, s, seed, normalization:
        As on :class:`~repro.core.engine.GeoSocialEngine`; landmarks
        and normalization are computed once and shared by every shard.
    landmarks:
        Optional pre-built landmark index to share (rebuilt from the
        graph when omitted).
    backend:
        Candidate-evaluation backend (see
        :func:`repro.backend.resolve_backend`), resolved **once** here
        and propagated to every shard engine — a sharded deployment
        never mixes backends, and :meth:`with_graph` rebuilds (hence
        :meth:`~repro.service.QueryService.rebuild_engine`) preserve
        the resolved choice.
    scatter_backend:
        Scatter *execution* backend: ``"inline"`` (threads in this
        process), ``"process"`` (the warm
        :class:`~repro.shard.parallel.ProcessScatterPool` of pinned,
        delta-synced fork workers — the production path on real
        cores), or ``"auto"`` (default: process where it can win —
        ``fork`` available, ≥2 cores, ≥2 shards, and at least
        :data:`~repro.shard.parallel.AUTO_MIN_USERS` located users —
        inline otherwise).  Overridable via the
        ``REPRO_SCATTER_BACKEND`` environment variable.  Results are
        bit-identical either way.
    replicas:
        Worker processes per shard group under the process backend
        (read replicas, round-robin dispatch, delta-stream coherence).
    journal_capacity:
        Bounded length of the location-delta journal that keeps warm
        workers coherent; a worker whose epoch falls off the ring
        re-forks instead of replaying.
    """

    def __init__(
        self,
        graph: SocialGraph,
        locations: LocationTable,
        *,
        n_shards: int = 4,
        partitioner: Partitioner | None = None,
        partitioner_kind: str = "grid",
        max_workers: int | None = None,
        num_landmarks: int = 8,
        landmark_strategy: str = "farthest",
        s: int = 10,
        shard_s: int | None = None,
        seed: int = 0,
        normalization: Normalization | None = None,
        landmarks: LandmarkIndex | None = None,
        backend: "str | Kernels" = "auto",
        planner: "AdaptivePlanner | None" = None,
        scatter_backend: str = "auto",
        replicas: int = 1,
        journal_capacity: int = 8192,
        social_cache_bytes: int | None = None,
        social_cache: "SocialColumnCache | None" = None,
        _shard_grids: dict | None = None,
    ) -> None:
        if locations.n_located < 1:
            raise ValueError(
                "spatial sharding requires at least one located user "
                "(there is nothing to partition otherwise)"
            )
        # kernels, landmarks, normalization and the ONE social column
        # cache are resolved once here and shared by every shard engine:
        # a column is a whole-graph object (shards share the full social
        # graph), so whichever shard pays for an expansion, every other
        # shard — and the coordinator's scatter bypass — reuses it
        super().__init__(
            graph,
            locations,
            num_landmarks=num_landmarks,
            landmark_strategy=landmark_strategy,
            s=s,
            seed=seed,
            normalization=normalization,
            landmarks=landmarks,
            backend=backend,
            planner=planner,
            social_cache_bytes=social_cache_bytes,
            social_cache=social_cache,
        )
        self.partitioner_kind = partitioner_kind
        self.partitioner = (
            partitioner
            if partitioner is not None
            else make_partitioner(locations, n_shards, partitioner_kind)
        )
        # Per-shard grid fanout: a shard covers ~1/N of the users, so a
        # full-size s² x s² leaf grid per shard would multiply index
        # cells per user by N.  Scaling s by 1/sqrt(N) keeps per-cell
        # population comparable to the single engine's (results never
        # depend on s — only search cost does).
        self.shard_s = (
            shard_s
            if shard_s is not None
            else max(2, round(s / math.sqrt(self.partitioner.n_shards)))
        )
        self.max_workers = (
            max_workers
            if max_workers is not None
            else max(1, min(4, os.cpu_count() or 1, self.partitioner.n_shards))
        )

        #: restored per-shard grids (``sid -> UniformGrid``),
        #: consumed by ``_build_shard`` on the snapshot warm-start path
        self._restored_grids: dict = _shard_grids or {}
        #: located user -> owning shard id
        self._owner: dict[int, int] = {}
        #: shard id -> member-filtered engine (built lazily for shards
        #: that start empty and gain members later)
        self._engines: dict[int, GeoSocialEngine] = {}
        self._bounds: dict[int, ShardBounds] = {}
        members: dict[int, set[int]] = {}
        xs, ys = locations.xs, locations.ys
        for user in locations.located_users():
            sid = self.partitioner.shard_of(xs[user], ys[user])
            self._owner[user] = sid
            members.setdefault(sid, set()).add(user)
        for sid, users in sorted(members.items()):
            self._build_shard(sid, users)

        self.scatter = ScatterStats()
        self._scatter_lock = threading.Lock()
        #: bumped by every location update; process-scatter pools use it
        #: to detect stale forked snapshots and delta-sync (or re-fork)
        self.update_epoch = 0
        #: replayable log of applied location updates — what keeps the
        #: warm process pool coherent without re-forking (delta shipping)
        self._journal = DeltaJournal(journal_capacity)
        #: requested scatter backend ("inline" | "process" | "auto",
        #: env-overridable via REPRO_SCATTER_BACKEND) and its resolution
        from repro.shard.parallel import resolve_scatter_backend

        self.scatter_backend = scatter_backend
        self.replicas = replicas
        self._scatter_backend_resolved = resolve_scatter_backend(
            scatter_backend,
            n_shards=self.partitioner.n_shards,
            located=locations.n_located,
        )
        self._scatter_pool = None
        self._pool = TaskPool(self.max_workers, thread_name_prefix="ssrq-shard")

    # -- shard construction --------------------------------------------

    def _build_shard(self, sid: int, users: set[int]) -> GeoSocialEngine:
        grid = self._restored_grids.pop(sid, None)
        if grid is not None and set(grid._cell_of_user) != users:
            # Ownership is always derivable (owner ==
            # partitioner.shard_of(current location)); a restored
            # index disagreeing with that computation means the
            # snapshot's columns are mutually inconsistent.
            raise ValueError(
                f"restored shard {sid} indexes {len(grid)} members, "
                f"the partitioner assigns {len(users)}"
            )
        engine = GeoSocialEngine(
            self.graph,
            self.locations,
            landmark_strategy=self.landmark_strategy,
            s=self.shard_s,
            seed=self.seed,
            normalization=self.normalization,
            landmarks=self.landmarks,
            index_users=users,
            backend=self.kernels,
            grid=grid,
            # every shard consults (and feeds) the coordinator's one
            # shared column cache; 0 stops a disabled coordinator's
            # shards from building private ones
            social_cache=self.social_cache,
            social_cache_bytes=0,
        )
        bounds = ShardBounds(self.landmarks.m)
        # list(), not sorted(): the bbox/min-max reductions are
        # order-independent, so sorting would be pure overhead here
        bounds.refresh_columnar(self.kernels, self.landmarks, self.locations, list(users))
        self._engines[sid] = engine
        self._bounds[sid] = bounds
        return engine

    # -- query dispatch ------------------------------------------------

    @property
    def n_shards(self) -> int:
        return self.partitioner.n_shards

    def shard_of_user(self, user: int) -> int | None:
        """The shard owning ``user`` (``None`` while unlocated)."""
        return self._owner.get(user)

    def envelope_mindist(self, sid: int, x: float, y: float) -> float:
        """Distance from ``(x, y)`` to shard ``sid``'s member envelope
        (its widen-only pruning bbox): 0 inside, ``inf`` for an empty
        or unmaterialised shard.

        This is the shard-aware delta-routing primitive: the stream
        layer (:mod:`repro.stream`) skips a whole group of standing
        queries when an update lands farther from their shard's
        envelope than any of them can reach — only shards whose pruning
        envelopes intersect the update fan out.  The envelope always
        contains the shard's current members (moves widen it in place),
        so the bound is sound even between
        :meth:`refresh_bounds` calls.
        """
        bounds = self._bounds.get(sid)
        if bounds is None or bounds.count <= 0:
            return INF
        return bounds.spatial_lower_bound(x, y)

    def shard_sizes(self) -> dict[int, int]:
        """Member counts per materialised shard."""
        return {sid: b.count for sid, b in sorted(self._bounds.items())}

    def _delegate_engine(self) -> GeoSocialEngine:
        """A deterministic shard engine for globally-exact delegated
        methods (first materialised shard; the shared graph and global
        table make any of them equivalent)."""
        return self._engines[min(self._engines)]

    @property
    def sketch(self):
        """The shared social-distance sketch (lazily built by the
        delegate shard engine over the shared graph, landmarks, and
        kernels, so it is globally exact — the planner's budget gate
        consults it at the coordinator, where ``"approx"`` resolves)."""
        return self._delegate_engine().sketch

    def _column_step(self, resolved: str, request: QueryRequest, initial) -> SSRQResult:
        """The coordinator's column step only *probes*: a cached full
        column answers a scatter-eligible query in one dense scan (no
        shard touched); anything else falls through to :meth:`_run`,
        whose shard engines run the real step themselves.  Delegated
        methods skip the probe: the delegate shard engine's own step
        consults the shared cache."""
        if resolved not in DELEGATED_METHODS:
            result = peek_scan(self, resolved, request, initial)
            if result is not None:
                with self._scatter_lock:
                    self.scatter.column_scans += 1
                return result
        return self._run(resolved, request, initial)

    def _run(self, resolved: str, request: QueryRequest, initial, social=None) -> SSRQResult:
        """``resolved`` is what every searched shard executes: the
        method (and any accuracy budget) was resolved exactly once at
        the coordinator, so scatter-gather always merges
        identical-method partials and shards never make their own
        exact-vs-approx choice — an ``"approx"`` resolution is
        delegated (global sketch, never scattered)."""
        request = request.with_method(resolved)
        if resolved in DELEGATED_METHODS:
            result = self._delegate_engine().query(request, initial=initial)
            with self._scatter_lock:
                self.scatter.delegated_queries += 1
            return result
        result = self._scatter_query(request)
        if initial is not None:
            # shards warm-start from each other's merged buffers; the
            # caller's buffer is folded into the finished merge
            for nb in result:
                initial.offer(nb.user, nb.score, nb.social, nb.spatial)
            result.neighbors = initial.neighbors()
        return result

    def _scatter_plan(self, request: QueryRequest) -> "list[tuple[float, int]] | None":
        """The sorted ``(bound, shard)`` candidate list for an
        already-routed scatter query, or ``None`` for an unlocated
        query user (whose spatial searcher must raise exactly like the
        single engine's, on an inline path)."""
        location = self.locations.get(request.user)
        if location is None:
            return None
        qx, qy = location
        rank = RankingFunction(request.alpha, self.normalization)
        query_vector = self.landmarks.vector(request.user) if rank.needs_social else None
        candidates: list[tuple[float, int]] = []
        for sid, bounds in self._bounds.items():
            if bounds.count <= 0:
                continue
            candidates.append(
                (bounds.score_lower_bound(rank, qx, qy, query_vector), sid)
            )
        candidates.sort()
        return candidates

    def _process_pool(self):
        """The lazily-forked warm worker pool, or ``None`` when the
        resolved scatter backend is in-process.  An explicit
        ``scatter_backend="process"`` on a platform without ``fork``
        degrades to the inline scatter with a warning rather than
        failing queries."""
        if self._scatter_backend_resolved != "process":
            return None
        pool = self._scatter_pool
        if pool is not None:
            return pool
        with self._build_lock:
            if self._scatter_pool is None and self._scatter_backend_resolved == "process":
                from repro.shard.parallel import ProcessScatterPool

                try:
                    self._scatter_pool = ProcessScatterPool(
                        self, replicas=self.replicas
                    )
                except (RuntimeError, OSError) as exc:
                    import warnings

                    warnings.warn(
                        f"process scatter backend unavailable ({exc}); "
                        "falling back to the in-process scatter",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                    self._scatter_backend_resolved = "inline"
            return self._scatter_pool

    def _record_scatter(self, queries: int, considered: int, searched: int) -> None:
        with self._scatter_lock:
            self.scatter.scatter_queries += queries
            self.scatter.shards_considered += considered
            self.scatter.shards_searched += searched

    def _scatter_query(self, request: QueryRequest) -> SSRQResult:
        """Scatter one already-routed request across the shards."""
        pool = self._process_pool()
        if pool is not None:
            from repro.shard.parallel import PoolClosedError

            try:
                return pool.scatter_one(request)
            except PoolClosedError:
                # Closed under us (engine close / rebuild swap): the
                # in-process scatter below still answers correctly.
                pass
        start = time.perf_counter()
        candidates = self._scatter_plan(request)
        if candidates is None:
            # Unlocated query user: mirror the single engine exactly —
            # its spatial searcher raises; let a shard's do so.
            return self._delegate_engine().query(request)
        k = request.k

        stats = SearchStats()

        def run(sid: int, warm: "SSRQResult | None" = None) -> SSRQResult:
            # Threshold propagation: the merged interim result (copied —
            # searches mutate their buffer) warm-starts this shard's
            # f_k, so a shard that cannot contribute terminates after a
            # bound check instead of re-deriving a full local top-k.
            initial = warm.copy() if warm is not None else None
            return self._engines[sid].query(request, initial=initial)

        considered = len(candidates)
        searched = 0
        merged = merge_topk(k, [])
        if candidates and (
            self.max_workers == 1 or len(candidates) <= 2 or self._pool.closed
        ):
            # Sequential scatter: progressive pruning along the sorted
            # bound order (f_k only tightens, bounds only grow, so the
            # first strict excess prunes every later shard too), each
            # search warm-started from the merged result so far.
            for bound, sid in candidates:
                if bound > merged.fk:
                    break
                result = run(sid, merged if searched else None)
                searched += 1
                for nb in result:
                    merged.offer(nb.user, nb.score, nb.social, nb.spatial)
                stats.merge(result.stats)
        elif candidates:
            # Two-phase parallel scatter: the best-bound (home) shard
            # establishes f_k, the surviving remainder fans out over the
            # worker pool, each worker warm-started from the home result.
            home = run(candidates[0][1])
            searched += 1
            for nb in home:
                merged.offer(nb.user, nb.score, nb.social, nb.spatial)
            stats.merge(home.stats)
            survivors = [sid for bound, sid in candidates[1:] if not bound > merged.fk]
            warm = merged
            for result in self._pool.map(lambda sid: run(sid, warm), survivors):
                searched += 1
                for nb in result:
                    merged.offer(nb.user, nb.score, nb.social, nb.spatial)
                stats.merge(result.stats)

        stats.extra["shards_searched"] = searched
        stats.extra["shards_pruned"] = considered - searched
        stats.elapsed = time.perf_counter() - start
        self._record_scatter(1, considered, searched)
        return SSRQResult(request.user, k, request.alpha, merged.neighbors(), stats)

    def scatter_info(self) -> dict:
        """Cumulative scatter statistics snapshot."""
        with self._scatter_lock:
            return self.scatter.snapshot()

    def scatter_backend_info(self) -> dict:
        """Execution-backend introspection: the resolved scatter
        backend, the delta journal's state, and — once the warm pool
        has forked — its lifetime counters (forks, re-forks, respawns,
        shipped deltas)."""
        info = {
            "requested": self.scatter_backend,
            "resolved": self._scatter_backend_resolved,
            "replicas": self.replicas,
            "journal": {
                "capacity": self._journal.capacity,
                "appended": self._journal.appended,
                "latest_epoch": self._journal.latest_epoch,
            },
        }
        pool = self._scatter_pool
        if pool is not None:
            info["pool"] = pool.info()
        return info

    # -- dynamic locations ---------------------------------------------

    def _apply_location(self, user: int, x: float | None, y: float | None) -> None:
        """Route one update across the shards.  A move within the
        owning shard's region updates that shard's indexes in place; a
        *boundary crossing* removes the user from the old shard's grid
        and aggregate index and inserts them into the new owner's
        (building it on first use), with the shared location table
        written exactly once.  The coordinator applies the very record
        it journals — through :meth:`_replay_delta`, the routine the
        warm workers replay it with — so a worker's pinned shards
        cannot drift from the coordinator's by construction."""
        delta = LocationDelta(
            self.update_epoch + 1,
            user,
            x,
            y,
            self._owner.get(user),
            None if x is None else self.partitioner.shard_of(x, y),
        )
        self._replay_delta(delta)
        self._journal.append(delta)

    def _replay_delta(self, delta: LocationDelta, pinned=None) -> None:
        """Apply one journal record to this engine (``x is None``:
        forget) and advance :attr:`update_epoch` to it.

        The coordinator applies each update this way under its write
        lock (``pinned=None``: every shard); forked scatter workers
        call it to catch a copy-on-write engine snapshot up with the
        coordinator.  The *global* state a search can observe for any
        user — the shared location table and the ownership map — is
        always applied, while per-shard index maintenance is restricted
        to ``pinned`` shards (the worker's affinity group).  Records
        must be replayed in journal order; a pinned shard's indexes
        then end up bit-identical to the coordinator's.  Worker-side it
        runs lock-free: workers are single-threaded and their engine
        copy is private.
        """
        user = delta.user
        if delta.x is None:
            if self.locations.has_location(user):
                self.locations.clear(user)
            self._owner.pop(user, None)
            if delta.old_sid is not None and (pinned is None or delta.old_sid in pinned):
                engine = self._engines.get(delta.old_sid)
                if engine is not None:
                    engine._index_remove(user)
                    self._bounds[delta.old_sid].remove_member()
        else:
            x, y = delta.x, delta.y
            self.locations.set(user, x, y)
            old_sid, new_sid = delta.old_sid, delta.new_sid
            self._owner[user] = new_sid
            if old_sid == new_sid and old_sid is not None:
                if pinned is None or new_sid in pinned:
                    self._engines[new_sid]._index_move(user, x, y)
                    self._bounds[new_sid].update_member(x, y)
            else:
                if old_sid is not None and (pinned is None or old_sid in pinned):
                    engine = self._engines.get(old_sid)
                    if engine is not None:
                        engine._index_remove(user)
                        self._bounds[old_sid].remove_member()
                if pinned is None or new_sid in pinned:
                    engine = self._engines.get(new_sid)
                    if engine is None:
                        self._build_shard(new_sid, {user})
                    else:
                        engine._index_insert(user, x, y)
                        self._bounds[new_sid].add_member(
                            x, y, self.landmarks.vector(user)
                        )
        self.update_epoch = delta.epoch

    def refresh_bounds(self) -> None:
        """Recompute every shard's pruning envelope exactly (tightens
        widen-only bounds after sustained churn; exclusively).

        Bulk math: one bbox reduction over the coordinate columns and
        one min/max reduction over the landmark matrix per shard — no
        per-user re-scan (a regression test pins this)."""
        with self.rw_lock.write_locked():
            for sid, engine in self._engines.items():
                members = list(engine.index_users or ())
                self._bounds[sid].refresh_columnar(
                    self.kernels, self.landmarks, self.locations, members
                )

    # -- rebuild -------------------------------------------------------

    def _rebuild_kwargs(self) -> dict:
        """:meth:`with_graph`'s parameters for a sharded rebuild.  The
        partitioner *instance* is reused — its regions are static, so a
        custom or pre-fitted partitioner (and the shard layout) survive
        the rebuild; per-shard fanout (``shard_s``) is preserved too."""
        return dict(
            super()._rebuild_kwargs(),
            partitioner=self.partitioner,
            partitioner_kind=self.partitioner_kind,
            max_workers=self.max_workers,
            shard_s=self.shard_s,
            # requested (not resolved) scatter backend: the rebuilt
            # engine re-resolves against its own data size/cores and
            # forks a fresh pool — the rebuild swap IS the re-fork
            # point of the delta-shipping cost model
            scatter_backend=self.scatter_backend,
            replicas=self.replicas,
            journal_capacity=self._journal.capacity,
        )

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Shut down the scatter pool and any batch services.

        Queries keep working — scatter falls back to the sequential
        path once the pool is gone — so closing the swapped-out engine
        after :meth:`~repro.service.QueryService.rebuild_engine` (which
        calls this automatically) never breaks a straggling holder."""
        pool = self._scatter_pool
        self._scatter_pool = None
        self._scatter_backend_resolved = "inline"
        if pool is not None:
            pool.close()
        self._pool.close()
        super().close()

    # -- introspection -------------------------------------------------

    def __repr__(self) -> str:
        sizes = self.shard_sizes()
        return (
            f"ShardedGeoSocialEngine(n={self.graph.n}, shards={self.n_shards}, "
            f"materialised={len(self._engines)}, members={sum(sizes.values())}, "
            f"workers={self.max_workers}, backend={self.backend!r})"
        )
