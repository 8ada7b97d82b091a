"""Warm process-backed scatter-gather: shard searches on real cores.

The scatter fan-out of :class:`~repro.shard.ShardedGeoSocialEngine` is
CPU-bound pure Python, so its thread pool only overlaps on GIL-free
builds.  :class:`ProcessScatterPool` is the multi-core execution
backend: it forks long-lived worker processes that inherit the
fully-built shard engines copy-on-write (no index serialisation, no
per-query state shipping), pins shard affinity (worker group *g* owns
the shards with ``sid % groups == g``, optionally *replicated* N ways
for read scaling), and fans per-shard searches of a batch out across
them over dedicated pipes.

**Delta shipping (the warm-pool invariant).**  Workers are *not* torn
down when the engine applies location updates.  Every update appends a
compact :class:`~repro.shard.journal.LocationDelta` to the engine's
journal; at the start of each batch the coordinator ships each worker
the journal suffix past its synced epoch down the worker's own task
pipe, and the worker replays it through the same
``_index_insert/_index_remove/_index_move`` primitives the
coordinator's ``move_user`` used (via
``ShardedGeoSocialEngine._replay_delta``), filtered to its pinned
shards.  Because the pipe is FIFO, deltas are always applied before
any task sent after them — that single ordering fact is the
**replica-coherence invariant**: every replica of a shard observes the
same prefix of the update stream as the coordinator did when it
dispatched the task, so replicated results are bit-identical to
unreplicated ones.

**Re-fork cost model.**  Replay costs O(deltas) cheap index operations
and keeps every lazily-built searcher cache warm; a fork costs a
process spawn plus copy-on-write faults and loses those caches.  The
pool therefore re-forks a worker only when replay is provably the
worse deal: the journal suffix was truncated (the worker's epoch fell
off the bounded ring) or it exceeds ``delta_budget`` records.  The
third re-fork trigger is structural: a
:meth:`~repro.service.QueryService.rebuild_engine` swap closes the old
engine (and with it this pool) and the replacement engine forks a
fresh pool from the rebuilt state — which is also how *edge* updates
reach workers: they fold into the graph only at rebuild, so the swap
is their delivery point and no edge replay protocol is needed.

**Overlapped scatter-merge.**  Per-shard candidate buffers stream back
as they complete and fold through the incremental
:class:`~repro.topk.merge.StreamingCombine` (NRA-style strict-``>``
admission), so one query's verify shards merge while another query's
home shard is still searching — no barrier on the slowest shard.
Exactness is unchanged from the in-process scatter: shards report
exact scores, the combine's buffer is order-independent, and a shard
is pruned only when its score lower bound *strictly* exceeds the
current ``f_k``.

**Crash resilience.**  A worker that dies mid-batch is detected via
its process sentinel, its pipe is drained of any already-sent results,
a replacement is forked from the *current* (post-delta) engine state,
and the lost in-flight tasks are re-dispatched warm-started from the
latest merged buffer — the batch result stays bit-identical to an
inline scatter.

Requires the ``fork`` start method (POSIX); on spawn-only platforms
construction raises :class:`RuntimeError` *before* any multiprocessing
context is built, and callers fall back to the in-process scatter.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import traceback
from multiprocessing import connection as mp_connection
from typing import Sequence

from repro.core.engine import resolve_dispatch
from repro.core.request import QueryRequest
from repro.core.result import SSRQResult, TopKBuffer
from repro.core.stats import SearchStats
from repro.shard.journal import LocationDelta
from repro.topk.merge import StreamingCombine
from repro.utils.validation import check_user

#: minimum located users before ``scatter_backend="auto"`` picks the
#: process pool: below this, fork + IPC overhead beats any core win
#: (tiny test engines stay inline; production-scale data goes multicore)
AUTO_MIN_USERS = 2048


class PoolClosedError(RuntimeError):
    """The pool was closed (possibly mid-batch, from another thread)."""


def resolve_scatter_backend(
    requested: str = "auto", *, n_shards: int = 1, located: int = 0
) -> str:
    """Resolve a requested scatter backend name to ``"inline"`` or
    ``"process"``.

    The ``REPRO_SCATTER_BACKEND`` environment variable overrides
    ``requested`` when set (operational escape hatch, mirroring
    ``REPRO_BACKEND`` for the kernels).  ``"auto"`` picks the process
    pool only where it can actually win: ``fork`` available, at least
    two cores, at least two shards, and at least :data:`AUTO_MIN_USERS`
    located users.

        >>> from repro.shard.parallel import resolve_scatter_backend
        >>> resolve_scatter_backend("inline", n_shards=8, located=10**6)
        'inline'
    """
    env = os.environ.get("REPRO_SCATTER_BACKEND", "").strip().lower()
    if env:
        requested = env
    if requested not in {"inline", "process", "auto"}:
        raise ValueError(
            f"unknown scatter backend {requested!r}; "
            "expected 'inline', 'process', or 'auto'"
        )
    if requested != "auto":
        return requested
    if (
        "fork" in multiprocessing.get_all_start_methods()
        and (os.cpu_count() or 1) >= 2
        and n_shards >= 2
        and located >= AUTO_MIN_USERS
    ):
        return "process"
    return "inline"


def _worker_main(conn, parent_end, engine, group: int, groups: int) -> None:
    """Worker process entry point (the pool initializer).

    Forked, so ``engine`` arrives by copy-on-write memory inheritance —
    a respawned replacement re-runs this initializer over the
    coordinator's *current* engine object and therefore starts from
    post-delta state.  The loop serves delta batches and shard tasks in
    pipe order (FIFO — the replica-coherence invariant) until EOF or an
    explicit exit message.
    """
    if parent_end is not None:
        parent_end.close()
    pinned = frozenset(
        sid for sid in range(engine.n_shards) if sid % groups == group
    )
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        kind = msg[0]
        if kind == "task":
            tid, sid, request, warm = msg[1:]
            start = time.perf_counter()
            try:
                initial = None
                if warm is not None:
                    initial = TopKBuffer(request.k)
                    for u, score, social, spatial in warm:
                        initial.offer(u, score, social, spatial)
                result = engine._engines[sid].query(request, initial=initial)
            except BaseException:
                try:
                    conn.send(("error", tid, traceback.format_exc()))
                except (BrokenPipeError, OSError):
                    break
                continue
            try:
                conn.send(("result", tid, result, time.perf_counter() - start))
            except (BrokenPipeError, OSError):
                break
        elif kind == "deltas":
            for record in msg[1]:
                engine._replay_delta(LocationDelta(*record), pinned)
        elif kind == "ping":
            try:
                conn.send(("pong", msg[1]))
            except (BrokenPipeError, OSError):
                break
        elif kind == "exit":
            break
    try:
        conn.close()
    except OSError:
        pass


class _Worker:
    """One pinned worker process and its pipe."""

    __slots__ = ("conn", "process", "group", "replica", "synced_epoch", "inflight")

    def __init__(self, conn, process, group: int, replica: int, epoch: int) -> None:
        self.conn = conn
        self.process = process
        self.group = group
        self.replica = replica
        #: engine update epoch this worker's state reflects
        self.synced_epoch = epoch
        #: tid -> _Task currently dispatched to this worker
        self.inflight: dict[int, "_Task"] = {}


class _Task:
    """One dispatched (shard, query) search."""

    __slots__ = ("tid", "plan", "sid", "home")

    def __init__(self, tid: int, plan: "_Plan", sid: int, home: bool) -> None:
        self.tid = tid
        self.plan = plan
        self.sid = sid
        self.home = home


class _Plan:
    """Coordinator-side state of one scatter query inside a batch."""

    __slots__ = (
        "request", "candidates", "combine", "pending", "inflight",
        "stats", "searched", "considered", "worker_time", "t0", "result",
    )

    def __init__(self, request: QueryRequest, candidates) -> None:
        #: the already-routed request every searched shard executes
        self.request = request
        self.candidates = candidates
        self.combine = StreamingCombine(request.k)
        #: sorted (bound, sid) not yet dispatched (verify wave)
        self.pending: list[tuple[float, int]] = list(candidates[1:])
        self.inflight = 0
        self.stats = SearchStats()
        self.searched = 0
        self.considered = len(candidates)
        self.worker_time = 0.0
        self.t0 = 0.0
        self.result: SSRQResult | None = None


class ProcessScatterPool:
    """Warm multi-core batch scatter over a sharded engine.

        >>> from repro import gowalla_like
        >>> from repro.shard import ShardedGeoSocialEngine
        >>> from repro.shard.parallel import ProcessScatterPool
        >>> engine = ShardedGeoSocialEngine.from_dataset(
        ...     gowalla_like(n=300, seed=7), n_shards=2, scatter_backend="inline")
        >>> a, b = list(engine.located_users())[:2]
        >>> pool = ProcessScatterPool(engine, processes=2)
        >>> from repro import QueryRequest
        >>> results = pool.query_many([QueryRequest(u, k=5, alpha=0.3) for u in (a, b)])
        >>> [r.users for r in results] == [engine.query(u, k=5).users for u in (a, b)]
        True
        >>> pool.close()
        >>> engine.close()

    Parameters
    ----------
    engine:
        A built :class:`~repro.shard.ShardedGeoSocialEngine`.
    processes:
        Number of pinned worker *groups* (default
        ``min(cpus, n_shards, 8)``); group ``g`` owns the shards with
        ``sid % groups == g``.
    replicas:
        Workers per group (default 1).  Tasks round-robin across a
        group's replicas; delta shipping keeps every replica coherent,
        so read throughput scales without relaxing exactness.
    delta_budget:
        Maximum journal suffix a worker replays before a fresh fork is
        considered cheaper (default 4096; see the module docstring's
        cost model).

    Batches are serialized by an internal lock, so concurrent callers
    are safe; location updates applied to ``engine`` *between* batches
    are picked up by delta shipping, updates *during* a batch are the
    caller's responsibility to exclude, exactly as with
    ``engine.query``.  ``close()`` is idempotent and thread-safe, even
    mid-batch: an in-progress batch fails with
    :class:`PoolClosedError` instead of racing the crash-respawn path.
    """

    def __init__(
        self,
        engine,
        processes: int | None = None,
        *,
        replicas: int = 1,
        delta_budget: int = 4096,
    ) -> None:
        # The documented spawn-only failure mode: raise before any
        # multiprocessing context (and its machinery) is built.
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "ProcessScatterPool requires the 'fork' start method "
                "(POSIX); use the engine's in-process scatter instead"
            )
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        if delta_budget < 0:
            raise ValueError(f"delta_budget must be >= 0, got {delta_budget}")
        self.engine = engine
        self.processes = (
            processes
            if processes is not None
            else max(1, min(os.cpu_count() or 1, engine.n_shards, 8))
        )
        self.groups = max(1, min(self.processes, engine.n_shards))
        self.replicas = replicas
        self.delta_budget = delta_budget
        self._ctx = multiprocessing.get_context("fork")
        #: (group, replica) -> _Worker
        self._workers: dict[tuple[int, int], _Worker] = {}
        #: per-group round-robin replica cursor
        self._rr = [0] * self.groups
        self._lock = threading.Lock()        # serializes batches
        self._state_lock = threading.Lock()  # worker table + closed flag
        self._closed = False
        self._task_seq = 0
        #: tasks whose dispatch hit a dead worker's pipe; the event
        #: loop replaces the worker and retries them centrally
        self._undispatched: list[_Task] = []
        # lifetime counters (see info())
        self._forks = 0
        self._reforks = 0
        self._cold_refork_rounds = 0
        self._respawns = 0
        self._deltas_shipped = 0
        self._tasks = 0
        self._batches = 0

    # -- lifecycle -----------------------------------------------------

    def _spawn_locked(self, group: int, replica: int) -> _Worker:
        """Fork one pinned worker from the engine's current state
        (caller holds ``_state_lock``)."""
        parent_end, child_end = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_end, parent_end, self.engine, group, self.groups),
            daemon=True,
            name=f"ssrq-scatter-g{group}r{replica}",
        )
        process.start()
        child_end.close()
        worker = _Worker(parent_end, process, group, replica, self.engine.update_epoch)
        self._workers[(group, replica)] = worker
        self._forks += 1
        return worker

    def _sync_locked(self, worker: _Worker) -> bool:
        """Ship the journal suffix to one worker; ``False`` means replay
        is unavailable or over budget and the worker must re-fork.

        ``worker.synced_epoch`` only ever advances to the epoch of the
        last record actually shipped.  It must *not* be marked up to
        ``engine.update_epoch`` on an empty suffix: the update path
        bumps the epoch and appends the journal record as two steps
        under the engine's write lock, and this method reads the epoch
        without that lock — marking the worker at an epoch whose record
        it never received would make the in-flight delta invisible to
        every later sync (the suffix query would start past it), leaving
        the replica permanently stale.  A suffix of exactly
        ``delta_budget`` records still ships (the cutoff is strictly
        *over* budget — re-forking at the boundary would throw away a
        replay that was explicitly budgeted for).
        """
        if worker.synced_epoch >= self.engine.update_epoch:
            return True
        journal = getattr(self.engine, "_journal", None)
        records = journal.since(worker.synced_epoch) if journal is not None else None
        if records is None or len(records) > self.delta_budget:
            return False
        if records:
            try:
                worker.conn.send(
                    ("deltas", [
                        (d.epoch, d.user, d.x, d.y, d.old_sid, d.new_sid)
                        for d in records
                    ])
                )
            except (BrokenPipeError, OSError):
                return False  # worker died under us: re-fork it
            self._deltas_shipped += len(records)
            worker.synced_epoch = records[-1].epoch
        return True

    def _ensure_workers(self) -> None:
        """Spawn missing workers and bring every live one coherent with
        the engine (delta shipping, re-forking only over budget)."""
        with self._state_lock:
            if self._closed:
                raise PoolClosedError("ProcessScatterPool is closed")
            reforked = False
            for group in range(self.groups):
                for replica in range(self.replicas):
                    worker = self._workers.get((group, replica))
                    if worker is not None and not worker.process.is_alive():
                        self._retire_locked(worker)
                        worker = None
                        self._respawns += 1
                    if worker is None:
                        self._spawn_locked(group, replica)
                        continue
                    if not self._sync_locked(worker):
                        self._retire_locked(worker)
                        self._spawn_locked(group, replica)
                        self._reforks += 1
                        reforked = True
            if reforked:
                self._cold_refork_rounds += 1

    def _retire_locked(self, worker: _Worker) -> None:
        self._workers.pop((worker.group, worker.replica), None)
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=5)

    def warm_up(self) -> None:
        """Fork (or delta-sync) every worker and round-trip a ping, so
        a subsequent batch pays no spawn latency — benchmark warm legs
        call this before timing."""
        self._ensure_workers()
        with self._state_lock:
            workers = list(self._workers.values())
        for worker in workers:
            worker.conn.send(("ping", worker.replica))
        for worker in workers:
            msg = worker.conn.recv()
            if msg[0] != "pong":
                raise RuntimeError(f"unexpected warm-up reply {msg[0]!r}")

    def close(self) -> None:
        """Terminate the workers (idempotent, thread-safe, allowed
        mid-batch: the batch fails with :class:`PoolClosedError` rather
        than racing a respawn against the teardown)."""
        with self._state_lock:
            self._closed = True
            workers = list(self._workers.values())
            self._workers.clear()
        for worker in workers:
            try:
                worker.conn.send(("exit",))
            except (BrokenPipeError, OSError):
                pass
            try:
                worker.conn.close()
            except OSError:
                pass
        for worker in workers:
            worker.process.join(timeout=5)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ProcessScatterPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def info(self) -> dict:
        """Lifetime pool counters (forks, re-forks, respawns, shipped
        deltas) — the warm-pool benchmark's evidence that updates ride
        the journal instead of killing the pool."""
        with self._state_lock:
            alive = sum(1 for w in self._workers.values() if w.process.is_alive())
            return {
                "processes": self.processes,
                "groups": self.groups,
                "replicas": self.replicas,
                "workers_alive": alive,
                "forks": self._forks,
                "reforks": self._reforks,
                "cold_refork_rounds": self._cold_refork_rounds,
                "respawns": self._respawns,
                "deltas_shipped": self._deltas_shipped,
                "tasks": self._tasks,
                "batches": self._batches,
                "delta_budget": self.delta_budget,
                "closed": self._closed,
            }

    # -- serving -------------------------------------------------------

    def query_one(self, request: QueryRequest) -> SSRQResult:
        """Answer one SSRQ (``query_many`` of a single request)."""
        return self.query_many([request])[0]

    def query_many(self, requests: "Sequence[QueryRequest]") -> list[SSRQResult]:
        """Answer a batch with rankings identical to a sequential
        ``engine.query`` loop, fanning shard searches across the warm
        worker processes (duplicate requests are computed once,
        ``method="auto"`` is resolved once per distinct request at the
        coordinator and observed by the planner at merge time)."""
        computed = self._execute_distinct(list(dict.fromkeys(requests)))
        return [computed[req] for req in requests]

    def _execute_distinct(
        self, reqs: "list[QueryRequest]"
    ) -> "dict[QueryRequest, SSRQResult]":
        from repro.shard.engine import DELEGATED_METHODS

        engine = self.engine
        out: dict[QueryRequest, SSRQResult] = {}
        plans: list[_Plan] = []
        decisions: list = []
        for req in reqs:
            check_user(req.user, engine.graph.n)
            routed, decision = resolve_dispatch(engine, req)
            routed_req = req.with_method(routed)
            candidates = (
                None if routed in DELEGATED_METHODS else engine._scatter_plan(routed_req)
            )
            if candidates is None:
                # Delegated method, or an unlocated query user whose
                # spatial searcher must raise exactly like the single
                # engine's.  Call the delegate shard engine directly —
                # never engine.query, which may route back here.
                result = engine._delegate_engine().query(routed_req)
                if routed in DELEGATED_METHODS:
                    with engine._scatter_lock:
                        engine.scatter.delegated_queries += 1
                if decision is not None:
                    engine.planner.observe(decision, result.stats.elapsed)
                out[req] = result
            else:
                plans.append(_Plan(routed_req, candidates))
                decisions.append((req, decision))

        if plans:
            self._execute_scatter(plans)
            for plan, (req, decision) in zip(plans, decisions):
                out[req] = plan.result
                if decision is not None:
                    # Satellite fix: the planner now sees process-backed
                    # scatter costs too, not just inline ones — observed
                    # at merge time with the coordinator wall clock.
                    engine.planner.observe(decision, plan.result.stats.elapsed)
            engine._record_scatter(
                len(plans),
                sum(p.considered for p in plans),
                sum(p.searched for p in plans),
            )
        return out

    def scatter_one(self, request: QueryRequest) -> SSRQResult:
        """Execute one *already-routed* scatter query (the engine's
        ``_scatter_query`` hook; planner resolution/observation stays
        with the caller)."""
        candidates = self.engine._scatter_plan(request)
        if candidates is None:
            return self.engine._delegate_engine().query(request)
        plan = _Plan(request, candidates)
        self._execute_scatter([plan])
        self.engine._record_scatter(1, plan.considered, plan.searched)
        return plan.result

    # -- the overlapped event loop -------------------------------------

    def _dispatch(self, task: _Task, warm) -> None:
        group = task.sid % self.groups
        replica = self._rr[group]
        self._rr[group] = (replica + 1) % self.replicas
        worker = self._workers.get((group, replica))
        if worker is None:
            raise PoolClosedError(
                "ProcessScatterPool was closed while a batch was in flight"
            )
        worker.inflight[task.tid] = task
        try:
            worker.conn.send(("task", task.tid, task.sid, task.plan.request, warm))
        except (BrokenPipeError, OSError):
            # The worker died between crash detection windows; park the
            # task for the event loop to retry after replacement.
            worker.inflight.pop(task.tid, None)
            self._undispatched.append(task)
            return
        self._tasks += 1

    def _finalize(self, plan: _Plan) -> None:
        stats = plan.stats
        stats.extra["shards_searched"] = plan.searched
        stats.extra["shards_pruned"] = plan.considered - plan.searched
        stats.extra["worker_time"] = plan.worker_time
        stats.elapsed = time.perf_counter() - plan.t0
        request = plan.request
        plan.result = SSRQResult(
            request.user, request.k, request.alpha, plan.combine.result().neighbors(), stats
        )
        plan.result.method = request.method

    def _execute_scatter(self, plans: "list[_Plan]") -> None:
        """Run a batch of scatter plans to completion, overlapping
        scatter with merge: results fold as they arrive, each home
        completion immediately fans out that query's still-admissible
        verify shards warm-started from its merged buffer."""
        with self._lock:
            self._ensure_workers()
            self._batches += 1
            self._undispatched.clear()
            table: dict[int, _Task] = {}

            def submit(plan: _Plan, sid: int, home: bool) -> None:
                self._task_seq += 1
                task = _Task(self._task_seq, plan, sid, home)
                table[task.tid] = task
                plan.inflight += 1
                self._dispatch(task, None if home else plan.combine.warm())

            def on_message(worker: _Worker, msg) -> None:
                kind = msg[0]
                if kind == "result":
                    _, tid, result, worker_elapsed = msg
                    task = table.pop(tid, None)
                    worker.inflight.pop(tid, None)
                    if task is None:
                        return  # stale duplicate from a drained crash
                    plan = task.plan
                    plan.searched += 1
                    plan.worker_time += worker_elapsed
                    plan.stats.merge(result.stats)
                    plan.combine.fold(result)
                    if task.home:
                        # Fan out the verify wave: bounds are sorted
                        # ascending and f_k only tightens, so the first
                        # strictly-inadmissible bound prunes the rest.
                        for bound, sid in plan.pending:
                            if not plan.combine.admits(bound):
                                break
                            submit(plan, sid, home=False)
                        plan.pending = []
                    plan.inflight -= 1
                    if plan.inflight == 0 and not plan.pending:
                        self._finalize(plan)
                elif kind == "error":
                    raise RuntimeError(
                        f"shard task failed in scatter worker:\n{msg[2]}"
                    )
                # "pong" and anything else: ignore

            for plan in plans:
                plan.t0 = time.perf_counter()
                if plan.candidates:
                    submit(plan, plan.candidates[0][1], home=True)
                else:
                    self._finalize(plan)

            while table:
                if self._undispatched:
                    # A send hit a dead pipe: replace every dead worker
                    # (recovering their other in-flight tasks too), then
                    # retry the parked dispatches.
                    with self._state_lock:
                        dead = [
                            w for w in self._workers.values()
                            if not w.process.is_alive()
                        ]
                    for worker in dead:
                        self._recover_worker(worker, table, on_message)
                    self._ensure_workers()
                    retry, self._undispatched = self._undispatched, []
                    for task in retry:
                        if task.tid in table:
                            self._dispatch(
                                task,
                                None if task.home and task.plan.combine.folded == 0
                                else task.plan.combine.warm(),
                            )
                    continue
                with self._state_lock:
                    busy = [w for w in self._workers.values() if w.inflight]
                if not busy:
                    # Nothing in flight yet table is nonempty: every
                    # owner died before the tasks ran; re-dispatch.
                    self._recover(table)
                    continue
                waitables = [w.conn for w in busy] + [w.process.sentinel for w in busy]
                by_conn = {w.conn: w for w in busy}
                by_sentinel = {w.process.sentinel: w for w in busy}
                ready = mp_connection.wait(waitables, timeout=5.0)
                crashed: list[_Worker] = []
                for item in ready:
                    worker = by_conn.get(item)
                    if worker is not None:
                        try:
                            msg = worker.conn.recv()
                        except (EOFError, OSError):
                            crashed.append(worker)
                            continue
                        on_message(worker, msg)
                    else:
                        crashed.append(by_sentinel[item])
                for worker in crashed:
                    if worker.inflight:
                        self._recover_worker(worker, table, on_message)
                if not ready:
                    with self._state_lock:
                        dead = [
                            w for w in self._workers.values()
                            if w.inflight and not w.process.is_alive()
                        ]
                    for worker in dead:
                        self._recover_worker(worker, table, on_message)

    def _recover_worker(self, worker: _Worker, table, on_message) -> None:
        """Drain a dead worker's pipe (results it sent before dying are
        still valid), respawn a replacement forked from the current
        post-delta engine state, and re-dispatch what was lost."""
        while True:
            try:
                if not worker.conn.poll(0):
                    break
                msg = worker.conn.recv()
            except Exception:
                break
            on_message(worker, msg)
        orphans = [t for t in worker.inflight.values() if t.tid in table]
        worker.inflight.clear()
        with self._state_lock:
            if self._closed:
                raise PoolClosedError(
                    "ProcessScatterPool was closed while a batch was in flight"
                )
            self._retire_locked(worker)
            self._spawn_locked(worker.group, worker.replica)
            self._respawns += 1
        for task in orphans:
            # Warm-start from the latest merged buffer (tighter than the
            # original dispatch saw — pruning only improves).
            self._dispatch(
                task,
                None if task.home and task.plan.combine.folded == 0
                else task.plan.combine.warm(),
            )

    def _recover(self, table: "dict[int, _Task]") -> None:
        """Re-dispatch tasks whose owners all vanished (rare: every
        owning worker crashed between dispatch and wait)."""
        with self._state_lock:
            if self._closed:
                raise PoolClosedError(
                    "ProcessScatterPool was closed while a batch was in flight"
                )
        self._ensure_workers()
        for task in list(table.values()):
            self._dispatch(
                task,
                None if task.home and task.plan.combine.folded == 0
                else task.plan.combine.warm(),
            )
