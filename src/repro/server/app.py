"""The asyncio HTTP serving boundary over :class:`QueryService`.

:class:`SSRQServer` puts a socket in front of the whole stack — engine,
service, stream, store — with the serving disciplines a shared
deployment needs:

- **one hop per query** — a ``/query`` whose answer is in the result
  cache (:meth:`~repro.service.QueryService.cached`) is written from
  the connection coroutine, like ``/healthz``: it never leaves the
  event loop, is never queued and never waits on the engine lock.
  Everything else crosses to a worker thread exactly once and comes
  back with its body already encoded.
- **admission control** — work for the worker threads waits in one
  FIFO bounded by ``queue_depth``.  Overflow is shed *immediately* with
  ``429`` and a ``Retry-After`` hint; an admitted request is never
  dropped — it always runs to a response, even if the client has
  stopped waiting.  The bound on concurrently admitted work is
  ``queue_depth + workers`` (waiting plus executing).
- **request coalescing** — a worker that takes a ``/query`` job also
  takes the run of ``/query`` jobs queued directly behind it (up to
  ``max_batch``) into one
  :meth:`~repro.service.QueryService.query_many` call, riding the
  service's dedup/batching path (identical rankings to sequential
  execution, pinned by the service's own suite and the server
  conformance suite).
- **deadline propagation** — each request carries a deadline (the
  ``X-Deadline-Ms`` header, default ``default_deadline_ms``).  A job
  whose deadline passes before execution is answered ``504`` without
  running; a client whose deadline fires mid-execution gets ``504``
  while the job still completes server-side (admitted work is never
  abandoned half-applied).
- **graceful drain** — :meth:`SSRQServer.stop` stops accepting, lets
  queued and in-flight work finish, ends subscription streams with a
  final ``end`` event, optionally takes a last snapshot
  (``drain_snapshot_root``), and only then releases the worker pool.

Endpoints (all JSON; errors use the typed bodies of
:mod:`repro.server.errors`):

====================  ==================================================
``POST /query``        one SSRQ (coalesced into the batcher under load)
``POST /query/batch``  many SSRQs through ``query_many``
``POST /update/location``  move (``{"user","x","y"}``) or forget
                       (``{"user","forget":true}``)
``POST /update/edge``  ``{"u","v","weight"}`` (``null`` removes)
``POST /snapshot``     crash-consistent snapshot under ``{"root"}``
``POST /restore``      swap in the last committed snapshot of ``root``
``GET /subscribe``     SSE stream of standing-query deltas
``GET /stats``         every layer's counters as one JSON document
``GET /metrics``       the same, flattened to Prometheus text
``GET /healthz``       liveness + drain state (never queued)
====================  ==================================================
"""

from __future__ import annotations

import asyncio
import math
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.request import QueryRequest
from repro.server import http
from repro.server.errors import (
    ApiError,
    BAD_REQUEST,
    DEADLINE_EXCEEDED,
    INVALID_ARGUMENT,
    METHOD_NOT_ALLOWED,
    NOT_FOUND,
    OVERLOADED,
    SHUTTING_DOWN,
    classify_exception,
    error_body,
)
from repro.server.http import HTTPRequest, ProtocolError
from repro.server.metrics import CONTENT_TYPE as PROM_CONTENT_TYPE
from repro.server.metrics import render_prometheus
from repro.server.protocol import parse_batch, stats_payload
from repro.stream.deltas import diff_results, subscription_payload
from repro.utils.validation import check_user

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.service import QueryService

_DEADLINE_BODY = error_body(DEADLINE_EXCEEDED, "request deadline exceeded")


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of one :class:`SSRQServer`."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (read it back via ``server.port``)
    port: int = 0
    #: how many admitted jobs may *wait* for a worker thread; the next
    #: one is shed with 429 (cache hits are answered on the event loop
    #: and never wait here)
    queue_depth: int = 64
    #: worker threads: how many admitted jobs *execute* at once
    workers: int = 4
    #: ceiling on how many queued ``/query`` jobs one worker coalesces
    #: into a single ``query_many`` batch
    max_batch: int = 32
    #: default per-request deadline (``X-Deadline-Ms`` overrides)
    default_deadline_ms: float = 30_000.0
    #: the ``Retry-After`` hint (seconds) sent with 429 responses
    retry_after_s: float = 1.0
    #: SSE keep-alive comment interval (also bounds drain latency for
    #: idle streams)
    heartbeat_s: float = 15.0
    #: when set, :meth:`SSRQServer.stop` takes a final snapshot here
    #: after the drain completes
    drain_snapshot_root: "str | None" = None


@dataclass
class ServerStats:
    """Lifetime counters of one :class:`SSRQServer` (single-threaded:
    all mutation happens on the event loop).

    ``admitted`` and ``completed`` count the jobs that went through the
    admission queue to a worker thread, so ``admitted == completed +
    in_flight`` at every instant.  A ``/query`` answered from the
    result cache on the event loop counts in ``requests`` and
    ``served_inline`` and in neither of them."""

    connections: int = 0
    requests: int = 0
    #: ``/query`` requests answered on the event loop from the result
    #: cache, without a worker thread
    served_inline: int = 0
    admitted: int = 0
    #: requests shed by admission control (429)
    shed: int = 0
    completed: int = 0
    client_errors: int = 0
    server_errors: int = 0
    #: jobs answered 504 without executing (deadline passed in queue)
    deadline_expired: int = 0
    #: connections that stopped waiting mid-execution (client got 504,
    #: the job still ran to completion)
    deadline_timeouts: int = 0
    #: requests rejected 503 during drain
    drained_rejections: int = 0
    #: multi-request ``query_many`` executions assembled by coalescing
    coalesced_batches: int = 0
    #: single ``/query`` requests served through those batches
    coalesced_requests: int = 0
    streams_opened: int = 0
    streams_closed: int = 0
    events_sent: int = 0
    updates_notified: int = 0

    def snapshot(self) -> dict:
        return asdict(self)


class _Job:
    """One admitted unit of work: a coalescible ``/query``
    (``request``) or any other handler closure (``call``)."""

    __slots__ = ("request", "call", "future", "deadline", "timer", "abandoned", "notify")

    def __init__(
        self,
        *,
        deadline: float,
        request: "QueryRequest | None" = None,
        call: "Callable[[], object] | None" = None,
        notify: bool = False,
    ) -> None:
        self.request = request
        self.call = call
        self.deadline = deadline
        #: set at admission; resolves to ``(status, body)`` — by the
        #: worker's report or by the deadline ``timer``, whichever
        #: comes first
        self.future: "asyncio.Future | None" = None
        self.timer: "asyncio.TimerHandle | None" = None
        #: the client was answered 504; a worker that has not started
        #: the job yet skips it
        self.abandoned = False
        self.notify = notify


class SSRQServer:
    """Async HTTP API over one :class:`~repro.service.QueryService`.

    The server owns a lazily created
    :class:`~repro.stream.SubscriptionRegistry` for ``/subscribe``
    streams; the service (and its engine) belong to the caller and are
    not closed by :meth:`stop`.
    """

    def __init__(self, service: "QueryService", config: "ServerConfig | None" = None, **overrides) -> None:
        if config is None:
            config = ServerConfig(**overrides)
        elif overrides:
            raise TypeError("pass either a ServerConfig or keyword overrides, not both")
        if config.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {config.queue_depth}")
        if config.workers < 1:
            raise ValueError(f"workers must be >= 1, got {config.workers}")
        if config.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {config.max_batch}")
        self.service = service
        self.config = config
        self.stats = ServerStats()
        self._server: "asyncio.base_events.Server | None" = None
        #: admitted jobs waiting for a worker thread, oldest first; the
        #: event loop appends, worker threads take under ``_take_lock``
        self._jobs: "deque[_Job]" = deque()
        self._take_lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=config.workers, thread_name_prefix="ssrq-http"
        )
        self._conn_tasks: "set[asyncio.Task]" = set()
        self._registry = None
        self._registry_lock = threading.Lock()
        self._update_event: "asyncio.Event | None" = None
        #: admitted jobs no worker has reported yet
        self._inflight = 0
        #: connections between admitting a job and having written its
        #: response (shorter than the job's life when a deadline fires)
        self._answering = 0
        self._active_streams = 0
        self._draining = False
        self._started = False
        self._port: "int | None" = None
        self._stopped = False

    # -- lifecycle -----------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`; survives :meth:`stop`
        so late callers can still report the address)."""
        assert self._port is not None, "server not started"
        return self._port

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> "SSRQServer":
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        self._update_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self._port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Shut down: stop accepting, flush admitted work, end streams,
        optionally take a final snapshot, release the pool.

        With ``drain=False`` the admitted work is still completed (the
        invariant is unconditional) but streams are ended without
        waiting for a final delta read and no snapshot is taken."""
        if self._stopped:
            return
        self._stopped = True
        self._draining = True
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # wake every subscription stream so it can end promptly
        self._notify_update(count=False)
        while (self._inflight > 0 or self._answering > 0) and loop.time() < deadline:
            await asyncio.sleep(0.005)
        while self._active_streams > 0 and loop.time() < deadline:
            await asyncio.sleep(0.005)
        if drain and self.config.drain_snapshot_root is not None:
            root = self.config.drain_snapshot_root
            await loop.run_in_executor(
                self._executor, lambda: self.service.snapshots(root).snapshot()
            )
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        registry = self._registry
        if registry is not None:
            registry.close()
        self._executor.shutdown(wait=True)

    def _get_registry(self):
        registry = self._registry
        if registry is None:
            from repro.stream.registry import SubscriptionRegistry

            with self._registry_lock:
                if self._registry is None:
                    self._registry = SubscriptionRegistry(self.service)
                registry = self._registry
        return registry

    def stats_snapshot(self) -> dict:
        """Counters plus the live gauges (queue fill, in-flight work,
        open streams)."""
        snap = self.stats.snapshot()
        snap["queue_depth"] = self.config.queue_depth
        snap["queued"] = len(self._jobs)
        snap["in_flight"] = self._inflight
        snap["active_streams"] = self._active_streams
        snap["draining"] = self._draining
        return snap

    # -- update fan-out (event-loop thread only) ------------------------

    def _notify_update(self, *, count: bool = True) -> None:
        event = self._update_event
        if event is None:
            return
        self._update_event = asyncio.Event()
        event.set()
        if count:
            self.stats.updates_notified += 1

    # -- connection handling -------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self.stats.connections += 1
        try:
            while True:
                try:
                    request = await http.read_request(reader)
                except ProtocolError as err:
                    await self._respond(
                        writer, 400, error_body(BAD_REQUEST, str(err)), keep_alive=False
                    )
                    break
                if request is None:
                    break
                self.stats.requests += 1
                keep_alive = request.keep_alive
                closing = await self._dispatch(request, writer, keep_alive)
                if closing or not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _respond(
        self, writer, status: int, payload: object, *, headers=None, keep_alive=True
    ) -> None:
        if 400 <= status < 500:
            self.stats.client_errors += 1
        elif status >= 500:
            self.stats.server_errors += 1
        await http.send_response(
            writer, status, payload, headers=headers, keep_alive=keep_alive
        )

    async def _dispatch(self, request: HTTPRequest, writer, keep_alive: bool) -> bool:
        """Route one request; returns True when the connection must
        close afterwards (streams own their connection)."""
        path, method = request.path, request.method
        try:
            if path == "/healthz":
                self._require(method, "GET")
                await self._respond(
                    writer,
                    200,
                    {"status": "draining" if self._draining else "ok"},
                    keep_alive=keep_alive,
                )
                return False
            if path == "/metrics":
                self._require(method, "GET")
                return await self._handle_metrics(request, writer, keep_alive)
            if path == "/stats":
                self._require(method, "GET")
                payload = stats_payload(
                    self.service, server=self, registry=self._registry
                )
                await self._respond(writer, 200, payload, keep_alive=keep_alive)
                return False
            if path == "/subscribe":
                self._require(method, "GET")
                await self._handle_subscribe(request, writer)
                return True
            if path != "/query" and path not in self._CALLS:
                raise ApiError(404, NOT_FOUND, f"no such endpoint: {path}")
            self._require(method, "POST")
            if self._draining:
                self.stats.drained_rejections += 1
                raise ApiError(503, SHUTTING_DOWN, "server is draining")
            job = self._build_job(path, request)
        except ApiError as err:
            await self._respond(writer, err.status, err.body(), keep_alive=keep_alive)
            return False
        except ProtocolError as err:
            await self._respond(
                writer, 400, error_body(BAD_REQUEST, str(err)), keep_alive=False
            )
            return True
        if job.request is not None:
            hit = self.service.cached(job.request)
            if hit is not None:
                self.stats.served_inline += 1
                await self._respond(writer, 200, hit.wire(), keep_alive=keep_alive)
                return False
        return await self._admit(job, writer, keep_alive)

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise ApiError(
                405, METHOD_NOT_ALLOWED, f"use {expected} for this endpoint"
            )

    async def _handle_metrics(self, request, writer, keep_alive: bool) -> bool:
        payload = stats_payload(self.service, server=self, registry=self._registry)
        wants_json = (
            request.params.get("format") == "json"
            or "application/json" in request.headers.get("accept", "")
        )
        if wants_json:
            await self._respond(writer, 200, payload, keep_alive=keep_alive)
            return False
        body = render_prometheus(payload).encode("utf-8")
        writer.write(
            http.encode_response(
                200, body, content_type=PROM_CONTENT_TYPE, keep_alive=keep_alive
            )
        )
        await writer.drain()
        return False

    # -- admission ------------------------------------------------------

    def _deadline_for(self, request: HTTPRequest, loop) -> float:
        raw = request.headers.get("x-deadline-ms")
        if raw is None:
            ms = self.config.default_deadline_ms
        else:
            try:
                ms = float(raw)
            except ValueError:
                raise ApiError(
                    400, INVALID_ARGUMENT, f"malformed X-Deadline-Ms header: {raw!r}"
                ) from None
            if not ms > 0 or math.isnan(ms):
                raise ApiError(
                    400, INVALID_ARGUMENT, f"X-Deadline-Ms must be positive, got {raw}"
                )
        return loop.time() + ms / 1000.0

    def _build_job(self, path: str, request: HTTPRequest) -> _Job:
        deadline = self._deadline_for(request, asyncio.get_running_loop())
        body = request.json()
        try:
            if path == "/query":
                return _Job(request=QueryRequest.from_payload(body), deadline=deadline)
            factory, notify = self._CALLS[path]
            return _Job(call=getattr(self, factory)(body), deadline=deadline, notify=notify)
        except (ValueError, TypeError) as err:
            status, code = classify_exception(err)
            raise ApiError(status, code, str(err)) from None

    async def _admit(self, job: _Job, writer, keep_alive: bool) -> bool:
        if len(self._jobs) >= self.config.queue_depth:
            self.stats.shed += 1
            retry = max(1, math.ceil(self.config.retry_after_s))
            await self._respond(
                writer,
                429,
                error_body(OVERLOADED, "admission queue is full; retry later"),
                headers={"Retry-After": str(retry)},
                keep_alive=keep_alive,
            )
            return False
        loop = asyncio.get_running_loop()
        job.future = loop.create_future()
        job.timer = loop.call_at(job.deadline, self._deadline_fired, job)
        self._jobs.append(job)
        self.stats.admitted += 1
        self._inflight += 1
        # one drain per admitted job: each takes at least the oldest
        # waiting job, so none is left behind
        self._executor.submit(self._drain, loop)
        self._answering += 1
        try:
            status, payload = await job.future
            await self._respond(writer, status, payload, keep_alive=keep_alive)
        finally:
            self._answering -= 1
        return False

    def _deadline_fired(self, job: _Job) -> None:
        """The client's budget elapsed first: answer 504 now; the job
        still runs to completion unless no worker has started it."""
        if not job.future.done():
            job.abandoned = True
            self.stats.deadline_timeouts += 1
            job.future.set_result((504, _DEADLINE_BODY))

    # -- handler closures (run on executor threads) ---------------------

    #: the POST endpoints besides ``/query``: the method that validates
    #: a body into a closure, and whether its success is an update the
    #: subscription streams must hear about
    _CALLS = {
        "/query/batch": ("_batch_call", False),
        "/update/location": ("_location_call", True),
        "/update/edge": ("_edge_call", True),
        "/snapshot": ("_snapshot_call", False),
        "/restore": ("_restore_call", True),
    }

    def _batch_call(self, body: dict) -> "Callable[[], bytes]":
        reqs = parse_batch(body)

        def call() -> bytes:
            """``{"count": n, "responses": [...]}``, joined from the
            responses' own wire forms."""
            responses = self.service.query_many(reqs)
            return b'{"count":%d,"responses":[%s]}' % (
                len(responses),
                b",".join(r.wire() for r in responses),
            )

        return call

    def _location_call(self, body: dict) -> "Callable[[], dict]":
        if "user" not in body:
            raise ValueError("location update is missing required field 'user'")
        user = check_user(body["user"])
        if body.get("forget"):
            return lambda: (self.service.forget_location(user), {"ok": True, "user": user, "forgotten": True})[1]
        if "x" not in body or "y" not in body:
            raise ValueError("location update needs 'x' and 'y' (or 'forget': true)")
        x, y = body["x"], body["y"]
        for name, value in (("x", x), ("y", y)):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
        return lambda: (
            self.service.move_user(user, float(x), float(y)),
            {"ok": True, "user": user, "x": float(x), "y": float(y)},
        )[1]

    def _edge_call(self, body: dict) -> "Callable[[], dict]":
        for name in ("u", "v"):
            if name not in body:
                raise ValueError(f"edge update is missing required field {name!r}")
            value = body[name]
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer id, got {value!r}")
        u, v = body["u"], body["v"]
        weight = body.get("weight")
        if weight is not None and (
            isinstance(weight, bool) or not isinstance(weight, (int, float))
        ):
            raise ValueError(f"weight must be a number or null, got {weight!r}")
        weight = None if weight is None else float(weight)
        return lambda: (
            self.service.update_edge(u, v, weight),
            {
                "ok": True,
                "u": u,
                "v": v,
                "weight": weight,
                "pending_edge_updates": self.service.pending_edge_updates,
            },
        )[1]

    def _snapshot_root(self, body: dict) -> str:
        root = body.get("root")
        if not isinstance(root, str) or not root:
            raise ValueError("snapshot body needs a 'root' directory string")
        return root

    def _snapshot_call(self, body: dict) -> "Callable[[], dict]":
        root = self._snapshot_root(body)
        fold = body.get("fold", True)
        if not isinstance(fold, bool):
            raise ValueError(f"fold must be a boolean, got {fold!r}")

        def call() -> dict:
            path = self.service.snapshots(root).snapshot(fold=fold)
            return {"ok": True, "root": root, "name": path.name, "path": str(path)}

        return call

    def _restore_call(self, body: dict) -> "Callable[[], dict]":
        root = self._snapshot_root(body)

        def call() -> dict:
            engine = self.service.snapshots(root).restore()
            return {
                "ok": True,
                "root": root,
                "kind": type(engine).__name__,
                "users": engine.graph.n,
            }

        return call

    # -- workers (executor threads; results return through _report) -----

    def _drain(self, loop: "asyncio.AbstractEventLoop") -> None:
        """Take the oldest waiting job — plus, if it is a ``/query``,
        the run of ``/query`` jobs queued directly behind it, up to
        ``max_batch`` — execute, and hand every outcome back to the
        event loop in one call.  A job that is abandoned or past its
        deadline is reported without running.  Submitted once per
        admitted job; a drain that finds its job already taken by an
        earlier drain's batch returns."""
        with self._take_lock:
            if not self._jobs:
                return
            batch = [self._jobs.popleft()]
            if batch[0].request is not None:
                while (
                    len(batch) < self.config.max_batch
                    and self._jobs
                    and self._jobs[0].request is not None
                ):
                    batch.append(self._jobs.popleft())
        now = loop.time()
        reports: "list[tuple[_Job, tuple | None]]" = []
        live = []
        for job in batch:
            if job.abandoned or job.deadline <= now:
                reports.append((job, None))
            else:
                live.append(job)
        try:
            outcomes = self._execute(live)
        except Exception as err:  # an admitted job always gets an answer
            outcomes = [self._failure(err)] * len(live)
        reports.extend(zip(live, outcomes))
        loop.call_soon_threadsafe(self._report, reports)

    def _execute(self, live: "list[_Job]") -> "list[tuple[int, object]]":
        """``(status, body)`` per job; query bodies leave here encoded."""
        if not live:
            return []
        if live[0].request is None:
            return [(200, live[0].call())]
        reqs = [job.request for job in live]
        if len(reqs) > 1:
            try:
                return [(200, r.wire()) for r in self.service.query_many(reqs)]
            except Exception:
                # a request rejected at execution (e.g. an unlocated
                # query user) must not fail its batch-mates: run each
                # on its own
                pass
        outcomes = []
        for req in reqs:
            try:
                outcomes.append((200, self.service.query(req).wire()))
            except Exception as err:
                outcomes.append(self._failure(err))
        return outcomes

    @staticmethod
    def _failure(err: Exception) -> "tuple[int, dict]":
        status, code = classify_exception(err)
        return status, error_body(code, str(err))

    def _report(self, reports: "list[tuple[_Job, tuple | None]]") -> None:
        """Resolve one drained batch (event-loop thread: the only place
        worker outcomes touch the futures and :class:`ServerStats`)."""
        executed = 0
        for job, outcome in reports:
            if outcome is None:
                self.stats.deadline_expired += 1
                outcome = (504, _DEADLINE_BODY)
            else:
                executed += 1
            job.timer.cancel()
            if not job.future.done():
                job.future.set_result(outcome)
            self.stats.completed += 1
            self._inflight -= 1
            if job.notify and outcome[0] == 200:
                self._notify_update()
        if executed > 1:
            self.stats.coalesced_batches += 1
            self.stats.coalesced_requests += executed

    # -- subscription streams ------------------------------------------

    def _parse_subscribe(self, request: HTTPRequest) -> QueryRequest:
        """The standing query named by ``/subscribe``'s URL parameters
        (strings on the wire: the numeric ones are cast here, the
        request model validates the values)."""
        params = request.params
        if "user" not in params:
            raise ApiError(400, INVALID_ARGUMENT, "subscribe needs a 'user' parameter")
        parsed: dict = {}
        for name, caster in (("user", int), ("k", int), ("alpha", float)):
            raw = params.get(name)
            if raw is None:
                continue
            try:
                parsed[name] = caster(raw)
            except ValueError:
                raise ApiError(
                    400, INVALID_ARGUMENT, f"malformed {name!r} parameter: {raw!r}"
                ) from None
        if "method" in params:
            parsed["method"] = params["method"]
        try:
            return QueryRequest(**parsed)
        except ValueError as err:
            raise ApiError(*classify_exception(err), str(err)) from None

    async def _handle_subscribe(self, request: HTTPRequest, writer) -> None:
        if self._draining:
            self.stats.drained_rejections += 1
            await self._respond(
                writer, 503, error_body(SHUTTING_DOWN, "server is draining"), keep_alive=False
            )
            return
        try:
            query = self._parse_subscribe(request)
        except ApiError as err:
            await self._respond(writer, err.status, err.body(), keep_alive=False)
            return
        loop = asyncio.get_running_loop()
        registry = self._get_registry()
        try:
            sub = await loop.run_in_executor(self._executor, registry.subscribe, query)
        except Exception as err:
            status, code = classify_exception(err)
            await self._respond(writer, status, error_body(code, str(err)), keep_alive=False)
            return
        self._active_streams += 1
        self.stats.streams_opened += 1
        try:
            await http.start_sse(writer)
            await self._stream_subscription(registry, sub, writer, loop)
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            self._active_streams -= 1
            self.stats.streams_closed += 1
            try:
                await loop.run_in_executor(self._executor, registry.unsubscribe, sub)
            except RuntimeError:
                pass  # registry already closed by stop()

    def _read_subscription(self, registry, sub):
        """Current result, ``None`` while suspended (executor thread)."""
        try:
            return registry.result(sub)
        except ValueError:
            return None

    async def _send_event(self, writer, event: str, payload) -> None:
        await http.send_sse(writer, event, payload)
        self.stats.events_sent += 1

    async def _stream_subscription(self, registry, sub, writer, loop) -> None:
        last = await loop.run_in_executor(
            self._executor, self._read_subscription, registry, sub
        )
        await self._send_event(
            writer, "suspended" if last is None else "snapshot", subscription_payload(sub)
        )
        while not self._draining:
            event = self._update_event
            try:
                await asyncio.wait_for(event.wait(), timeout=self.config.heartbeat_s)
            except asyncio.TimeoutError:
                await http.send_sse_comment(writer)
                continue
            current = await loop.run_in_executor(
                self._executor, self._read_subscription, registry, sub
            )
            if current is None:
                if last is not None:
                    await self._send_event(writer, "suspended", subscription_payload(sub))
                    last = None
                continue
            if last is None:
                await self._send_event(writer, "snapshot", subscription_payload(sub))
                last = current
                continue
            delta = diff_results(last, current)
            if delta is not None:
                await self._send_event(writer, "delta", delta)
            last = current
        await self._send_event(writer, "end", {"reason": "drain"})
        await http.end_sse(writer)


class ServerThread:
    """Run an :class:`SSRQServer` on a private event loop in a daemon
    thread — the harness the tests, the CLI's ``serve`` command and the
    load benchmark share.

        >>> from repro import GeoSocialEngine, QueryService, gowalla_like
        >>> from repro.server import ServerClient, ServerThread
        >>> engine = GeoSocialEngine.from_dataset(gowalla_like(n=200, seed=7))
        >>> with QueryService(engine) as service:
        ...     with ServerThread(service) as handle:
        ...         client = ServerClient(handle.host, handle.port)
        ...         client.healthz()["status"]
        'ok'
    """

    def __init__(self, service: "QueryService", config: "ServerConfig | None" = None, **overrides) -> None:
        self.server = SSRQServer(service, config, **overrides)
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._thread: "threading.Thread | None" = None
        self._startup: "Exception | None" = None

    @property
    def host(self) -> str:
        return self.server.config.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> "ServerThread":
        ready = threading.Event()

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self.server.start())
            except Exception as err:  # bind failure and friends
                self._startup = err
                ready.set()
                loop.close()
                return
            ready.set()
            try:
                loop.run_forever()
            finally:
                loop.close()

        self._thread = threading.Thread(target=run, name="ssrq-server", daemon=True)
        self._thread.start()
        if not ready.wait(timeout=30):  # pragma: no cover - startup hang
            raise RuntimeError("server failed to start within 30s")
        if self._startup is not None:
            raise self._startup
        return self

    def stop(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        loop, thread = self._loop, self._thread
        if loop is None or thread is None or not thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(drain=drain, timeout=timeout), loop
        )
        future.result(timeout + 5)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
