"""The asyncio HTTP serving boundary over :class:`QueryService`.

:class:`SSRQServer` puts a socket in front of the whole stack — engine,
service, stream, store — with the serving disciplines a shared
deployment needs:

- **admission control** — every serving request passes a bounded queue
  (``queue_depth``).  Overflow is shed *immediately* with ``429`` and a
  ``Retry-After`` hint; an admitted request is never dropped — it
  always runs to a response, even if the client has stopped waiting.
  The bound on concurrently admitted work is ``queue_depth + workers``
  (queued plus executing).
- **request coalescing** — concurrent single ``/query`` requests that
  are queued together are drained into one
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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

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

_SENTINEL = object()


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of one :class:`SSRQServer`."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (read it back via ``server.port``)
    port: int = 0
    #: admission-queue depth; overflow sheds with 429
    queue_depth: int = 64
    #: executor width and number of queue consumers
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
    all mutation happens on the event loop)."""

    connections: int = 0
    requests: int = 0
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
        return {
            "connections": self.connections,
            "requests": self.requests,
            "admitted": self.admitted,
            "shed": self.shed,
            "completed": self.completed,
            "client_errors": self.client_errors,
            "server_errors": self.server_errors,
            "deadline_expired": self.deadline_expired,
            "deadline_timeouts": self.deadline_timeouts,
            "drained_rejections": self.drained_rejections,
            "coalesced_batches": self.coalesced_batches,
            "coalesced_requests": self.coalesced_requests,
            "streams_opened": self.streams_opened,
            "streams_closed": self.streams_closed,
            "events_sent": self.events_sent,
            "updates_notified": self.updates_notified,
        }


class _Job:
    """One admitted unit of work."""

    __slots__ = ("kind", "request", "call", "future", "deadline", "abandoned", "notify")

    def __init__(
        self,
        kind: str,
        *,
        future: "asyncio.Future",
        deadline: float,
        request: "QueryRequest | None" = None,
        call: "Callable[[], dict] | None" = None,
        notify: bool = False,
    ) -> None:
        self.kind = kind           # "query" (coalescible) or "call"
        self.request = request
        self.call = call
        self.future = future
        self.deadline = deadline
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
        self._queue: "asyncio.Queue[object]" = asyncio.Queue(maxsize=config.queue_depth)
        self._executor = ThreadPoolExecutor(
            max_workers=config.workers, thread_name_prefix="ssrq-http"
        )
        self._workers: list[asyncio.Task] = []
        self._conn_tasks: "set[asyncio.Task]" = set()
        self._registry = None
        self._registry_lock = threading.Lock()
        self._update_event: "asyncio.Event | None" = None
        self._inflight = 0
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
        loop = asyncio.get_running_loop()
        self._workers = [
            loop.create_task(self._worker()) for _ in range(self.config.workers)
        ]
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
        while self._inflight > 0 and loop.time() < deadline:
            await asyncio.sleep(0.005)
        for _ in self._workers:
            await self._queue.put(_SENTINEL)
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
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
        snap["queued"] = self._queue.qsize()
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
            if path not in (
                "/query",
                "/query/batch",
                "/update/location",
                "/update/edge",
                "/snapshot",
                "/restore",
            ):
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
        loop = asyncio.get_running_loop()
        deadline = self._deadline_for(request, loop)
        future: "asyncio.Future" = loop.create_future()
        body = request.json()
        try:
            if path == "/query":
                req = QueryRequest.from_payload(body)
                return _Job("query", request=req, future=future, deadline=deadline)
            if path == "/query/batch":
                reqs = parse_batch(body)
                call = lambda: self._run_explicit_batch(reqs)  # noqa: E731
                return _Job("call", call=call, future=future, deadline=deadline)
            if path == "/update/location":
                call = self._location_call(body)
                return _Job("call", call=call, future=future, deadline=deadline, notify=True)
            if path == "/update/edge":
                call = self._edge_call(body)
                return _Job("call", call=call, future=future, deadline=deadline, notify=True)
            if path == "/snapshot":
                call = self._snapshot_call(body)
                return _Job("call", call=call, future=future, deadline=deadline)
            if path == "/restore":
                call = self._restore_call(body)
                return _Job("call", call=call, future=future, deadline=deadline, notify=True)
        except (ValueError, TypeError) as err:
            status, code = classify_exception(err)
            raise ApiError(status, code, str(err)) from None
        raise AssertionError(f"unrouted path {path}")  # pragma: no cover

    async def _admit(self, job: _Job, writer, keep_alive: bool) -> bool:
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
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
        self.stats.admitted += 1
        self._inflight += 1
        loop = asyncio.get_running_loop()
        remaining = job.deadline - loop.time()
        try:
            status, payload = await asyncio.wait_for(
                asyncio.shield(job.future), timeout=max(remaining, 0.001)
            )
        except asyncio.TimeoutError:
            job.abandoned = True
            self.stats.deadline_timeouts += 1
            await self._respond(
                writer,
                504,
                error_body(DEADLINE_EXCEEDED, "request deadline exceeded"),
                keep_alive=keep_alive,
            )
            return False
        await self._respond(writer, status, payload, keep_alive=keep_alive)
        return False

    # -- handler closures (run on executor threads) ---------------------

    def _run_explicit_batch(self, reqs: "list[QueryRequest]") -> dict:
        responses = self.service.query_many(reqs)
        return {
            "count": len(responses),
            "responses": [r.payload() for r in responses],
        }

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

    # -- workers --------------------------------------------------------

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            if job is _SENTINEL:
                return
            if job.kind == "query":
                batch = [job]
                handoff: "Optional[_Job]" = None
                while len(batch) < self.config.max_batch:
                    try:
                        nxt = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if nxt is _SENTINEL:
                        self._queue.put_nowait(_SENTINEL)
                        break
                    if nxt.kind == "query":
                        batch.append(nxt)
                    else:
                        handoff = nxt
                        break
                await self._run_query_jobs(batch, loop)
                if handoff is not None:
                    await self._run_call_job(handoff, loop)
            else:
                await self._run_call_job(job, loop)

    def _expire(self, job: _Job) -> None:
        self.stats.deadline_expired += 1
        self._finish(job, 504, error_body(DEADLINE_EXCEEDED, "request deadline exceeded"))

    def _finish(self, job: _Job, status: int, payload: dict) -> None:
        if not job.future.done():
            job.future.set_result((status, payload))
        self.stats.completed += 1
        self._inflight -= 1

    async def _run_query_jobs(self, jobs: "list[_Job]", loop) -> None:
        now = loop.time()
        live = []
        for job in jobs:
            if job.abandoned or job.deadline <= now:
                self._expire(job)
            else:
                live.append(job)
        if not live:
            return
        if len(live) == 1:
            job = live[0]
            outcome = await loop.run_in_executor(
                self._executor, self._serve_one, job.request
            )
            self._finish(job, *outcome)
            return
        reqs = [job.request for job in live]
        outcomes = await loop.run_in_executor(self._executor, self._serve_coalesced, reqs)
        self.stats.coalesced_batches += 1
        self.stats.coalesced_requests += len(live)
        for job, outcome in zip(live, outcomes):
            self._finish(job, *outcome)

    def _serve_one(self, req: "QueryRequest") -> "tuple[int, dict]":
        try:
            return 200, self.service.query(req).payload()
        except Exception as err:
            status, code = classify_exception(err)
            return status, error_body(code, str(err))

    def _serve_coalesced(self, reqs: "list[QueryRequest]") -> "list[tuple[int, dict]]":
        """One ``query_many`` over the coalesced jobs; if any request in
        the batch is rejected (e.g. an unlocated query user raises at
        execution), fall back to per-request execution so one bad
        request cannot fail its batch-mates."""
        try:
            responses = self.service.query_many(reqs)
        except Exception:
            return [self._serve_one(req) for req in reqs]
        return [(200, r.payload()) for r in responses]

    async def _run_call_job(self, job: _Job, loop) -> None:
        if job.abandoned or job.deadline <= loop.time():
            self._expire(job)
            return
        try:
            payload = await loop.run_in_executor(self._executor, job.call)
        except Exception as err:
            status, code = classify_exception(err)
            self._finish(job, status, error_body(code, str(err)))
            return
        self._finish(job, 200, payload)
        if job.notify:
            self._notify_update()

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
