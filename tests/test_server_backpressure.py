"""Admission control, deadlines and drain — real sockets, real
concurrency.

The suite wraps the service in a ``SlowService`` whose query paths
sleep before delegating, so queue occupancy is controllable, and then
asserts the serving disciplines the server promises:

- overflow is shed **immediately** with ``429`` + ``Retry-After``,
  never by hanging or dropping;
- every **admitted** request runs to a correct ``200`` response —
  admission is a completion guarantee;
- deadlines fire: a client whose budget elapses gets ``504`` while the
  server keeps its accounting straight, and a job whose deadline passes
  while still queued is answered ``504`` *without executing at all*;
- malformed input of every kind maps to typed ``4xx`` bodies, not
  connection resets or 500s;
- the event loop never does a worker's job: with every worker thread
  blocked, or the engine write-locked, cached queries and ``/healthz``
  are still answered at once, and no search, lock wait or encoding of
  a miss ever runs as a loop callback;
- a graceful drain completes in-flight work, ends subscription streams
  with a final ``end`` event, and refuses new connections.
"""

from __future__ import annotations

import socket
import sys
import threading
import time

import pytest

from repro import GeoSocialEngine, QueryService
from repro.datasets.synthetic import build_dataset
from repro.server import ServerClient, ServerThread
from repro.server.app import RETRY_AFTER_S
from repro.core.request import QueryRequest
from repro.service.model import QueryResponse, result_payload


class SlowService(QueryService):
    """A service whose query paths sleep first — the knob that lets the
    tests hold the admission queue at a chosen occupancy."""

    def __init__(self, engine, *, delay: float, **kwargs) -> None:
        super().__init__(engine, **kwargs)
        self.delay = delay
        self._call_lock = threading.Lock()
        self.query_calls = 0
        #: the thread each query / query_many call ran on
        self.call_threads: list = []

    def query(self, request, **kwargs):
        with self._call_lock:
            self.query_calls += 1
            self.call_threads.append(threading.current_thread())
        time.sleep(self.delay)
        return super().query(request, **kwargs)

    def query_many(self, requests, **kwargs):
        with self._call_lock:
            self.query_calls += len(list(requests))
            self.call_threads.append(threading.current_thread())
        time.sleep(self.delay)
        return super().query_many(requests, **kwargs)


@pytest.fixture(scope="module")
def engine() -> GeoSocialEngine:
    dataset = build_dataset("server-bp", n=200, avg_degree=6.0, coverage=0.9, seed=5)
    return GeoSocialEngine.from_dataset(dataset, num_landmarks=4, s=5, seed=1)


@pytest.fixture(scope="module")
def query_user(engine) -> int:
    return sorted(engine.locations.located_users())[0]


@pytest.fixture(scope="module")
def expected(engine, query_user) -> dict:
    with QueryService(engine, cache_size=0) as reference:
        return result_payload(
            reference.query(QueryRequest(query_user, k=5, alpha=0.3, method="ais")).result
        )


def _storm(handle, query_user, count: int, *, deadline_ms=None):
    """Fire ``count`` simultaneous queries; returns the per-thread
    ``(status, headers, body)`` triples — one per request, always."""
    barrier = threading.Barrier(count)
    outcomes: "list[tuple[int, dict, object] | None]" = [None] * count

    def worker(slot: int) -> None:
        headers = {"X-Deadline-Ms": str(deadline_ms)} if deadline_ms else None
        with ServerClient(handle.host, handle.port) as client:
            barrier.wait(timeout=10)
            outcomes[slot] = client.request(
                "POST",
                "/query",
                {"user": query_user, "k": 5, "alpha": 0.3, "method": "ais"},
                headers=headers,
            )

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert all(outcome is not None for outcome in outcomes), "a request hung or died"
    return outcomes


def test_overflow_sheds_and_admitted_complete(engine, query_user, expected):
    """The core backpressure contract, asserted across a 12-request
    storm against a queue of 2 with one slow worker: a mix of 200s and
    429s, correct 200 bodies, Retry-After on every 429, and the
    admitted == completed identity afterwards."""
    service = SlowService(engine, delay=0.15, cache_size=0)
    with service, ServerThread(service, queue_depth=2, workers=1) as handle:
        outcomes = _storm(handle, query_user, 12)
        statuses = [status for status, _, _ in outcomes]
        assert set(statuses) <= {200, 429}, statuses
        assert 200 in statuses and 429 in statuses, statuses
        for status, headers, body in outcomes:
            if status == 200:
                assert body["result"] == expected
            else:
                assert body["error"]["type"] == "overloaded"
                assert int(headers["Retry-After"]) == RETRY_AFTER_S
        with ServerClient(handle.host, handle.port) as client:
            stats = client.stats()["server"]
        shed, admitted = statuses.count(429), statuses.count(200)
        # +1 admitted for the /stats request itself? no — /stats is
        # served inline, not through the admission queue
        assert stats["shed"] == shed
        assert stats["admitted"] == admitted
        assert stats["completed"] == admitted
        assert stats["in_flight"] == 0


def test_shed_connection_stays_usable(engine, query_user, expected):
    """A 429 is a response, not a punishment: the same keep-alive
    connection serves a normal query once the storm passes."""
    service = SlowService(engine, delay=0.2, cache_size=0)
    with service, ServerThread(
        service, queue_depth=1, workers=1
    ) as handle:
        client = ServerClient(handle.host, handle.port)
        shed_status = None
        stop = threading.Event()

        def hammer() -> None:
            with ServerClient(handle.host, handle.port) as other:
                while not stop.is_set():
                    other.request("POST", "/query", {"user": query_user, "k": 5})

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                status, _, _ = client.request(
                    "POST", "/query", {"user": query_user, "k": 5, "alpha": 0.3, "method": "ais"}
                )
                if status == 429:
                    shed_status = status
                    break
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert shed_status == 429, "storm never filled the queue"
        payload = client.query(query_user, k=5, alpha=0.3, method="ais")
        assert payload["result"] == expected
        client.close()


def test_deadline_fires_mid_execution(engine, query_user):
    """A client budget shorter than the execution time yields 504; the
    admitted job still completes server-side (completed == admitted)."""
    service = SlowService(engine, delay=0.5, cache_size=0)
    with service, ServerThread(service, queue_depth=4, workers=1) as handle:
        with ServerClient(handle.host, handle.port) as client:
            started = time.monotonic()
            status, _, body = client.request(
                "POST",
                "/query",
                {"user": query_user, "k": 5},
                headers={"X-Deadline-Ms": "100"},
            )
            elapsed = time.monotonic() - started
            assert status == 504
            assert body["error"]["type"] == "deadline_exceeded"
            assert elapsed < 0.45, "504 must not wait for the slow execution"
            # the same connection keeps working after a 504
            payload = client.query(query_user, k=5, alpha=0.3, method="ais")
            assert payload["result"]["query_user"] == query_user
            for _ in range(100):  # the abandoned job drains server-side
                stats = client.stats()["server"]
                if stats["completed"] == stats["admitted"]:
                    break
                time.sleep(0.02)
            assert stats["completed"] == stats["admitted"]
            assert stats["deadline_timeouts"] >= 1


def test_queued_job_expires_without_executing(engine, query_user):
    """A job whose deadline passes while it is still *queued* is
    answered 504 and never reaches the service at all."""
    service = SlowService(engine, delay=0.4, cache_size=0)
    with service, ServerThread(
        service, queue_depth=4, workers=1
    ) as handle:
        results: dict = {}

        def occupant() -> None:
            with ServerClient(handle.host, handle.port) as client:
                results["occupant"] = client.request(
                    "POST", "/query", {"user": query_user, "k": 5}
                )

        thread = threading.Thread(target=occupant)
        thread.start()
        time.sleep(0.1)  # let the occupant reach the worker
        with ServerClient(handle.host, handle.port) as client:
            status, _, body = client.request(
                "POST",
                "/query",
                {"user": query_user, "k": 5},
                headers={"X-Deadline-Ms": "50"},
            )
        thread.join(timeout=30)
        assert status == 504 and body["error"]["type"] == "deadline_exceeded"
        assert results["occupant"][0] == 200
        # exactly one query reached the service: the occupant
        assert service.query_calls == 1


def test_malformed_requests_get_typed_400s(engine, query_user):
    service = SlowService(engine, delay=0.0, cache_size=0)
    with service, ServerThread(service) as handle:
        cases = [
            ({"k": 5}, "invalid_argument"),                  # missing user
            ({"user": "zero"}, "invalid_argument"),          # non-int user
            ({"user": query_user, "k": 0}, "invalid_argument"),
            ({"user": query_user, "alpha": 2.0}, "invalid_argument"),
            ({"user": query_user, "method": "warp"}, "invalid_argument"),
            ({"user": 10**9}, "unknown_user"),
        ]
        with ServerClient(handle.host, handle.port) as client:
            for body, expected_type in cases:
                status, _, payload = client.request("POST", "/query", body)
                assert status == 400, (body, status, payload)
                assert payload["error"]["type"] == expected_type, (body, payload)
            # malformed deadline header
            status, _, payload = client.request(
                "POST",
                "/query",
                {"user": query_user},
                headers={"X-Deadline-Ms": "soon"},
            )
            assert (status, payload["error"]["type"]) == (400, "invalid_argument")
            # wrong method / unknown path
            status, _, payload = client.request("GET", "/query")
            assert (status, payload["error"]["type"]) == (405, "method_not_allowed")
            status, _, payload = client.request("POST", "/nope", {})
            assert (status, payload["error"]["type"]) == (404, "not_found")
            # batch without requests
            status, _, payload = client.request("POST", "/query/batch", {"k": 3})
            assert (status, payload["error"]["type"]) == (400, "invalid_argument")
            # each of the ten 4xx counts once, as a client error only,
            # all on the one keep-alive connection
            server = client.stats()["server"]
            assert (server["client_errors"], server["server_errors"]) == (10, 0)
            assert server["connections"] == 1


@pytest.mark.parametrize(
    "field,value",
    [
        ("default_deadline_ms", 0.0),
        ("default_deadline_ms", -5.0),
        ("default_deadline_ms", float("nan")),
        ("heartbeat_s", 0.0),
        ("heartbeat_s", -1.0),
        ("heartbeat_s", float("inf")),
        ("heartbeat_s", float("nan")),
        ("port", 70000),
        ("port", -1),
        ("port", True),
        ("workers", 0),
        ("workers", True),
        ("workers", 2.5),
        ("queue_depth", 0),
        ("queue_depth", True),
    ],
    ids=repr,
)
def test_config_refuses_every_setting_that_cannot_work(engine, field, value):
    """``default_deadline_ms=0`` used to build a server that answered
    every admitted ``/query`` 504 without running it; a non-positive or
    non-finite heartbeat never ticks; a port outside
    0–65535 failed at bind with an ``OverflowError``.  Each is refused
    at construction, naming the field, and so are counts that are not
    integers."""
    with QueryService(engine, cache_size=0) as service:
        with pytest.raises(ValueError, match=field):
            ServerThread(service, **{field: value})


def test_malformed_framing_gets_400_and_close(engine):
    """Raw-socket abuse: garbage framing, non-JSON bodies and chunked
    request bodies are answered with a typed 400, then the connection
    is closed (the stream position is untrustworthy)."""
    service = SlowService(engine, delay=0.0, cache_size=0)
    with service, ServerThread(service) as handle:
        raw_cases = [
            b"THIS IS NOT HTTP\r\n\r\n",
            (
                b"POST /query HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 7\r\n\r\nnotjson"
            ),
            (
                b"POST /query HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 6\r\n\r\n[1, 2]"
            ),
            (
                b"POST /query HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n"
            ),
            (
                b"POST /query HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: banana\r\n\r\n"
            ),
            # one header line over MAX_LINE, and two over asyncio's own
            # 64 KiB stream limit (which raises before a length check)
            b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 9_000 + b"\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n",
            b"a" * 70_000,
        ]
        for raw in raw_cases:
            with socket.create_connection(
                (handle.host, handle.port), timeout=10
            ) as sock:
                sock.sendall(raw)
                response = b""
                while b"\r\n\r\n" not in response:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    response += chunk
                assert response.startswith(b"HTTP/1.1 400 "), (raw[:80], response[:80])
                assert b"Connection: close" in response
                body = response.split(b"\r\n\r\n", 1)[1] + sock.recv(4096)
                assert b'"type":"bad_request"' in body
                assert sock.recv(4096) == b"", "the connection must be closed"
        with ServerClient(handle.host, handle.port) as client:
            assert client.call("GET", "/healthz") == {"status": "ok"}    # and the server lives on


def test_graceful_drain(engine, query_user, expected):
    """stop(): in-flight requests finish with correct 200s, the SSE
    stream ends with an ``end`` event, new connections are refused."""
    service = SlowService(engine, delay=0.3, cache_size=0)
    handle = ServerThread(
        service, queue_depth=8, workers=2, heartbeat_s=0.2
    )
    with service:
        handle.start()
        outcomes: "list[tuple[int, object]]" = []
        lock = threading.Lock()

        def slow_query() -> None:
            with ServerClient(handle.host, handle.port) as client:
                status, _, body = client.request(
                    "POST", "/query", {"user": query_user, "k": 5, "alpha": 0.3, "method": "ais"}
                )
            with lock:
                outcomes.append((status, body))

        tail_events: list = []

        def tail() -> None:
            with ServerClient(handle.host, handle.port) as client:
                for event, payload in client.tail(query_user, k=5, timeout=30):
                    tail_events.append((event, payload))

        tail_thread = threading.Thread(target=tail)
        tail_thread.start()
        time.sleep(0.15)  # stream open, snapshot delivered
        query_threads = [threading.Thread(target=slow_query) for _ in range(3)]
        for t in query_threads:
            t.start()
        time.sleep(0.1)  # all three admitted (queue_depth=8)
        handle.stop()  # drain: must not strand the in-flight queries
        for t in query_threads:
            t.join(timeout=30)
        tail_thread.join(timeout=30)
        assert [status for status, _ in outcomes] == [200, 200, 200]
        for _, body in outcomes:
            assert body["result"] == expected
        assert tail_events and tail_events[0][0] == "snapshot"
        assert tail_events[-1] == ("end", {"reason": "drain"})
        with pytest.raises(OSError):
            socket.create_connection((handle.host, handle.port), timeout=2)


def test_a_post_during_drain_is_refused_and_counted(engine, query_user):
    """While a drain waits for admitted work, a POST on a connection
    that is still open is answered 503 and counted in
    ``drained_rejections``; a GET is still answered."""
    service = SlowService(engine, delay=0.5, cache_size=0)
    handle = ServerThread(service, workers=1)
    with service:
        handle.start()
        outcomes: dict = {}
        slow = _post_in_thread(handle, {"user": query_user}, outcomes, "slow")
        _wait_for(lambda: service.query_calls == 1, "the slow query to start")
        with ServerClient(handle.host, handle.port) as client:
            client.call("GET", "/healthz")  # the connection the drain keeps open
            stopper = threading.Thread(target=handle.stop)
            stopper.start()
            _wait_for(lambda: client.stats()["server"]["draining"], "the drain")
            status, _, payload = client.request("POST", "/query", {"user": query_user})
        stopper.join(timeout=30)
        slow.join(timeout=30)
        assert not stopper.is_alive() and not slow.is_alive()
        assert (status, payload["error"]["type"]) == (503, "shutting_down")
        assert outcomes["slow"][0] == 200
        assert handle.server.stats.drained_rejections == 1


def test_drain_snapshot_root(engine, tmp_path):
    """A configured ``drain_snapshot_root`` produces a committed
    snapshot as the last act of a graceful stop."""
    root = tmp_path / "drain-snaps"
    service = SlowService(engine, delay=0.0, cache_size=0)
    with service:
        with ServerThread(service, drain_snapshot_root=str(root)) as handle:
            with ServerClient(handle.host, handle.port) as client:
                assert client.call("GET", "/healthz") == {"status": "ok"}
        manager = service.snapshots(str(root))
        assert manager.latest() is not None


# ------------------------------------------ the loop never does a worker's job


class GatedService(QueryService):
    """A caching service whose executing paths park on a gate — the
    worker threads can be held inside ``service.query`` for as long as
    a test needs them busy."""

    def __init__(self, engine, **kwargs) -> None:
        super().__init__(engine, **kwargs)
        self.gate = threading.Event()
        self.gate.set()
        self._call_lock = threading.Lock()
        self.parked = 0
        self.calls: list = []

    def _park(self, requests) -> None:
        with self._call_lock:
            self.calls.append([r.user for r in requests])
            self.parked += 1
        assert self.gate.wait(timeout=30), "test never reopened the gate"
        with self._call_lock:
            self.parked -= 1

    def query(self, request, **kwargs):
        self._park([request])
        return super().query(request, **kwargs)

    def query_many(self, requests, **kwargs):
        self._park(requests)
        return super().query_many(requests, **kwargs)


def _wait_for(condition, what: str, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.005)


def _post_in_thread(handle, body, outcomes: dict, name: str, headers=None) -> threading.Thread:
    def run() -> None:
        with ServerClient(handle.host, handle.port) as client:
            outcomes[name] = client.request("POST", "/query", body, headers=headers)

    thread = threading.Thread(target=run)
    thread.start()
    return thread


def _prompt(client, method, path, body=None):
    started = time.monotonic()
    status, _, payload = client.request(method, path, body)
    assert time.monotonic() - started < 1.0, f"{path} waited for a worker"
    return status, payload


def test_cached_queries_and_healthz_bypass_busy_workers(engine):
    """Both worker threads parked inside ``service.query``: a cached
    ``/query`` and ``/healthz`` are answered from the loop, uncached
    queries queue behind the workers, the ``queue_depth + 1``-th is
    shed, a queued job past its deadline is answered 504 and never
    reaches the service, and ``stop()`` drains the rest."""
    users = sorted(engine.locations.located_users())
    hot, a, b, c, d, e = users[:6]
    body = lambda user: {"user": user, "k": 5}  # noqa: E731
    service = GatedService(engine, cache_size=64)
    handle = ServerThread(service, queue_depth=2, workers=2)
    outcomes: dict = {}
    with service:
        handle.start()
        with ServerClient(handle.host, handle.port) as client:
            first = client.query(hot, k=5)
            assert not first["cached"]
            service.gate.clear()
            threads = [_post_in_thread(handle, body(u), outcomes, u) for u in (a, b)]
            _wait_for(lambda: service.parked == 2, "both workers to park")

            status, payload = _prompt(client, "POST", "/query", body(hot))
            assert status == 200 and payload["cached"]
            assert payload["result"] == first["result"]
            assert _prompt(client, "GET", "/healthz") == (200, {"status": "ok"})

            threads.append(_post_in_thread(handle, body(c), outcomes, c))
            threads.append(
                _post_in_thread(handle, body(d), outcomes, d, headers={"X-Deadline-Ms": "50"})
            )
            _wait_for(lambda: client.stats()["server"]["queued"] == 2, "two queued jobs")
            status, payload = _prompt(client, "POST", "/query", body(e))
            assert (status, payload["error"]["type"]) == (429, "overloaded")
            _wait_for(lambda: d in outcomes, "the queued job's deadline")
            assert outcomes[d][0] == 504
            # the cached answer is still served with the queue full
            assert _prompt(client, "POST", "/query", body(hot))[0] == 200

            stats = client.stats()["server"]
            assert stats["served_inline"] == 2
            assert (stats["admitted"], stats["completed"], stats["in_flight"]) == (5, 1, 4)
            assert (stats["shed"], stats["deadline_timeouts"]) == (1, 1)
        service.gate.set()
        handle.stop()          # drains: the parked and the queued finish
        for thread in threads:
            thread.join(timeout=30)
        assert [outcomes[u][0] for u in (a, b, c)] == [200, 200, 200]
        stats = handle.server.stats_snapshot()
        assert (stats["admitted"], stats["completed"], stats["in_flight"]) == (5, 5, 0)
        assert stats["deadline_expired"] == 1
        assert sorted(service.calls) == sorted([[hot], [a], [b], [c]])   # never [d]
        # the service saw every request exactly once, probes included
        snap = service.stats.snapshot()
        assert (snap["requests"], snap["cache_hits"], snap["cache_misses"]) == (6, 2, 4)


def test_cached_queries_and_healthz_bypass_a_held_write_lock(engine):
    """A writer holds the service's lock exclusively: the uncached
    query waits on a worker thread, the loop keeps answering."""
    hot, cold = sorted(engine.locations.located_users())[:2]
    outcomes: dict = {}
    with QueryService(engine, cache_size=64) as service, ServerThread(
        service, workers=1
    ) as handle, ServerClient(handle.host, handle.port) as client:
        first = client.query(hot, k=5)
        with service._lock.write_locked():
            thread = _post_in_thread(handle, {"user": cold, "k": 5}, outcomes, cold)
            _wait_for(lambda: client.stats()["server"]["in_flight"] == 1, "admission")
            status, payload = _prompt(client, "POST", "/query", {"user": hot, "k": 5})
            assert status == 200 and payload["cached"]
            assert payload["result"] == first["result"]
            assert _prompt(client, "GET", "/healthz")[0] == 200
            assert cold not in outcomes
        thread.join(timeout=30)
        assert outcomes[cold][0] == 200 and not outcomes[cold][2]["cached"]


def test_identical_queued_queries_run_one_job_each(engine):
    """Identical uncached queries queued behind a busy worker leave the
    queue one job at a time: the first executes, the two behind it are
    result-cache hits on the worker, and nothing is merged."""
    occupant, user = sorted(engine.locations.located_users())[:2]
    service = GatedService(engine, cache_size=64)
    outcomes: dict = {}
    with service, ServerThread(service, queue_depth=8, workers=1) as handle:
        service.gate.clear()
        threads = [_post_in_thread(handle, {"user": occupant, "k": 5}, outcomes, "occupant")]
        _wait_for(lambda: service.parked == 1, "the worker to park")
        threads += [
            _post_in_thread(handle, {"user": user, "k": 5}, outcomes, i) for i in range(3)
        ]
        _wait_for(lambda: handle.server.stats_snapshot()["queued"] == 3, "three queued jobs")
        service.gate.set()
        for thread in threads:
            thread.join(timeout=30)
        assert [outcomes[i][0] for i in range(3)] == [200, 200, 200]
        assert len({str(outcomes[i][2]["result"]) for i in range(3)}) == 1
        assert service.calls == [[occupant], [user], [user], [user]]
        assert sorted(outcomes[i][2]["cached"] for i in range(3)) == [False, True, True]
        stats = handle.server.stats_snapshot()
        assert (stats["completed"], stats["served_inline"]) == (4, 0)
        assert (stats["coalesced_batches"], stats["coalesced_requests"]) == (0, 0)


def test_workers_pop_every_admitted_job_once(engine):
    """More worker threads than cores pop the shared job deque without
    a lock, with the switch interval shortened so they interleave
    often: every admitted request is answered once, with its own
    answer, and the counters balance."""
    users = sorted(engine.locations.located_users())[:24]
    with QueryService(engine, cache_size=0) as reference:
        expected = {u: result_payload(reference.query(QueryRequest(u, k=5)).result) for u in users}
    outcomes: dict = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        service = QueryService(engine, cache_size=0)
        with service, ServerThread(service, queue_depth=64, workers=4) as handle:
            threads = [_post_in_thread(handle, {"user": u, "k": 5}, outcomes, u) for u in users]
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive(), "a request hung"
            stats = handle.server.stats_snapshot()
    finally:
        sys.setswitchinterval(interval)
    assert {u: (outcomes[u][0], outcomes[u][2]["result"]) for u in users} == {
        u: (200, expected[u]) for u in users
    }
    assert stats["admitted"] == stats["completed"] == len(users)
    assert (stats["queued"], stats["in_flight"]) == (0, 0)


def test_no_loop_callback_runs_a_query(engine, monkeypatch):
    """A burst of uncached queries, each 80 ms inside the service, over
    more connections than workers, then the same burst again as cache
    hits.  Every query / query_many call, every acquisition of the
    service's read lock and every encoding of a miss is recorded with
    the thread it ran on: none ran on the event loop's thread.  (A
    cache hit is answered and encoded on the loop, lock-free.)"""
    users = sorted(engine.locations.located_users())[:8]
    service = SlowService(engine, delay=0.08, cache_size=64)
    lock_threads: list = []
    miss_wire_threads: list = []
    acquire_read = service._lock.acquire_read

    def recorded_acquire_read() -> None:
        lock_threads.append(threading.current_thread())
        acquire_read()

    encode = QueryResponse.wire

    def recorded_wire(response) -> bytes:
        if not response.cached:
            miss_wire_threads.append(threading.current_thread())
        return encode(response)

    monkeypatch.setattr(service._lock, "acquire_read", recorded_acquire_read)
    monkeypatch.setattr(QueryResponse, "wire", recorded_wire)
    with service, ServerThread(service, queue_depth=16, workers=2) as handle:
        for _ in range(2):
            outcomes: dict = {}
            threads = [
                _post_in_thread(handle, {"user": user, "k": 5}, outcomes, user) for user in users
            ]
            for thread in threads:
                thread.join(timeout=30)
            assert [outcomes[user][0] for user in users] == [200] * len(users)
        stats = handle.server.stats_snapshot()
        loop_thread = handle._thread
    recorded = {
        "query call": service.call_threads,
        "read lock": lock_threads,
        "miss encoding": miss_wire_threads,
    }
    for what, threads in recorded.items():
        assert len(threads) >= len(users), what
        assert all(thread is not loop_thread for thread in threads), what
    assert stats["served_inline"] == len(users) == stats["completed"]
