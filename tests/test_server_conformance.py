"""Differential conformance: the HTTP boundary returns *bit-identical*
answers to direct :class:`QueryService` calls.

Every test here compares a response that travelled the full network
path — JSON encoding, asyncio framing, the admission queue, the
coalescing worker, JSON decoding — against a reference computed by a
second, cache-free ``QueryService`` over the *same* engine.  Equality
is exact dict equality (ids, float scores via repr round-tripping,
tie-break order, ``result.method``), not approximate: the serving
boundary is not allowed to perturb the paper's rankings in any way.

The suite runs under both kernel backends via the CI matrix
(``REPRO_BACKEND=python`` / ``numpy``).
"""

from __future__ import annotations

import math
import threading

import pytest

from repro import METHODS, GeoSocialEngine, QueryService, route_method
from repro.datasets.synthetic import build_dataset
from repro.server import ServerClient, ServerThread
from repro.core.request import QueryRequest
from repro.service.model import result_payload

ALPHAS = (0.0, 0.3, 1.0)  # both endpoints (spatial-only, social-only) + mixed


@pytest.fixture(scope="module")
def engine() -> GeoSocialEngine:
    dataset = build_dataset("server-conf", n=400, avg_degree=8.0, coverage=0.8, seed=11)
    return GeoSocialEngine.from_dataset(dataset, num_landmarks=4, s=5, seed=1)


@pytest.fixture(scope="module")
def service(engine):
    with QueryService(engine) as svc:
        yield svc


@pytest.fixture(scope="module")
def reference(engine):
    """Cache-free service over the *same* engine — the oracle."""
    with QueryService(engine, cache_size=0) as ref:
        yield ref


@pytest.fixture(scope="module")
def handle(service):
    with ServerThread(service, queue_depth=32, workers=2, heartbeat_s=0.2) as h:
        yield h


@pytest.fixture()
def client(handle):
    with ServerClient(handle.host, handle.port) as c:
        yield c


@pytest.fixture(scope="module")
def users(engine) -> list[int]:
    located = sorted(engine.locations.located_users())
    return [located[0], located[len(located) // 2]]


def expected_result(reference, user, **params) -> dict:
    return result_payload(reference.query(QueryRequest(user, **params)).result)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("method", METHODS)
def test_query_conformance(client, reference, users, method, alpha):
    """Every method at every alpha endpoint: the HTTP answer equals the
    direct answer field-for-field, float-for-float."""
    for user in users:
        served = client.query(user, k=10, alpha=alpha, method=method)
        assert served["result"] == expected_result(
            reference, user, k=10, alpha=alpha, method=method
        )
        # alpha endpoints reroute (e.g. sfa@alpha=0 -> spa); the wire
        # reports the method that actually ran, same as the direct path
        assert served["result"]["method"] == route_method(method, alpha)


def test_auto_conformance(client, reference, users):
    """``method="auto"`` conformance is score-exact: the adaptive
    planner is shared engine state, so interleaved resolutions may pick
    different (equivalent) methods — the *scores* must still agree."""
    for user in users:
        served = client.query(user, k=10, alpha=0.3, method="auto")
        direct = expected_result(reference, user, k=10, alpha=0.3, method="auto")
        assert served["result"]["method"] in METHODS
        served_scores = [nb["score"] for nb in served["result"]["neighbors"]]
        direct_scores = [nb["score"] for nb in direct["neighbors"]]
        assert served_scores == pytest.approx(direct_scores, abs=1e-9)


def test_infinity_survives_the_wire(client, reference, users):
    """At ``alpha == 0`` social distances are legitimately infinite;
    the JSON layer must round-trip them as floats, not nulls."""
    user = users[0]
    served = client.query(user, k=10, alpha=0.0, method="sfa")
    direct = expected_result(reference, user, k=10, alpha=0.0, method="sfa")
    assert served["result"] == direct
    assert any(nb["social"] == math.inf for nb in served["result"]["neighbors"])


def test_batch_conformance(client, reference, users):
    """A batch with per-request overrides and top-level defaults equals
    ``query_many`` over the equivalent request list, pairwise."""
    requests = [
        {"user": users[0]},
        {"user": users[1], "k": 5},
        {"user": users[0], "alpha": 1.0, "method": "spa"},
        {"user": users[0]},  # duplicate: exercises batch dedup
    ]
    served = client.query_batch(requests, k=8, alpha=0.3, method="ais")
    direct = reference.query_many(
        [
            QueryRequest(users[0], k=8, alpha=0.3, method="ais"),
            QueryRequest(users[1], k=5, alpha=0.3, method="ais"),
            QueryRequest(users[0], k=8, alpha=1.0, method="spa"),
            QueryRequest(users[0], k=8, alpha=0.3, method="ais"),
        ]
    )
    assert served["count"] == len(direct)
    for got, want in zip(served["responses"], direct):
        assert got["result"] == result_payload(want.result)
        assert got["request"]["user"] == want.request.user
        assert got["request"]["k"] == want.request.k


def test_concurrent_queries_conform(handle, reference, engine):
    """Many concurrent single queries — the coalescing path — each come
    back identical to their individually computed reference."""
    located = sorted(engine.locations.located_users())
    pool = [located[i % len(located)] for i in range(16)]
    expected = {
        (user, alpha): expected_result(reference, user, k=6, alpha=alpha, method="ais")
        for user in set(pool)
        for alpha in (0.3, 0.7)
    }
    failures: list[str] = []

    def worker(user: int, alpha: float) -> None:
        with ServerClient(handle.host, handle.port) as c:
            served = c.query(user, k=6, alpha=alpha, method="ais")
        if served["result"] != expected[(user, alpha)]:
            failures.append(f"user={user} alpha={alpha}")

    threads = [
        threading.Thread(target=worker, args=(user, alpha))
        for i, user in enumerate(pool)
        for alpha in ((0.3,) if i % 2 else (0.7,))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not failures, f"diverging responses: {failures}"


def test_update_location_then_query_conforms(client, reference, engine):
    """A location move through the API is immediately visible, and
    post-update answers still match the direct path exactly."""
    located = sorted(engine.locations.located_users())
    mover, observer = located[-1], located[1]
    before = client.query(observer, k=10, alpha=0.3, method="ais")["result"]
    assert client.move(mover, 0.123, 0.456)["ok"] is True
    x, y = engine.locations.get(mover)
    assert (x, y) == (0.123, 0.456)
    after = client.query(observer, k=10, alpha=0.3, method="ais")["result"]
    assert after == expected_result(reference, observer, k=10, alpha=0.3, method="ais")
    # the move itself is also served conformantly for the moved user
    assert client.query(mover, k=10, alpha=0.3, method="ais")["result"] == (
        expected_result(reference, mover, k=10, alpha=0.3, method="ais")
    )
    assert before["k"] == after["k"]


def test_update_edge_then_query_conforms(client, reference, users):
    """Edge updates are buffered by the service (pending until the next
    rebuild); the HTTP path must report that and stay conformant."""
    served = client.update_edge(users[0], users[1], 0.05)
    assert served["ok"] is True
    assert served["pending_edge_updates"] >= 1
    after = client.query(users[0], k=10, alpha=1.0, method="spa")["result"]
    assert after == expected_result(reference, users[0], k=10, alpha=1.0, method="spa")


def test_forget_location_parity(client, reference, engine):
    """Forgetting a query user's location makes both paths reject the
    query the same way (HTTP: 400/unlocated_user)."""
    located = sorted(engine.locations.located_users())
    victim = located[-2]
    assert client.forget(victim)["forgotten"] is True
    status, _, body = client.request(
        "POST", "/query", {"user": victim, "k": 5, "alpha": 0.3}
    )
    assert status == 400
    assert body["error"]["type"] == "unlocated_user"
    with pytest.raises(ValueError, match="no known location"):
        reference.query(QueryRequest(victim, k=5, alpha=0.3))


def test_subscription_snapshot_matches_query(handle, client, reference, engine):
    """The SSE ``snapshot`` event carries the same result a one-shot
    query returns, and a ``delta`` reconstructs the new top-k exactly."""
    located = sorted(engine.locations.located_users())
    # moving the subscribed user themselves guarantees their standing
    # query changes (an arbitrary user may not be in their top-k)
    user = located[2]
    mover = user
    events: list = []
    done = threading.Event()

    def consume() -> None:
        with ServerClient(handle.host, handle.port) as tail_client:
            for item in tail_client.tail(user, k=8, alpha=0.3, method="ais", timeout=30):
                events.append(item)
                if item[0] == "delta":
                    break
        done.set()

    thread = threading.Thread(target=consume)
    thread.start()
    # wait for the snapshot event before mutating
    for _ in range(200):
        if events:
            break
        threading.Event().wait(0.02)
    assert events and events[0][0] == "snapshot"
    snapshot = events[0][1]
    assert snapshot["result"] == expected_result(reference, user, k=8, alpha=0.3, method="ais")
    # drive deltas until the standing query actually changes
    rng_positions = [(0.01, 0.01), (0.99, 0.99), (0.5, 0.5), (0.02, 0.03)]
    for x, y in rng_positions:
        client.move(mover, x, y)
        if done.wait(timeout=1.0):
            break
    assert done.wait(timeout=10), "no delta observed after repeated moves"
    thread.join(timeout=10)
    delta = events[-1][1]
    members = {nb["user"]: nb for nb in snapshot["result"]["neighbors"]}
    for user_id in delta["left"]:
        members.pop(user_id)
    for record in delta["entered"]:
        members[record["user"]] = record
    for record in delta["moved"]:
        members[record["user"]] = {
            key: record[key] for key in ("user", "score", "social", "spatial")
        }
    assert len(members) == delta["size"]
    current = expected_result(reference, user, k=8, alpha=0.3, method="ais")
    reconstructed = sorted(nb["score"] for nb in members.values())
    assert reconstructed == [nb["score"] for nb in current["neighbors"]]
    assert max(reconstructed) == delta["fk"]


def test_stats_and_metrics_surface(client):
    stats = client.stats()
    for section in ("service", "cache", "server", "engine"):
        assert section in stats, f"missing /stats section {section!r}"
    assert stats["server"]["admitted"] >= 1
    assert stats["server"]["completed"] <= stats["server"]["admitted"]
    assert stats["engine"]["kind"] == "GeoSocialEngine"
    text = client.metrics()
    assert "# TYPE repro_service_requests gauge" in text
    assert "repro_server_admitted" in text
    for line in text.splitlines():
        assert line.startswith(("#", "repro_")), f"malformed metrics line: {line!r}"
    as_json = client.metrics(format="json")
    assert set(as_json) == set(stats)


def test_healthz(client):
    assert client.healthz() == {"status": "ok"}


def test_snapshot_restore_roundtrip(tmp_path):
    """Snapshot, diverge, restore: answers return to the snapshotted
    state bit-for-bit, through the HTTP path end to end."""
    dataset = build_dataset("server-restore", n=150, avg_degree=6.0, coverage=0.9, seed=3)
    engine = GeoSocialEngine.from_dataset(dataset, num_landmarks=4, s=5, seed=1)
    with QueryService(engine) as svc, ServerThread(svc, workers=2) as h:
        with ServerClient(h.host, h.port) as c:
            user = sorted(engine.locations.located_users())[0]
            mover = sorted(engine.locations.located_users())[-1]
            before = c.query(user, k=8, alpha=0.3, method="ais")["result"]
            snap = c.snapshot(str(tmp_path / "snaps"))
            assert snap["ok"] is True and snap["name"].startswith("snapshot-")
            c.move(mover, 0.111, 0.222)
            diverged = c.query(user, k=8, alpha=0.3, method="ais")["result"]
            restored = c.restore(str(tmp_path / "snaps"))
            assert restored["users"] == 150
            after = c.query(user, k=8, alpha=0.3, method="ais")["result"]
            assert after == before
            # restore swapped a fresh engine into the service; it holds
            # the *snapshotted* location, not the diverged one
            assert svc.engine is not engine
            assert tuple(svc.engine.locations.get(mover) or ()) != (0.111, 0.222)
            assert diverged["k"] == before["k"]
