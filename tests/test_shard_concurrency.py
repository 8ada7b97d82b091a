"""Concurrency stress: interleaved updates and batched queries across
shards.

The sharded engine exposes the same ``rw_lock``/listener contract as
the single engine, so the service layer's guarantees must carry over:
no deadlocks between movers and batch readers, no stale cache hits
after a move (including boundary crossings that re-home a user), and
every served ranking equal to what a freshly built single engine over a
snapshot of the same data produces.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.core.engine import GeoSocialEngine
from repro.service import QueryRequest, QueryService
from repro.shard import ShardedGeoSocialEngine
from tests.conftest import random_instance

JOIN_TIMEOUT = 60.0


@pytest.fixture()
def setup():
    graph, locations = random_instance(90, seed=511, coverage=0.85)
    sharded = ShardedGeoSocialEngine(
        graph, locations, n_shards=4, num_landmarks=3, s=3, seed=3, max_workers=2
    )
    yield graph, sharded
    sharded.close()


def snapshot_engine(graph, sharded):
    """A fresh single engine over the current location snapshot, scoring
    with the sharded engine's normalization so rankings are comparable."""
    return GeoSocialEngine(
        graph,
        sharded.locations.copy(),
        num_landmarks=3,
        s=3,
        seed=3,
        normalization=sharded.normalization,
    )


def test_movers_and_batch_readers_do_not_deadlock_and_stay_exact(setup):
    graph, sharded = setup
    service = QueryService(sharded, cache_size=256, max_workers=2)
    users = list(sharded.locations.located_users())
    failures: list[str] = []
    stop = threading.Event()

    def mover(seed: int) -> None:
        rng = random.Random(seed)
        try:
            for _ in range(60):
                if stop.is_set():
                    return
                u = rng.randrange(graph.n)
                if rng.random() < 0.85:
                    # includes boundary crossings and out-of-box moves
                    service.move_user(u, rng.uniform(-0.3, 1.3), rng.uniform(-0.3, 1.3))
                elif sharded.locations.has_location(u):
                    service.forget_location(u)
        except Exception as exc:  # pragma: no cover - failure path
            failures.append(f"mover: {exc!r}")
            stop.set()

    def reader(seed: int) -> None:
        rng = random.Random(seed)
        try:
            for _ in range(25):
                if stop.is_set():
                    return
                batch = [
                    QueryRequest(rng.choice(users), k=4, alpha=rng.choice([0.2, 0.5]))
                    for _ in range(4)
                ]
                try:
                    responses = service.query_many(batch)
                except ValueError as exc:
                    # A mover may have forgotten this user's location
                    # mid-run; the engine then (correctly, like the
                    # single engine) rejects the spatial query.
                    if "no known location" not in str(exc):
                        raise
                    continue
                for req, resp in zip(batch, responses):
                    if resp.result.query_user != req.user:
                        failures.append("response order corrupted")
                        stop.set()
        except Exception as exc:  # pragma: no cover - failure path
            failures.append(f"reader: {exc!r}")
            stop.set()

    threads = [threading.Thread(target=mover, args=(7,))] + [
        threading.Thread(target=reader, args=(s,)) for s in (1, 2, 3)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(JOIN_TIMEOUT)
        assert not t.is_alive(), "deadlock: thread failed to finish in time"
    assert not failures, failures

    # Quiesced: everything the service now serves must match a freshly
    # built single engine over the same data — and cache hits must not
    # be stale after all that churn.
    fresh = snapshot_engine(graph, sharded)
    located = list(sharded.locations.located_users())
    for q in located[:10]:
        served = service.query(QueryRequest(q, k=5, alpha=0.4, method="ais")).result
        expected = fresh.query(q, k=5, alpha=0.4)
        assert served.users == expected.users
        again = service.query(QueryRequest(q, k=5, alpha=0.4, method="ais"))
        assert again.cached
        assert again.result.users == expected.users
    service.close()


def test_no_stale_cache_hits_on_boundary_crossings(setup):
    """Every move — same-shard or boundary-crossing — must evict the
    mover's cached lines; served results always match a snapshot."""
    graph, sharded = setup
    service = QueryService(sharded, cache_size=512, max_workers=1)
    rng = random.Random(23)
    located = list(sharded.locations.located_users())
    crossings = 0
    for round_no in range(30):
        q = rng.choice(located)
        first = service.query(QueryRequest(q, k=5, alpha=0.3, method="ais"))
        before = sharded.shard_of_user(q)
        x, y = rng.random(), rng.random()
        service.move_user(q, x, y)
        if sharded.shard_of_user(q) != before:
            crossings += 1
        response = service.query(QueryRequest(q, k=5, alpha=0.3, method="ais"))
        assert not response.cached, "stale hit served for a moved user"
        fresh = snapshot_engine(graph, sharded)
        assert response.result.users == fresh.query(q, k=5, alpha=0.3).users
    assert crossings > 0, "workload never crossed a shard boundary"
    service.close()


def test_service_rebuild_preserves_the_sharded_kind(setup):
    """Folding batched edge updates into a fresh engine must re-shard,
    not silently fall back to a single engine."""
    graph, sharded = setup
    service = QueryService(sharded, cache_size=64, max_workers=1)
    located = list(sharded.locations.located_users())
    service.query(QueryRequest(located[0], k=4, method="ais"))
    service.update_edge(located[0], located[1], 0.05)
    new_engine = service.rebuild_engine()
    try:
        assert isinstance(new_engine, ShardedGeoSocialEngine)
        assert new_engine is service.engine and new_engine is not sharded
        assert new_engine.n_shards == sharded.n_shards
        served = service.query(QueryRequest(located[0], k=4, method="ais")).result
        fresh = GeoSocialEngine(
            new_engine.graph,
            new_engine.locations.copy(),
            num_landmarks=3,
            s=3,
            seed=3,
            normalization=new_engine.normalization,
        )
        assert served.users == fresh.query(located[0], k=4).users
    finally:
        service.close()
        new_engine.close()


def test_concurrent_queries_direct_on_engine_are_safe(setup):
    """Read-only scatter queries may run concurrently without the
    service (same contract as the single engine)."""
    graph, sharded = setup
    users = list(sharded.locations.located_users())[:12]
    expected = {u: sharded.query(u, k=4, alpha=0.3).users for u in users}
    failures: list[str] = []

    def hammer(seed: int) -> None:
        rng = random.Random(seed)
        for _ in range(15):
            u = rng.choice(users)
            got = sharded.query(u, k=4, alpha=0.3).users
            if got != expected[u]:
                failures.append(f"user {u}: {got} != {expected[u]}")

    threads = [threading.Thread(target=hammer, args=(s,)) for s in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(JOIN_TIMEOUT)
        assert not t.is_alive()
    assert not failures, failures
