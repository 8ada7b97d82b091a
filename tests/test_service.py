"""Service layer: batching, concurrency, and the update-aware cache.

The contracts pinned here are the ones the serving layer sells:
batched results identical to a sequential ``engine.query`` loop for
every method, cache invalidation that is *exact* under location
updates (surviving entries still verify against brute force), no
shared-state corruption when many caller threads share one service, and
a batch that runs on the thread that called it.
"""

from __future__ import annotations

import math
import pickle
import random
import re
import threading
import time

import numpy as np
import pytest

from repro.bench.workloads import zipf_arrivals
from repro.core.engine import METHODS, GeoSocialEngine
from repro.core.result import Neighbor
from repro.plan import Planner
from repro.service import (
    QueryRequest,
    QueryResponse,
    QueryService,
    ReadWriteLock,
    ResultCache,
)
from repro.service.model import json_bytes
from repro.stream import SubscriptionRegistry
from tests.conftest import assert_same_scores, cache_put, random_instance


@pytest.fixture()
def engine():
    graph, locations = random_instance(150, seed=71, coverage=0.8)
    return GeoSocialEngine(graph, locations, num_landmarks=3, s=3, seed=3)


def located(engine, count):
    return list(engine.locations.located_users())[:count]


# ---------------------------------------------------------------- requests


def test_request_coercion_and_validation():
    assert QueryRequest.coerce(7, k=5) == QueryRequest(7, k=5)
    req = QueryRequest(3, k=2, alpha=0.9, method="sfa")
    assert QueryRequest.coerce(req) is req
    with pytest.raises(ValueError, match="user must be an integer id"):
        QueryRequest.coerce("seven")
    with pytest.raises(ValueError, match="user must be an integer id"):
        QueryRequest.coerce(True)
    with pytest.raises(ValueError):
        QueryRequest(1, k=0)
    with pytest.raises(ValueError):
        QueryRequest(1, alpha=1.5)


# ---------------------------------------------------------------- batching


def test_query_many_matches_sequential_for_every_method(engine):
    users = located(engine, 4)
    with QueryService(engine, max_workers=3, cache_size=0) as service:
        for method in METHODS:
            requests = [
                QueryRequest(user=u, k=k, alpha=alpha, method=method)
                for u in users
                for k, alpha in ((3, 0.3), (8, 0.7))
            ]
            responses = service.query_many(requests)
            assert len(responses) == len(requests)
            for response, request in zip(responses, requests):
                expected = engine.query(
                    request.user, request.k, request.alpha, request.method
                )
                assert response.request == request
                # Byte-identical ranking: same users, same scores.
                assert response.result.users == expected.users
                assert response.result.scores == expected.scores


def test_query_many_accepts_plain_user_ids_with_defaults(engine):
    users = located(engine, 5)
    with QueryService(engine, max_workers=2, cache_size=0) as service:
        responses = service.query_many(users, k=4, alpha=0.5, method="sfa")
    for response, user in zip(responses, users):
        expected = engine.query(user, 4, 0.5, "sfa")
        assert response.result.users == expected.users


def test_query_many_heterogeneous_batch_preserves_order(engine):
    users = located(engine, 6)
    requests = [
        QueryRequest(users[0], k=2, alpha=0.0, method="spa"),
        QueryRequest(users[1], k=5, alpha=1.0, method="sfa"),
        QueryRequest(users[2], k=3, alpha=0.4, method="ais"),
        QueryRequest(users[3], k=4, alpha=0.6, method="tsa"),
        QueryRequest(users[4], k=3, alpha=0.4, method="bruteforce"),
    ]
    with QueryService(engine, max_workers=4, cache_size=16) as service:
        responses = service.query_many(requests)
    assert [r.request for r in responses] == requests
    for response in responses:
        req = response.request
        expected = engine.query(req.user, req.k, req.alpha, req.method)
        assert response.result.users == expected.users


def test_in_batch_deduplication(engine):
    user = located(engine, 1)[0]
    req = QueryRequest(user, k=3, alpha=0.3, method="ais")
    with QueryService(engine, max_workers=2, cache_size=0) as service:
        responses = service.query_many([req, req, req])
        assert service.stats.executed == 1
        assert service.stats.deduplicated == 2
    assert [r.deduplicated for r in responses] == [False, True, True]
    # All three share the identical (deterministic) ranking.
    assert len({tuple(r.result.users) for r in responses}) == 1


def test_query_many_runs_on_the_calling_thread(engine):
    """A batch starts no thread, whatever ``max_workers`` says: the
    distinct misses run in request order on the caller, and the answers
    are those of a sequential ``engine.query`` loop."""
    users = located(engine, 16)
    expected = [engine.query(u, 4, 0.4) for u in users]
    before = threading.active_count()
    with QueryService(engine, max_workers=8, cache_size=0) as service:
        responses = service.query_many(users, k=4, alpha=0.4)
        assert threading.active_count() == before
        assert not any(t.name.startswith("ssrq-worker") for t in threading.enumerate())
        assert service.stats.executed == len(users)
        assert not hasattr(service, "_pool")
    assert [r.request.user for r in responses] == users
    for response, want in zip(responses, expected):
        assert response.result.users == want.users
        assert response.result.scores == want.scores


def test_query_many_holds_the_read_lock_from_its_first_lookup_to_its_last_answer(
    engine, monkeypatch
):
    """``service.query_many`` takes the service's read lock before its
    first cache lookup and answers every request on the caller under
    it: a move issued while the batch is still looking up its hits
    waits until the last miss is answered, so the batch is one cut."""
    users = located(engine, 4)
    mover = users[-1]
    log: list = []
    inside, release = threading.Event(), threading.Event()
    with QueryService(engine, cache_size=16) as service:
        service.query(users[0], k=3, alpha=0.5)  # the batch's one hit
        get, query = service.cache.get, engine.query

        def traced_get(key):
            log.append(("lookup", key[0]))
            if not inside.is_set():
                inside.set()
                assert release.wait(timeout=30)
            return get(key)

        def traced_query(request, *args, **kwargs):
            log.append(("query", threading.current_thread().name))
            return query(request, *args, **kwargs)

        move_user = engine.move_user

        def traced_move(user, *xy):
            move_user(user, *xy)
            log.append(("move", user))

        monkeypatch.setattr(service.cache, "get", traced_get)
        monkeypatch.setattr(engine, "query", traced_query)
        monkeypatch.setattr(engine, "move_user", traced_move)
        outcome: dict = {}
        batch = threading.Thread(
            target=lambda: outcome.setdefault(
                "responses", service.query_many(users, k=3, alpha=0.5)
            ),
            name="batch-caller",
        )
        batch.start()
        assert inside.wait(timeout=30)
        move = threading.Thread(target=service.move_user, args=(mover, 0.5, 0.5))
        move.start()
        deadline = time.monotonic() + 30
        # the move is queued behind the batch (or, unlocked, has landed)
        while not service._lock._writers_waiting and ("move", mover) not in log:
            assert time.monotonic() < deadline, "the move never reached the lock"
            time.sleep(0.001)
        release.set()
        batch.join(timeout=30)
        move.join(timeout=30)
        assert not batch.is_alive() and not move.is_alive()
    assert log == (
        [("lookup", user) for user in users]
        + [("query", "batch-caller")] * (len(users) - 1)
        + [("move", mover)]
    )
    assert [r.cached for r in outcome["responses"]] == [True, False, False, False]


# ---------------------------------------------------------------- caching


def test_cache_hit_on_repeat_and_stats(engine):
    user = located(engine, 1)[0]
    with QueryService(engine, max_workers=1, cache_size=32) as service:
        first = service.query(user, k=5, method="ais")
        again = service.query(user, k=5, method="ais")
        other_k = service.query(user, k=6, method="ais")
        info = service.cache_info()
    assert not first.cached and again.cached and not other_k.cached
    assert again.result.users == first.result.users
    assert service.stats.cache_hits == 1
    assert service.stats.cache_misses == 2
    assert 0.0 < service.stats.hit_rate < 1.0
    assert info["size"] == info["insertions"] == 2


def test_cache_key_separates_parameters(engine):
    user = located(engine, 1)[0]
    with QueryService(engine, cache_size=32) as service:
        service.query(user, k=5, alpha=0.3, method="ais")
        assert not service.query(user, k=5, alpha=0.4, method="ais").cached
        assert not service.query(user, k=5, alpha=0.3, method="sfa").cached
        assert service.query(user, k=5, alpha=0.3, method="ais").cached


def test_lru_eviction_at_capacity(engine):
    users = located(engine, 6)
    with QueryService(engine, cache_size=3) as service:
        for user in users:
            service.query(user, k=3, method="ais")
        assert len(service.cache) == 3
        assert service.cache.stats.evictions == 3
        # The most recent three are cached; the oldest are gone.
        assert service.query(users[-1], k=3, method="ais").cached
        assert not service.query(users[0], k=3, method="ais").cached


def test_move_evicts_movers_own_line(engine):
    user = located(engine, 1)[0]
    with QueryService(engine, cache_size=32) as service:
        service.query(user, k=5, alpha=0.4, method="ais")
        service.move_user(user, 0.9, 0.9)
        refreshed = service.query(user, k=5, alpha=0.4, method="ais")
        assert not refreshed.cached
        truth = engine.query(user, 5, 0.4, "bruteforce")
        assert_same_scores(refreshed.result, truth)


def test_move_evicts_entries_containing_the_mover(engine):
    users = located(engine, 8)
    with QueryService(engine, cache_size=64) as service:
        responses = {u: service.query(u, k=5, alpha=0.4, method="ais") for u in users}
        # Pick a user that appears in someone else's cached top-k.
        mover, affected_query = next(
            (nb.user, q)
            for q, resp in responses.items()
            for nb in resp.result.neighbors
            if nb.user != q
        )
        service.move_user(mover, 0.99, 0.99)
        refreshed = service.query(affected_query, k=5, alpha=0.4, method="ais")
        assert not refreshed.cached, "entries containing the mover must be evicted"
        truth = engine.query(affected_query, 5, 0.4, "bruteforce")
        assert_same_scores(refreshed.result, truth)


def test_surviving_cache_entries_stay_exact_under_random_moves(engine):
    """The exactness property behind the screening invalidation: after
    arbitrary interleaved moves, every cache entry the screen *kept*
    must still match a fresh brute-force answer."""
    rng = random.Random(17)
    users = located(engine, 20)
    with QueryService(engine, cache_size=256) as service:
        for round_no in range(6):
            for u in users:
                service.query(u, k=4, alpha=rng.choice([0.2, 0.5, 1.0]))
            for _ in range(5):
                mover = rng.randrange(engine.graph.n)
                service.move_user(mover, rng.random(), rng.random())
            # Audit every surviving entry against brute force.
            for key in list(service.cache._entries):
                _, k, alpha = key[0], key[1], key[2]
                cached = service.cache.peek(key)
                truth = engine.query(cached.query_user, k, alpha, "bruteforce")
                assert_same_scores(cached, truth)
        assert service.stats.invalidated_entries > 0


def test_forget_location_eviction(engine):
    users = located(engine, 6)
    with QueryService(engine, cache_size=64) as service:
        responses = {u: service.query(u, k=5, alpha=0.4, method="ais") for u in users}
        leaver, affected_query = next(
            (nb.user, q)
            for q, resp in responses.items()
            for nb in resp.result.neighbors
            if nb.user != q and q != resp.result.neighbors[0].user
        )
        service.forget_location(leaver)
        refreshed = service.query(affected_query, k=5, alpha=0.4, method="ais")
        assert not refreshed.cached
        assert leaver not in refreshed.result.users


def test_pure_social_entries_survive_location_updates(engine):
    user = located(engine, 1)[0]
    other = located(engine, 2)[1]
    with QueryService(engine, cache_size=32) as service:
        service.query(user, k=5, alpha=1.0, method="sfa")
        service.move_user(other, 0.1, 0.1)
        service.move_user(user, 0.8, 0.2)
        # alpha=1 rankings are purely social: both moves are irrelevant.
        assert service.query(user, k=5, alpha=1.0, method="sfa").cached


def test_edge_update_keeps_caches_warm_until_rebuild(engine):
    """An edge update leaves both caches warm (the served graph is
    unchanged, so every entry and column is still exact);
    ``rebuild_engine`` is the edge-epoch that empties them."""
    users = located(engine, 4)
    with QueryService(engine, cache_size=64) as service:
        for u in users:
            service.query(u, k=4, alpha=0.5, method="bruteforce")
        columns = len(engine.social_cache)
        assert len(service.cache) == columns == len(users)
        u, v = users[0], users[1]
        service.update_edge(u, v, 0.01)
        assert service.pending_edge_updates == 1
        assert len(service.cache) == len(engine.social_cache) == len(users)
        assert service.stats.full_invalidations == 0
        assert all(service.query(u, k=4, alpha=0.5, method="bruteforce").cached for u in users)
        new_engine = service.rebuild_engine()
        try:
            assert service.pending_edge_updates == 0
            assert len(service.cache) == len(new_engine.social_cache) == 0
            assert service.stats.full_invalidations == 1
            assert service.stats.invalidated_entries == len(users)
            assert not service.query(u, k=4, alpha=0.5, method="bruteforce").cached
        finally:
            new_engine.close()


@pytest.mark.parametrize("weight", [math.inf, math.nan, 0.0, -1.0, True, "0.5"])
def test_rejected_edge_weight_records_nothing(engine, weight):
    """``inf``/``nan`` used to pass the ``weight <= 0`` check and made
    the next rebuild fail inside ``SocialGraph.from_edges``."""
    u, v = located(engine, 2)
    with QueryService(engine, cache_size=0) as service:
        service.update_edge(u, v, 0.25)
        with pytest.raises(ValueError, match=re.escape("edge weight must be a number in [2**-480")):
            service.update_edge(v, u, weight)
        with pytest.raises(ValueError, match="self-loops"):
            service.update_edge(u, u, 0.5)
        assert service.pending_edge_updates == 1
        new_engine = service.rebuild_engine()
        try:
            assert new_engine.graph.edge_weight(u, v) == 0.25
        finally:
            new_engine.close()


def test_edge_log_collapses_repeats_and_checks_deletes(engine):
    """One entry per edge (either orientation, last write wins); a
    delete is checked against the served graph *with the log applied*."""
    u = located(engine, 1)[0]
    absent = next(w for w in range(engine.graph.n) if w != u and not engine.graph.has_edge(u, w))
    with QueryService(engine, cache_size=0) as service:
        with pytest.raises(KeyError):
            service.update_edge(u, absent, None)
        assert service.pending_edge_updates == 0
        service.update_edge(u, absent, 0.5)
        service.update_edge(absent, u, 0.75)
        assert service.pending_edge_updates == 1
        service.update_edge(u, absent, None)  # deletes the logged insert
        with pytest.raises(KeyError):
            service.update_edge(absent, u, None)
        service.update_edge(u, absent, 0.125)  # delete-then-reinsert
        new_engine = service.rebuild_engine()
        try:
            assert new_engine.graph.edge_weight(absent, u) == 0.125
            assert new_engine.graph.num_edges == engine.graph.num_edges + 1
        finally:
            new_engine.close()


def test_close_flushes_and_rejects_further_use(engine):
    user = located(engine, 1)[0]
    service = QueryService(engine, cache_size=32)
    service.query(user, k=5, method="ais")
    service.close()
    # The cache is flushed and every entry point raises.
    assert len(service.cache) == 0
    for call in (
        lambda: service.query(user, k=5, method="ais"),
        lambda: service.query_many([user], k=5, method="ais"),
        lambda: service.move_user(user, 0.3, 0.3),
        lambda: service.forget_location(user),
        lambda: service.update_edge(0, 1, 0.5),
        lambda: service.rebuild_engine(),
        lambda: service.replace_engine(engine),
    ):
        with pytest.raises(RuntimeError):
            call()
    assert service.engine is engine and engine.locations.get(user) != (0.3, 0.3)


def test_a_close_during_a_rebuild_wins(engine, monkeypatch):
    """``close()`` takes the write side, and a rebuild re-checks under
    it before it swaps: a close that lands while the new engine is
    being built leaves the old engine served, raises in the rebuild and
    tells no follower of a swap."""
    service = QueryService(engine, cache_size=8)
    registry = SubscriptionRegistry(service)
    inside, release = threading.Event(), threading.Event()
    with_graph = GeoSocialEngine.with_graph

    def blocked_with_graph(self, *args, **kwargs):
        inside.set()
        assert release.wait(timeout=30)
        return with_graph(self, *args, **kwargs)

    monkeypatch.setattr(GeoSocialEngine, "with_graph", blocked_with_graph)
    outcome: dict = {}

    def rebuild() -> None:
        try:
            outcome["engine"] = service.rebuild_engine()
        except RuntimeError as error:
            outcome["error"] = error

    thread = threading.Thread(target=rebuild)
    thread.start()
    assert inside.wait(timeout=30)
    service.close()
    release.set()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert "engine" not in outcome and "closed" in str(outcome["error"])
    assert service.engine is engine
    assert registry.stats.engine_swaps == 0
    registry.close()


def test_readers_and_writers_share_the_services_lock(engine):
    """Moves, forgets, edge updates and rebuilds through one service
    exclude the queries of every other thread over it, across swaps."""
    users = located(engine, 8)
    failures: list[str] = []
    with QueryService(engine, cache_size=64) as service:

        def reader(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(30):
                    for response in service.query_many(
                        [QueryRequest(rng.choice(users), k=4, alpha=0.4, method="ais")
                         for _ in range(3)]
                    ):
                        ranked = response.result.users
                        if len(ranked) != len(set(ranked)):
                            failures.append(f"duplicates: {ranked}")
            except Exception as error:  # noqa: BLE001 - reported below
                failures.append(repr(error))

        def writer() -> None:
            rng = random.Random(4)
            n = engine.graph.n
            others = [u for u in range(n) if u not in users]
            for step in range(30):
                service.move_user(rng.randrange(n), rng.random(), rng.random())
                service.forget_location(rng.choice(others))
                u, v = rng.sample(range(n), 2)
                service.update_edge(u, v, rng.uniform(0.05, 1.0))
                if step % 10 == 9:
                    service.rebuild_engine()

        threads = [threading.Thread(target=reader, args=(seed,)) for seed in (3, 5)]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures, failures[:3]
        served = service.engine
        assert served is not engine
        for u in located(served, 3):
            got = service.query(u, k=4, alpha=0.4, method="ais")
            truth = served.query(u, 4, 0.4, "bruteforce")
            assert_same_scores(got.result, truth)


# ---------------------------------------------------------------- cache unit


def test_result_cache_refresh_reindexes_members():
    """Refreshing a key replaces its stored answer under the same key,
    and a later location update still reaches the refreshed entry: an
    answer below ``α = 1`` is evicted whoever moved, so no per-member
    index has to follow the refresh."""
    cache = ResultCache(capacity=4)
    key = cache_put(cache, 0, 1, 0.5, "ais", [Neighbor(5, 0.2, 0.1, 0.1)])
    assert cache_put(cache, 0, 1, 0.5, "ais", [Neighbor(9, 0.2, 0.1, 0.1)]) == key
    assert len(cache) == 1 and cache.stats.insertions == 1
    assert cache.peek(key).users == [9], "the refresh must replace the stored answer"
    evicted = cache.invalidate_location_update()
    assert evicted == 1, "the refreshed entry must be evicted"
    assert len(cache) == 0


def test_edge_updates_do_not_corrupt_live_queries(engine):
    """update_edge only records: the engine's landmark bounds must
    stay admissible for the graph it still searches."""
    users = located(engine, 6)
    with QueryService(engine, cache_size=32) as service:
        # A batch of weight decreases: applied in place, these would
        # make the live landmark rows underestimate nothing but
        # *overestimate* distances on the un-updated CSR graph, turning
        # the pruning bounds inadmissible.
        applied = 0
        for u in range(engine.graph.n):
            for v, w in engine.graph.neighbors(u):
                if u < v and applied < 15:
                    service.update_edge(u, v, w * 0.01)
                    applied += 1
        assert applied == 15
        for q in users:
            got = engine.query(q, 5, 0.5, "ais")
            truth = engine.query(q, 5, 0.5, "bruteforce")
            assert_same_scores(got, truth)
        # Folding the updates in yields a consistent *new* engine whose
        # answers reflect the strengthened ties.
        new_engine = service.rebuild_engine()
        assert service.engine is new_engine
        assert new_engine is not engine
        for q in users:
            got = new_engine.query(q, 5, 0.5, "ais")
            truth = new_engine.query(q, 5, 0.5, "bruteforce")
            assert_same_scores(got, truth)


def test_result_cache_plain_lru_semantics():
    cache = ResultCache(capacity=2)
    member = [Neighbor(9, 0.2, 0.1, 0.1)]
    a = cache_put(cache, 1, 1, 0.5, "tsa", member)
    b = cache_put(cache, 2, 1, 0.5, "tsa", member)
    assert cache.get(a).query_user == 1  # refreshes "a"
    cache_put(cache, 3, 1, 0.5, "tsa", member)  # evicts LRU "b"
    assert cache.get(b) is None
    assert len(cache) == 2
    assert (cache.stats.insertions, cache.stats.evictions) == (3, 1)
    assert cache.invalidate_all() == 2
    assert len(cache) == 0


# ---------------------------------------------------------------- concurrency


def test_concurrent_batches_match_sequential(engine):
    """Hammer one service from many threads; every response must equal
    the sequential answer (no shared-state corruption)."""
    users = located(engine, 12)
    expected = {
        (u, k, alpha, method): engine.query(u, k, alpha, method)
        for u in users
        for (k, alpha, method) in ((3, 0.3, "ais"), (5, 0.7, "tsa"), (4, 0.5, "sfa"))
    }
    errors: list[str] = []
    with QueryService(engine, max_workers=4, cache_size=64) as service:

        def hammer(seed: int) -> None:
            rng = random.Random(seed)
            for _ in range(12):
                keys = rng.sample(sorted(expected), 5)
                requests = [QueryRequest(u, k, a, m) for (u, k, a, m) in keys]
                responses = service.query_many(requests)
                for key, response in zip(keys, responses):
                    if response.result.users != expected[key].users:
                        errors.append(f"{key}: {response.result.users}")

        threads = [threading.Thread(target=hammer, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert not errors, errors[:5]


def test_concurrent_queries_and_updates_no_corruption(engine):
    """Writers (moves) interleave with readers (batches): the RW lock
    must keep the indexes consistent and the answers exact afterwards."""
    users = located(engine, 10)
    stop = threading.Event()
    failures: list[str] = []
    with QueryService(engine, max_workers=3, cache_size=128) as service:

        def reader(seed: int) -> None:
            rng = random.Random(seed)
            while not stop.is_set():
                batch = [QueryRequest(rng.choice(users), k=4, alpha=0.4, method="ais") for _ in range(4)]
                for response in service.query_many(batch):
                    ranked = response.result.users
                    if len(ranked) != len(set(ranked)):
                        failures.append(f"duplicate users in ranking: {ranked}")
                    scores = response.result.scores
                    if scores != sorted(scores):
                        failures.append(f"unsorted scores: {scores}")

        def writer() -> None:
            rng = random.Random(99)
            for _ in range(40):
                service.move_user(rng.randrange(engine.graph.n), rng.random(), rng.random())

        readers = [threading.Thread(target=reader, args=(s,)) for s in range(3)]
        for t in readers:
            t.start()
        wt = threading.Thread(target=writer)
        wt.start()
        wt.join()
        stop.set()
        for t in readers:
            t.join()

        assert not failures, failures[:5]
        # Post-condition: indexes consistent, fresh answers exact.
        for u in users[:4]:
            got = service.query(u, k=5, alpha=0.5, method="ais")
            truth = engine.query(u, 5, 0.5, "bruteforce")
            assert_same_scores(got.result, truth)


def test_lazy_searcher_construction_is_race_free():
    graph, locations = random_instance(80, seed=5, coverage=1.0)
    # no column cache: a cached column would answer before some
    # searchers are ever built
    engine = GeoSocialEngine(
        graph, locations, num_landmarks=2, s=3, seed=1, social_cache_bytes=0
    )
    user = next(iter(locations.located_users()))
    results: list = []

    def build(method: str) -> None:
        results.append((method, engine.query(user, 3, 0.5, method).users))

    threads = [
        threading.Thread(target=build, args=(m,))
        for m in ("ais", "ais", "bounded", "bounded", "tsa", "tsa")
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    by_method: dict[str, set[tuple]] = {}
    for method, users_ in results:
        by_method.setdefault(method, set()).add(tuple(users_))
    for method, outcomes in by_method.items():
        assert len(outcomes) == 1, f"non-deterministic {method}: {outcomes}"
    # Exactly one searcher instance per method key survives.
    assert sorted(engine._searchers) == ["ais", "bounded", "tsa"]


# ---------------------------------------------------------------- primitives


def test_read_write_lock_excludes_writers():
    lock = ReadWriteLock()
    log: list[str] = []
    with lock.read_locked():
        writer_started = threading.Event()

        def write() -> None:
            writer_started.set()
            with lock.write_locked():
                log.append("write")

        t = threading.Thread(target=write)
        t.start()
        writer_started.wait()
        log.append("read-held")
    t.join()
    assert log == ["read-held", "write"]


def test_zipf_arrivals_deterministic_and_skewed():
    users = list(range(100))
    a = zipf_arrivals(users, count=500, seed=9)
    b = zipf_arrivals(users, count=500, seed=9)
    assert a == b
    counts = sorted(
        (a.count(u) for u in set(a)), reverse=True
    )
    # Skew: the hottest user dominates the median one.
    assert counts[0] >= 5 * max(counts[len(counts) // 2], 1) or counts[0] > 25
    with pytest.raises(ValueError):
        zipf_arrivals([], 5)


def test_service_stats_snapshot_shape(engine):
    user = located(engine, 1)[0]
    with QueryService(engine, cache_size=8) as service:
        service.query(user, k=3, method="ais")
        snap = service.stats.snapshot()
    for key in ("requests", "hit_rate", "executed", "per_method", "total_pops"):
        assert key in snap
    assert snap["per_method"] == {"ais": 1}
    assert snap["total_pops"] > 0
    assert isinstance(repr(service), str) and "QueryService" in repr(service)


# ------------------------------------------------- look up before you plan


class ScriptedPlanner(Planner):
    """Resolves interior ``auto`` to whatever ``pick`` names — a
    stand-in for a resolver whose choice changes between two asks."""

    pick = "bounded"

    def resolve(self, engine, request):
        method = super().resolve(engine, request)
        return self.pick if method == "bounded" else method


def test_auto_repeat_hits_the_question_line_whatever_the_planner_now_prefers():
    graph, locations = random_instance(150, seed=71, coverage=0.8)
    user = next(iter(locations.located_users()))
    auto = QueryRequest(user, k=5, alpha=0.4)
    engine = GeoSocialEngine(graph, locations, num_landmarks=3, s=3, seed=3)
    engine.planner = ScriptedPlanner()
    engine.planner.pick = "tsa"
    with QueryService(engine, cache_size=32) as service:
        first = service.query(auto)
        assert not first.cached and first.result.method == "tsa"
        engine.planner.pick = "spa"
        assert engine.planner.resolve(engine, auto) == "spa"  # the pick flipped
        resolutions = engine.planner.stats.auto_resolutions
        again = service.query(auto)
        assert again.cached and again.result is first.result
        assert again.result.method == "tsa"
        # a hit is answered before anything is planned
        assert engine.planner.stats.auto_resolutions == resolutions
        # a named request for the same question keeps its own line and label
        named = service.query(user, k=5, alpha=0.4, method="tsa")
        assert not named.cached and named.result.method == "tsa"
        assert named.result.users == first.result.users
        assert service.query(user, k=5, alpha=0.4, method="tsa").cached
        assert len(service.cache) == 2


def test_cached_probe_counts_like_query_and_never_plans(engine):
    user = located(engine, 1)[0]
    auto = QueryRequest(user, k=5, alpha=0.4)
    with QueryService(engine, cache_size=32) as service:
        assert service.cached(auto) is None
        assert service.stats.snapshot()["requests"] == 0      # a miss counts nothing
        assert engine.planner.stats.auto_resolutions == 0     # ... and resolves nothing
        executed = service.query(auto)
        assert (service.stats.requests, service.stats.cache_misses) == (1, 1)
        assert engine.planner.stats.auto_resolutions == 1     # the miss planned once
        probe = service.cached(auto)
        assert probe.cached and probe.result is executed.result and probe.latency == 0.0
        assert (service.stats.requests, service.stats.cache_hits) == (2, 1)
        assert service.stats.cache_misses == 1
        # the probe refreshes the LRU position like any hit
        other = QueryRequest(located(engine, 2)[1], k=5, alpha=0.4, method="tsa")
        service.query(other)
        assert service.cached(auto) is not None
        assert list(service.cache._entries)[-1][0] == user
        # named methods probe their routed line
        assert service.cached(other).cached
        # a held write lock does not hold the probe up
        with service._lock.write_locked():
            assert service.cached(auto) is not None
    with QueryService(engine, cache_size=0) as uncached:
        uncached.query(auto)
        assert uncached.cached(auto) is None


# ---------------------------------------------------------------- wire form


@pytest.mark.parametrize("alpha", (0.0, 0.3, 1.0))
@pytest.mark.parametrize("method", METHODS + ("auto",))
def test_wire_is_the_encoded_payload(engine, method, alpha):
    """Executed, deduplicated and cached responses, every method, with
    (alpha = 0) and without ``inf`` social distances."""
    user = located(engine, 1)[0]
    request = QueryRequest(user, k=5, alpha=alpha, method=method)
    with QueryService(engine, cache_size=32) as service:
        executed, duplicate = service.query_many([request, request])
        cached = service.query(request)
        probed = service.cached(request)
    assert (executed.cached, duplicate.deduplicated, cached.cached) == (False, True, True)
    assert executed.latency > 0.0
    for response in (executed, duplicate, cached, probed):
        assert response.wire() == json_bytes(response.payload())
    if alpha == 0.0:
        assert b'"social":Infinity' in executed.wire()
    # the memo is derived state: invisible to ==, repr and pickles
    result = executed.result
    clone = pickle.loads(pickle.dumps(result))
    assert result._wire is not None and clone._wire is None
    assert clone == result and "_wire" not in repr(result)
    assert QueryResponse(request, clone).wire() == QueryResponse(request, result).wire()


# ------------------------------------------------------ cache-size settings


@pytest.mark.parametrize(
    ("field", "value", "message"),
    [
        ("cache_size", -1, "cache_size must be >= 0, got -1"),
        ("cache_size", True, "cache_size must be an integer, got True"),
        ("cache_size", 2.5, "cache_size must be an integer, got 2.5"),
        ("cache_size", "8", "cache_size must be an integer, got '8'"),
        ("social_cache_bytes", -1, "social_cache_bytes must be >= 0, got -1"),
        ("social_cache_bytes", False, "social_cache_bytes must be an integer, got False"),
        ("social_cache_bytes", 1.5, "social_cache_bytes must be an integer, got 1.5"),
    ],
    ids=["size-neg", "size-bool", "size-float", "size-str", "bytes-neg", "bytes-bool", "bytes-float"],
)
@pytest.mark.parametrize("engine_cache", [None, 0], ids=["columns-on", "columns-off"])
def test_cache_sizes_are_checked_one_way(field, value, message, engine_cache):
    """Both sizes refuse a bool, a non-integer and a negative value with
    a ``ValueError`` naming the field, each at its one home — the result
    cache's on the service, the column budget on the engine (a rebuild
    from an engine with or without columns included)."""
    graph, locations = random_instance(30, seed=4, coverage=0.8)
    engine = GeoSocialEngine(
        graph, locations, num_landmarks=2, social_cache_bytes=engine_cache
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        if field == "social_cache_bytes":
            engine.with_graph(graph, social_cache_bytes=value)
        else:
            QueryService(engine, cache_size=value)


def test_zero_still_turns_each_cache_off(engine):
    without_columns = engine.with_graph(engine.graph, social_cache_bytes=0)
    with QueryService(without_columns, cache_size=0) as service:
        assert service.cache is None and service.engine.social_cache is None
    with QueryService(engine, cache_size=np.int64(3)) as service:
        assert service.cache.capacity == 3 and type(service.cache.capacity) is int
