"""Concurrency stress for the stream layer: movers vs subscribers.

For the subscription registry, update classification fires inside
the engine's write lock and repairs/recomputes apply under the read
lock, so concurrent movers and subscription readers must neither
deadlock nor observe a result an
already-applied update should have changed ("no torn reads") — and the
counters everything increments from multiple threads must add up.

Also pins the thread-safety of the :class:`ResultCache` counters: the
``get`` fast path runs under the engine's *read* lock (many threads at
once), so hit/miss/eviction accounting has to be consistent without
any help from the engine's RW lock.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.core.engine import GeoSocialEngine
from repro.core.result import Neighbor
from repro.service import QueryRequest, QueryService
from repro.service.cache import ResultCache
from repro.stream import SubscriptionRegistry
from tests.conftest import cache_put, random_instance

JOIN_TIMEOUT = 60.0


@pytest.fixture()
def setup():
    graph, locations = random_instance(90, seed=911, coverage=0.85)
    engine = GeoSocialEngine(graph, locations, num_landmarks=3, s=3, seed=3)
    yield graph, engine
    engine.close()


def snapshot_engine(graph, engine):
    return GeoSocialEngine(
        graph,
        engine.locations.copy(),
        num_landmarks=3,
        s=3,
        seed=3,
        normalization=engine.normalization,
    )


def test_movers_and_subscribers_do_not_deadlock_and_stay_exact(setup):
    graph, engine = setup
    service = QueryService(engine, cache_size=256, max_workers=2)
    registry = SubscriptionRegistry(service)
    located = list(engine.locations.located_users())
    subs = [
        registry.subscribe(u, k=4, alpha=a, method=m)
        for u, a, m in zip(located[:6], (0.3, 0.5, 0.3, 0.7, 0.5, 0.3),
                           ("spa", "tsa", "bruteforce", "spa", "tsa", "sfa"))
    ]
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
                    service.move_user(u, rng.uniform(-0.3, 1.3), rng.uniform(-0.3, 1.3))
                elif engine.locations.has_location(u):
                    service.forget_location(u)
        except Exception as exc:  # pragma: no cover - failure path
            failures.append(f"mover: {exc!r}")
            stop.set()

    def subscriber(seed: int) -> None:
        rng = random.Random(seed)
        try:
            for _ in range(40):
                if stop.is_set():
                    return
                sub = rng.choice(subs)
                try:
                    result = registry.result(sub)
                except ValueError:
                    continue  # query user currently unlocated: correct
                ranked = result.users
                if len(ranked) != len(set(ranked)):
                    failures.append(f"duplicates in maintained result: {ranked}")
                    stop.set()
                if rng.random() < 0.2:
                    registry.flush()
        except Exception as exc:  # pragma: no cover - failure path
            failures.append(f"subscriber: {exc!r}")
            stop.set()

    threads = [threading.Thread(target=mover, args=(5,))] + [
        threading.Thread(target=subscriber, args=(s,)) for s in (1, 2, 3)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(JOIN_TIMEOUT)
        assert not t.is_alive(), "deadlock: thread failed to finish in time"
    assert not failures, failures

    # Quiesced: every maintained result equals a fresh single engine
    # over a snapshot of the same data.
    fresh = snapshot_engine(graph, engine)
    for sub in subs:
        try:
            maintained = registry.result(sub)
        except ValueError:
            with pytest.raises(ValueError):
                fresh.query(sub.user, sub.k, sub.alpha, sub.method)
            continue
        expected = fresh.query(sub.user, sub.k, sub.alpha, sub.method)
        assert maintained.users == expected.users, sub.method
    registry.close()
    service.close()


def test_no_stale_result_survives_its_invalidating_update(setup):
    """Sequential read-after-update: every update that can affect a
    subscription must be reflected by the very next read."""
    graph, engine = setup
    service = QueryService(engine, cache_size=128, max_workers=1)
    registry = SubscriptionRegistry(service)
    rng = random.Random(31)
    located = list(engine.locations.located_users())
    sub = registry.subscribe(located[0], k=5, alpha=0.4, method="tsa")
    for round_no in range(25):
        # Move a current member (repair), a random user (screen), or
        # the query user itself (recompute).
        roll = rng.random()
        if roll < 0.4 and sub.result is not None and sub.result.neighbors:
            mover = rng.choice(sub.result.users)
        elif roll < 0.5:
            mover = sub.user
        else:
            mover = rng.randrange(graph.n)
        service.move_user(mover, rng.random(), rng.random())
        maintained = registry.result(sub)
        fresh = engine.query(sub.user, 5, 0.4, "tsa")
        assert [(nb.user, nb.score) for nb in maintained] == [
            (nb.user, nb.score) for nb in fresh
        ], f"round {round_no}: stale result after moving {mover}"
    assert registry.stats.repairs_applied > 0
    assert registry.stats.recomputes_applied > 1
    registry.close()
    service.close()


def test_stream_counters_are_consistent_after_concurrent_churn(setup):
    """Every location update observed must be accounted: the sum of
    per-(update, subscription) classifications equals what the fan-out
    actually visited, and applied passes never exceed marks."""
    graph, engine = setup
    service = QueryService(engine, cache_size=64, max_workers=2)
    registry = SubscriptionRegistry(service)
    located = list(engine.locations.located_users())
    for u in located[:5]:
        registry.subscribe(u, k=4, alpha=0.4, method="spa")
    updates_sent = 120
    workers = 4

    def mover(seed: int) -> None:
        rng = random.Random(seed)
        for _ in range(updates_sent // workers):
            service.move_user(rng.randrange(graph.n), rng.random(), rng.random())

    threads = [threading.Thread(target=mover, args=(s,)) for s in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(JOIN_TIMEOUT)
        assert not t.is_alive()
    registry.flush()
    stats = registry.stats
    assert stats.location_updates == updates_sent
    assert stats.repairs_applied <= stats.repair_marks
    assert stats.recomputes_applied >= 1  # initial subscriptions count
    # Applied + pending covers every mark (nothing silently dropped).
    assert not any(sub.dirty for sub in registry)
    registry.close()
    service.close()


# ------------------------------------------------------- cache counters


def test_result_cache_counters_are_thread_safe_off_the_engine_lock():
    """The ``get`` fast path runs concurrently under the engine's READ
    lock — the cache's own lock is all that guards its counters.
    Hammer get/put/invalidate from many threads with no engine lock at
    all and require exact accounting: the cache's insertions and
    evictions against the misses and evictions each thread saw."""
    cache = ResultCache(capacity=256)
    lookups_per_thread = 400
    threads_n = 6
    barrier = threading.Barrier(threads_n)
    seen = []  # per thread: (hits, misses, entries invalidated)

    def hammer(seed: int) -> None:
        rng = random.Random(seed)
        hits = misses = invalidated = 0
        barrier.wait()
        for i in range(lookups_per_thread):
            user = rng.randrange(32)
            if cache.get((user, 1, 0.5, "tsa")) is None:
                misses += 1
                cache_put(cache, user, 1, 0.5, "tsa", [Neighbor(user + 1, 0.5, 1.0, 0.5)])
            else:
                hits += 1
            if i % 50 == 49:
                invalidated += cache.invalidate_location_update()
        seen.append((hits, misses, invalidated))

    threads = [threading.Thread(target=hammer, args=(s,)) for s in range(threads_n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(JOIN_TIMEOUT)
        assert not t.is_alive()
    stats = cache.stats
    hits, misses, invalidated = map(sum, zip(*seen))
    assert hits > 0, "the lookups must reach the entries the puts store"
    # Two threads may miss the same key and both put (the second is a
    # refresh, which by design does not count as an insertion) — so
    # insertions never exceed misses, and the size balance is *exact*:
    # every entry either stays as it was or leaves through one counter.
    assert stats.insertions <= misses
    assert len(cache) == stats.insertions - stats.evictions - invalidated


def test_cache_repair_counters_attribute_exactly_single_threaded():
    """Deterministic pin of the keep-or-evict split: a location update
    evicts every entry below ``α = 1`` (forward ``tsa`` and
    bidirectional ``ais`` alike: the cache never re-scores) and keeps
    each ``α = 1`` entry as the same object.  ``int(outcome)`` is the
    eviction count and ``outcome.reused`` the entries kept — what the
    benchmark tracer reads off every update."""
    member = [Neighbor(5, 0.2, 0.1, 0.1)]
    cache = ResultCache(capacity=8)
    spatial = [
        cache_put(cache, 0, 1, 0.5, "tsa", member),
        cache_put(cache, 0, 1, 0.5, "ais", member),
        cache_put(cache, 3, 2, 0.0, "spa", member),
    ]
    social = cache_put(cache, 0, 1, 1.0, "sfa", member)
    kept = cache.peek(social)
    # 1. any update: every entry below alpha = 1 goes, the alpha = 1 one stays.
    out = cache.invalidate_location_update()
    assert isinstance(out, int) and (int(out), out.reused) == (3, 1)
    assert all(cache.peek(key) is None for key in spatial)
    assert cache.peek(social) is kept
    # 2. a second update finds nothing left to evict.
    out = cache.invalidate_location_update()
    assert (int(out), out.reused) == (0, 1)
    assert (cache.stats.insertions, cache.stats.evictions, len(cache)) == (4, 0, 1)


def test_service_stats_expose_reuse_repair_recompute(setup):
    """The serving layer attributes every entry a move touches exactly:
    kept (``reused``: the ``α = 1`` entries, which read no location) or
    evicted (``invalidated``: every entry below ``α = 1``, whoever
    moved)."""
    graph, engine = setup
    service = QueryService(engine, cache_size=128, max_workers=1)
    rng = random.Random(9)
    located = list(engine.locations.located_users())
    spatial = QueryRequest(located[0], k=5, alpha=0.4, method="tsa")
    social = [QueryRequest(q, k=5, alpha=1.0, method="sfa") for q in located[:3]]
    kept = {}
    for _ in range(30):
        service.query(spatial)
        for request in social:
            kept.setdefault(request, service.query(request).result)
        mover = rng.randrange(graph.n)
        service.move_user(mover, rng.random(), rng.random())
        assert service.cached(spatial) is None, "a move evicts every answer below alpha = 1"
        for request, result in kept.items():
            assert service.cached(request).result is result
    info = service.cache_info()
    snap = service.stats.snapshot()
    assert snap["invalidated_entries"] == 30
    assert snap["reused_entries"] == 30 * len(social)
    # each eviction forced exactly one reinsertion of the spatial line
    assert info["insertions"] == 1 + len(social) + 29
    assert "repaired" not in info and "repaired_entries" not in snap
    service.close()
