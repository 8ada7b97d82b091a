"""Cross-query social-distance reuse: the exactness differential suite.

The :class:`~repro.social.SocialColumnCache` is a pure performance
layer — every answer produced through a cached column, and every
exhausted expansion it promotes to one, must be **bit-identical** to
the cold computation, for
every forward-deterministic method, at every alpha (endpoints
included), on both kernel backends, on single and sharded engines,
through engine rebuilds and interleaved location/edge updates.  The
poisoned-column canary additionally pins that cached columns are
*actually consulted* (reuse is observable) and that an edge update
*strictly* invalidates them while location moves never do — the
epoch-safety contract the whole design rests on.
"""

from __future__ import annotations

import math

import pytest

from repro.backend import resolve_backend
from repro.core.engine import FORWARD_DETERMINISTIC_METHODS, GeoSocialEngine
from repro.graph.socialgraph import SocialGraph
from repro.graph.traversal import DijkstraIterator
from repro.service import QueryRequest, QueryService
from repro.shard import ShardedGeoSocialEngine
from repro.social import DEFAULT_SOCIAL_CACHE_BYTES, SocialColumnCache
from repro.stream import SubscriptionRegistry
from tests.conftest import random_instance

INF = math.inf

METHODS = tuple(sorted(FORWARD_DETERMINISTIC_METHODS))
ALPHAS = (0.0, 0.3, 0.5, 1.0)
SHARD_COUNTS = (1, 4)

BACKENDS = ["python"]
try:  # numpy leg runs wherever the vectorized backend is available
    import numpy  # noqa: F401

    BACKENDS.append("numpy")
except ImportError:  # pragma: no cover - numpy is a test dependency in CI
    pass


def fingerprint(result):
    """Exact (user, score, social, spatial) tuples — bit-identity, not
    tolerance-based equality."""
    return [(nb.user, nb.score, nb.social, nb.spatial) for nb in result.neighbors]


def build_engine(n_shards: int, backend: str, cache_bytes: "int | None", *,
                 n: int = 130, seed: int = 13, coverage: float = 0.85):
    graph, locations = random_instance(n, seed=seed, coverage=coverage)
    if locations.n_located == 0:
        locations.set(0, 0.5, 0.5)
    if n_shards == 1:
        return GeoSocialEngine(
            graph, locations, num_landmarks=3, s=4, seed=5, backend=backend,
            social_cache_bytes=cache_bytes,
        )
    return ShardedGeoSocialEngine(
        graph, locations, n_shards=n_shards, num_landmarks=3, s=4, seed=5,
        max_workers=1, backend=backend, scatter_backend="inline",
        social_cache_bytes=cache_bytes,
    )


def query_users(engine, count: int = 3):
    located = sorted(engine.locations.located_users())
    return located[:: max(1, len(located) // count)][:count]


# -- warm == cold, everywhere ------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_cached_results_bit_identical_to_cold(backend, n_shards):
    """Three passes over methods x alphas x users: pass 0 populates the
    cache, passes 1-2 answer from full columns — every result must be
    bit-identical to a cache-disabled engine's."""
    warm = build_engine(n_shards, backend, None)
    cold = build_engine(n_shards, backend, 0)
    users = query_users(warm)
    for rep in range(3):
        for user in users:
            for method in METHODS:
                for alpha in ALPHAS:
                    got = warm.query(user, k=7, alpha=alpha, method=method)
                    ref = cold.query(user, k=7, alpha=alpha, method=method)
                    assert fingerprint(got) == fingerprint(ref), (
                        f"rep={rep} user={user} {method}@{alpha} "
                        f"backend={backend} shards={n_shards}"
                    )
    cache = warm.social_cache
    assert cache is not None
    info = cache.info()
    assert info["hits"] > 0, "warm passes never hit the cache"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "seed_method,seed_alpha", [("sfa", 1.0), ("spa", 0.3), ("tsa", 0.5)]
)
def test_partial_resume_paths_bit_identical(backend, seed_method, seed_alpha):
    """An early-terminating searcher's expansion is never kept, so the
    query that needs more of the same user's distances starts fresh.
    Seed via each early-terminating method, then drive every method
    over the same user."""
    warm = build_engine(1, backend, None)
    cold = build_engine(1, backend, 0)
    user = query_users(warm)[0]
    warm.query(user, k=3, alpha=seed_alpha, method=seed_method)
    assert warm.social_cache.info()["entries"] == 0
    for method in METHODS:
        for alpha in ALPHAS:
            got = warm.query(user, k=7, alpha=alpha, method=method)
            ref = cold.query(user, k=7, alpha=alpha, method=method)
            assert fingerprint(got) == fingerprint(ref), (
                f"seed={seed_method}@{seed_alpha} then {method}@{alpha}"
            )
    assert warm.social_cache.info()["hits"] >= 1


# -- the one shared column step, per searcher ---------------------------

#: (method, alpha) for the four forward-deterministic searcher classes
STEP_CASES = [("sfa", 0.6), ("spa", 0.3), ("tsa", 0.5), ("bruteforce", 0.4)]


@pytest.mark.parametrize("method,alpha", STEP_CASES)
def test_column_step_miss_then_resume_then_full_hit(method, alpha):
    """The miss / fresh-restart / full-hit outcomes of the pipeline's
    column step, driven through ``engine.query`` for each searcher —
    with the cache counters and the bit-identity both pinned."""
    warm = build_engine(1, "python", None)
    cold = build_engine(1, "python", 0)
    cache = warm.social_cache
    user = query_users(warm)[0]
    ref = fingerprint(cold.query(user, k=4, alpha=alpha, method=method))

    # miss: a fresh expansion
    first = warm.query(user, k=4, alpha=alpha, method=method)
    assert fingerprint(first) == ref
    info = cache.info()
    assert (info["misses"], info["hits"]) == (1, 0)
    assert "social_column_hits" not in first.stats.extra

    if method == "bruteforce":
        # the kernel builds the whole column, and it is cached
        assert info["entries"] == 1
        assert first.stats.pops_social > 0
    else:
        # early termination keeps nothing; a wider query starts afresh
        assert info["entries"] == 0
        wider = warm.query(user, k=9, alpha=alpha, method=method)
        assert fingerprint(wider) == fingerprint(
            cold.query(user, k=9, alpha=alpha, method=method)
        )
        info = cache.info()
        assert (info["misses"], info["hits"], info["entries"]) == (2, 0, 0)
        # bruteforce builds and stores the full column
        warm.query(user, k=4, alpha=alpha, method="bruteforce")
        assert cache.info()["entries"] == 1

    # full hit: one dense scan, the searcher never runs
    hits_before = cache.info()["hits"]
    searcher = warm.searcher(method)

    def forbidden(*args, **kwargs):
        raise AssertionError("a full column must short-circuit the searcher")

    searcher.search = forbidden
    try:
        hit = warm.query(user, k=4, alpha=alpha, method=method)
    finally:
        del searcher.search
    assert fingerprint(hit) == ref
    assert hit.stats.extra["social_column_hits"] == 1
    assert hit.stats.pops_social == 0
    assert cache.info()["hits"] == hits_before + 1
    assert cache.info()["misses"] == (1 if method == "bruteforce" else 3)


@pytest.mark.parametrize("method,alpha", STEP_CASES[:3])
def test_column_step_hands_each_searcher_the_right_stream(method, alpha):
    """Every miss hands the searcher a fresh iterator from the query
    user; an early-terminated one is not kept, so the next query gets
    a fresh one again."""
    from repro.social.scan import column_step

    engine = build_engine(1, "python", None)
    cache = engine.social_cache
    user = query_users(engine)[0]
    request = QueryRequest(user, k=4, alpha=alpha, method=method)
    seen = []

    def run(social):
        seen.append(social)
        return engine._run(method, request, None, social)

    column_step(engine, method, request, None, run)
    assert type(seen[0]) is DijkstraIterator and seen[0].source == user
    assert not seen[0].exhausted
    column_step(engine, method, request, None, run)
    assert type(seen[1]) is DijkstraIterator and seen[1] is not seen[0]
    assert cache.acquire(user) == (None, None)


def test_column_step_leaves_the_cache_alone_when_it_cannot_apply():
    """No social term, a non-forward-deterministic method, or an
    unlocated query user on a spatial searcher: the searcher opens its
    own stream (or raises its own error) and no counter moves."""
    engine = build_engine(1, "python", None)
    cache = engine.social_cache
    user = query_users(engine)[0]
    unlocated = next(u for u in range(engine.graph.n) if engine.locations.get(u) is None)
    before = cache.info()
    engine.query(user, k=4, alpha=0.0, method="spa")
    engine.query(user, k=4, alpha=0.0, method="bruteforce")
    engine.query(user, k=4, alpha=0.4, method="ais")
    for method in ("spa", "tsa", "tsa-qc"):
        with pytest.raises(ValueError, match="no known location"):
            engine.query(unlocated, k=4, alpha=0.4, method=method)
    assert cache.info() == before
    # SFA and bruteforce answer unlocated users, so the step applies
    engine.query(unlocated, k=4, alpha=0.4, method="sfa")
    assert cache.info()["misses"] == before["misses"] + 1


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_interleaved_moves_and_edge_updates_stay_exact(n_shards):
    """Queries interleaved with location moves and service-recorded
    edge updates (neither may touch the column cache: the served graph
    is immutable until the rebuild, whose engine starts from an empty
    one) stay bit-identical to a cold engine driven through the
    identical update sequence."""
    warm = build_engine(n_shards, "python", None)
    cold = build_engine(n_shards, "python", 0)
    warm_service = QueryService(warm, cache_size=0)
    cold_service = QueryService(cold, cache_size=0)
    try:
        users = query_users(warm)
        probe = [(u, m, a) for u in users for m, a in
                 (("sfa", 1.0), ("spa", 0.3), ("tsa", 0.5), ("bruteforce", 0.0),
                  ("bruteforce", 0.4))]

        def check(tag):
            for u, m, a in probe:
                got = warm_service.query(QueryRequest(user=u, k=6, alpha=a, method=m))
                ref = cold_service.query(QueryRequest(user=u, k=6, alpha=a, method=m))
                assert fingerprint(got.result) == fingerprint(ref.result), (
                    f"{tag}: user={u} {m}@{a} shards={n_shards}"
                )

        check("initial")
        for service in (warm_service, cold_service):
            service.move_user(users[0], 0.11, 0.93)
            service.move_user(users[1], 0.77, 0.04)
        check("after moves")
        assert warm.social_cache.info()["invalidations"] == 0  # moves never flush
        for service in (warm_service, cold_service):
            service.update_edge(users[0], users[2], 0.07)
        assert warm.social_cache.info()["invalidations"] == 0  # nor do edges
        assert len(warm.social_cache) > 0
        check("after edge update")
        warm_new = warm_service.rebuild_engine()
        cold_new = cold_service.rebuild_engine()
        assert warm_new.social_cache is not None
        assert warm_new.social_cache is not warm.social_cache  # never crosses rebuild
        assert len(warm_new.social_cache) == 0
        assert cold_new.social_cache is None
        check("after rebuild")
    finally:
        warm_service.close()
        cold_service.close()


# -- the poisoned-column canary ----------------------------------------


def test_poisoned_column_canary():
    """Deliberately corrupt a cached column in place and observe the
    corruption in served results — proving columns are genuinely
    consulted — then pin the invalidation semantics: neither a
    location move nor a recorded edge update touches the column, and
    the rebuild that folds the edge in serves from a fresh cache."""
    engine = build_engine(1, "python", None)
    service = QueryService(engine, cache_size=0)
    try:
        cold = build_engine(1, "python", 0)
        user = query_users(engine)[0]
        baseline = fingerprint(engine.query(user, k=5, alpha=1.0, method="sfa"))
        # bruteforce at a social-bearing alpha caches the full column
        engine.query(user, k=5, alpha=0.5, method="bruteforce")
        column = engine.social_cache.peek_full(user)
        assert column is not None
        victim = max(
            v for v in range(engine.graph.n)
            if v != user and 0.0 < column[v] < INF
        )
        column[victim] = 0.0  # the poison: an impossible exact distance

        poisoned = engine.query(user, k=5, alpha=1.0, method="sfa")
        assert poisoned.users[0] == victim, "cached column was not consulted"
        assert poisoned.neighbors[0].social == 0.0
        assert fingerprint(poisoned) != baseline

        # Location moves must NOT invalidate: the poison stays visible.
        service.move_user(victim, 0.42, 0.42)
        service.move_user(user, 0.13, 0.87)
        still = engine.query(user, k=5, alpha=1.0, method="sfa")
        assert still.users[0] == victim, "a location move flushed the column cache"

        # Nor does an edge update: the served graph is unchanged until
        # the rebuild, so the column (here: the poison) stays.
        service.update_edge(user, victim, 0.5)
        still = engine.query(user, k=5, alpha=1.0, method="sfa")
        assert still.users[0] == victim, "an edge update flushed the column cache"

        # The rebuild's engine starts from an empty cache: the poison
        # is gone and the answer matches a cold engine over the same
        # folded graph.
        with QueryService(cold, cache_size=0) as cold_service:
            cold_service.update_edge(user, victim, 0.5)
            healed = service.rebuild_engine().query(user, k=5, alpha=1.0, method="sfa")
            ref = cold_service.rebuild_engine().query(user, k=5, alpha=1.0, method="sfa")
        assert fingerprint(healed) == fingerprint(ref)
        assert healed.neighbors[0].social > 0.0
    finally:
        service.close()


# -- same-user batches --------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_fused_query_many_matches_sequential_engine_queries(backend):
    """Distinct (k, alpha) variants for one user share its social
    column through the engine's column step; every response must be
    bit-identical to a sequential engine.query loop on a
    cache-disabled engine."""
    engine = build_engine(1, backend, None)
    cold = build_engine(1, backend, 0)
    service = QueryService(engine, max_workers=2, cache_size=0)
    try:
        u1, u2, u3 = query_users(engine)
        batch = []
        for user in (u1, u1, u2, u3):
            for k, alpha, method in (
                (5, 0.3, "spa"), (7, 0.5, "tsa"), (3, 1.0, "sfa"),
                (4, 0.0, "spa"), (6, 0.4, "bruteforce"), (5, 0.25, "tsa-qc"),
            ):
                batch.append(QueryRequest(user=user, k=k, alpha=alpha, method=method))
        responses = service.query_many(batch)
        for req, resp in zip(batch, responses):
            ref = cold.query(req.user, k=req.k, alpha=req.alpha, method=req.method)
            assert fingerprint(resp.result) == fingerprint(ref), req
        assert sum(1 for r in responses if r.deduplicated) > 0
    finally:
        service.close()


def test_fusion_skips_planner_and_unlocated_spatial_requests():
    """Same-user batches run per query: SPA/TSA for an unlocated user
    raise the searcher's exact error, ``auto`` requests feed the
    planner one observation each, and social-only methods answer
    unlocated users exactly as a cold engine does."""
    engine = build_engine(1, "python", None)
    service = QueryService(engine, max_workers=1, cache_size=0)
    try:
        unlocated = next(
            (u for u in range(engine.graph.n) if engine.locations.get(u) is None),
            None,
        )
        assert unlocated is not None
        with pytest.raises(ValueError, match="no known location"):
            service.query_many(
                [
                    QueryRequest(user=unlocated, k=3, alpha=0.5, method="tsa"),
                    QueryRequest(user=unlocated, k=5, alpha=0.5, method="tsa"),
                ]
            )
        located = query_users(engine)[0]
        service.query_many(
            [
                QueryRequest(user=located, k=3, alpha=0.5, method="auto"),
                QueryRequest(user=located, k=4, alpha=0.5, method="auto"),
            ]
        )
        assert engine.planner.stats.observations == 2
        # unlocated + social-only methods (all-inf spatial)
        responses = service.query_many(
            [
                QueryRequest(user=unlocated, k=3, alpha=1.0, method="sfa"),
                QueryRequest(user=unlocated, k=5, alpha=0.4, method="bruteforce"),
            ]
        )
        cold = build_engine(1, "python", 0)
        assert fingerprint(responses[0].result) == fingerprint(
            cold.query(unlocated, k=3, alpha=1.0, method="sfa")
        )
        assert fingerprint(responses[1].result) == fingerprint(
            cold.query(unlocated, k=5, alpha=0.4, method="bruteforce")
        )
    finally:
        service.close()


# -- stream repair reuse -----------------------------------------------


def test_stream_repair_consults_cached_columns_exactly():
    """Entrant evaluation during REPAIR reads a cached full column when
    one exists; maintained results must stay identical to a stack with
    the cache disabled under the same update sequence."""
    stacks = {}
    for tag, cache_bytes in (("warm", None), ("cold", 0)):
        engine = build_engine(1, "python", cache_bytes, n=90, seed=29, coverage=0.9)
        service = QueryService(engine, cache_size=0)
        registry = SubscriptionRegistry(service)
        stacks[tag] = (engine, service, registry)
    try:
        user = query_users(stacks["warm"][0])[0]
        # cache the full column on the warm side only
        stacks["warm"][0].query(user, k=5, alpha=0.5, method="bruteforce")
        hits_before = stacks["warm"][0].social_cache.info()["hits"]
        subs = {
            tag: registry.subscribe(user, k=5, alpha=0.5, method="spa")
            for tag, (_e, _s, registry) in stacks.items()
        }
        qx, qy = stacks["warm"][0].locations.get(user)
        movers = [
            v for v in query_users(stacks["warm"][0], count=6) if v != user
        ][:3]
        for i, mover in enumerate(movers):
            for _engine, service, _registry in stacks.values():
                service.move_user(mover, qx + 1e-4 * (i + 1), qy)
            results = {}
            for tag, (_e, _s, registry) in stacks.items():
                registry.flush()
                results[tag] = registry.result(subs[tag])
            assert fingerprint(results["warm"]) == fingerprint(results["cold"]), (
                f"repair diverged after moving {mover}"
            )
        assert stacks["warm"][0].social_cache.info()["hits"] > hits_before, (
            "repair pass never consulted the cached column"
        )
    finally:
        for _engine, service, registry in stacks.values():
            registry.close()
            service.close()


# -- sharded coordinator bypass ----------------------------------------


def test_sharded_coordinator_column_scan_counted_and_exact():
    sharded = build_engine(4, "python", None)
    cold = build_engine(4, "python", 0)
    user = query_users(sharded)[0]
    first = sharded.query(user, k=6, alpha=0.5, method="tsa")
    assert sharded.scatter.column_scans == 0  # cold: full scatter
    # the delegated full scan completes the expansion -> full column
    sharded.query(user, k=6, alpha=0.5, method="bruteforce")
    second = sharded.query(user, k=6, alpha=0.5, method="tsa")
    assert sharded.scatter.column_scans >= 1  # warm: coordinator scan
    assert second.stats.extra.get("column_scan") == 1
    ref = cold.query(user, k=6, alpha=0.5, method="tsa")
    assert fingerprint(first) == fingerprint(second) == fingerprint(ref)
    assert "column_scans" in sharded.scatter_info()


# -- cache unit behaviour ----------------------------------------------


class TestSocialColumnCache:
    def _graph(self, n=6):
        return SocialGraph.from_edges(
            n, [(i, i + 1, 1.0) for i in range(n - 1)]
        )

    def _kernels(self):
        return resolve_backend("python")

    def test_early_terminated_checkin_is_dropped(self):
        g = self._graph()
        cache = SocialColumnCache(g.n, self._kernels())
        it = DijkstraIterator(g, 0)
        it.next()
        cache.checkin(0, it)
        assert len(cache) == 0 and cache.stats.promotions == 0
        assert cache.acquire(0) == (None, None)
        assert cache.stats.misses == 1

    def test_exhausted_checkin_promotes_to_full_column(self):
        g = self._graph()
        cache = SocialColumnCache(g.n, self._kernels())
        it = DijkstraIterator(g, 0)
        it.run_to_completion()
        cache.checkin(0, it)
        kind, column = cache.acquire(0)
        assert kind == "full"
        assert list(column) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert cache.stats.promotions == 1
        assert cache.info()["entries"] == 1 and "partials" not in cache.info()

    def test_byte_budget_evicts_lru_first(self):
        g = self._graph()
        kernels = self._kernels()
        column_bytes = g.n * 8
        cache = SocialColumnCache(g.n, kernels, max_bytes=2 * column_bytes)
        cache.store_full(0, kernels.dense_from_dict(g.n, {0: 0.0}, INF))
        cache.store_full(1, kernels.dense_from_dict(g.n, {1: 0.0}, INF))
        assert cache.bytes_used == 2 * column_bytes
        cache.acquire(0)  # touch 0: 1 becomes LRU
        cache.store_full(2, kernels.dense_from_dict(g.n, {2: 0.0}, INF))
        assert cache.stats.evictions == 1
        assert cache.contains_full(0) and cache.contains_full(2)
        assert not cache.contains_full(1)
        assert cache.bytes_used <= cache.max_bytes

    def test_oversized_entry_is_refused_not_thrashed(self):
        g = self._graph()
        kernels = self._kernels()
        cache = SocialColumnCache(g.n, kernels, max_bytes=g.n * 8 - 1)
        cache.store_full(0, kernels.dense_from_dict(g.n, {}, INF))
        assert len(cache) == 0 and cache.stats.evictions == 0

    def test_resize_shrinks_and_zero_disables(self):
        g = self._graph()
        kernels = self._kernels()
        cache = SocialColumnCache(g.n, kernels)
        for u in range(3):
            cache.store_full(u, kernels.dense_from_dict(g.n, {u: 0.0}, INF))
        cache.resize(g.n * 8)  # room for exactly one column
        assert len(cache) == 1 and cache.bytes_used == g.n * 8
        cache.resize(0)
        assert len(cache) == 0 and not cache.enabled
        assert cache.acquire(0) == (None, None)
        cache.checkin(0, DijkstraIterator(g, 0))  # no-op while disabled
        assert len(cache) == 0
        with pytest.raises(ValueError):
            cache.resize(-1)

    def test_invalidate_all_counts_and_empties(self):
        g = self._graph()
        kernels = self._kernels()
        cache = SocialColumnCache(g.n, kernels)
        cache.store_full(0, kernels.dense_from_dict(g.n, {}, INF))
        cache.invalidate_all()
        assert len(cache) == 0 and cache.bytes_used == 0
        assert cache.stats.invalidations == 1

    def test_contains_full_probe_perturbs_nothing(self):
        g = self._graph()
        kernels = self._kernels()
        cache = SocialColumnCache(g.n, kernels, max_bytes=2 * g.n * 8)
        cache.store_full(0, kernels.dense_from_dict(g.n, {}, INF))
        cache.store_full(1, kernels.dense_from_dict(g.n, {}, INF))
        before = cache.info()
        assert cache.contains_full(0) and not cache.contains_full(5)
        assert cache.info() == before  # no stats, no LRU touch
        cache.store_full(2, kernels.dense_from_dict(g.n, {}, INF))
        assert not cache.contains_full(0)  # 0 stayed LRU: evicted first


# -- service / engine plumbing -----------------------------------------


def test_engine_cache_budget_knobs():
    engine = build_engine(1, "python", None)
    assert engine.social_cache.max_bytes == DEFAULT_SOCIAL_CACHE_BYTES
    assert build_engine(1, "python", 0).social_cache is None
    sized = build_engine(1, "python", 4096)
    assert sized.social_cache.max_bytes == 4096
    rebuilt = sized.with_graph(sized.graph)
    assert rebuilt.social_cache is not sized.social_cache
    assert rebuilt.social_cache.max_bytes == 4096


def test_service_social_cache_bytes_resizes_live_cache():
    engine = build_engine(1, "python", None)
    service = QueryService(engine, cache_size=0, social_cache_bytes=8192)
    try:
        assert engine.social_cache.max_bytes == 8192
        user = query_users(engine)[0]
        service.query(QueryRequest(user=user, k=4, alpha=1.0, method="bruteforce"))
        info = service.cache_info()
        assert info["social"]["max_bytes"] == 8192
        assert info["social"]["entries"] >= 1
        service.update_edge(user, (user + 1) % engine.graph.n, 0.3)
        new_engine = service.rebuild_engine()
        # the budget knob survives the swap, the entries do not
        assert new_engine.social_cache.max_bytes == 8192
        assert len(new_engine.social_cache) == 0
    finally:
        service.close()


def test_shards_share_one_cache_instance():
    sharded = build_engine(4, "python", None)
    assert sharded.social_cache is not None
    for shard in sharded._engines.values():
        assert shard.social_cache is sharded.social_cache
    disabled = build_engine(4, "python", 0)
    assert disabled.social_cache is None
    for shard in disabled._engines.values():
        assert shard.social_cache is None


def test_planner_social_hit_feature_probes_without_perturbing():
    from repro.plan.features import extract_features

    engine = build_engine(1, "python", None)
    user = query_users(engine)[0]
    assert extract_features(engine, QueryRequest(user, 10, 0.5)).social_hit is False
    engine.query(user, k=5, alpha=0.5, method="bruteforce")
    before = engine.social_cache.info()
    features = extract_features(engine, QueryRequest(user, 10, 0.5))
    assert features.social_hit is True
    assert engine.social_cache.info() == before
    assert features.bucket()[-1] == 1
