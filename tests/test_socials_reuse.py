"""Cross-query social-distance reuse: the column step's paths.

The :class:`~repro.social.SocialColumnCache` is a pure performance
layer — every answer produced through a cached column must be
**bit-identical** to the cold computation and equal to the scalar
Definition 1 model of ``tests/model.py``.  The whole-stack model
(``tests/test_service_model.py``) checks that for every served answer,
cached column or not, through interleaved location and edge updates
and engine rebuilds, same-user batches and subscription repairs
included; this suite pins each path of the column step, and that an
early-terminated expansion is never kept, against a cache-disabled
engine.  The poisoned-column
canary additionally pins that cached columns are *actually consulted*
(reuse is observable) and that an edge update *strictly* invalidates
them while location moves never do — the epoch-safety contract the
whole design rests on.
"""

from __future__ import annotations

import math

import pytest

from repro.backend import NumpyKernels
from repro.core.engine import FORWARD_DETERMINISTIC_METHODS, GeoSocialEngine
from repro.graph.socialgraph import SocialGraph
from repro.graph.traversal import DijkstraIterator
from repro.service import QueryRequest, QueryService
from repro.social import DEFAULT_SOCIAL_CACHE_BYTES, SocialColumnCache
from repro.stream import SubscriptionRegistry
from tests.conftest import random_instance

INF = math.inf

METHODS = tuple(sorted(FORWARD_DETERMINISTIC_METHODS))


def fingerprint(result):
    """Exact (user, score, social, spatial) tuples — bit-identity, not
    tolerance-based equality."""
    return [(nb.user, nb.score, nb.social, nb.spatial) for nb in result.neighbors]


def build_engine(cache_bytes: "int | None", *,
                 n: int = 130, seed: int = 13, coverage: float = 0.85):
    graph, locations = random_instance(n, seed=seed, coverage=coverage)
    if locations.n_located == 0:
        locations.set(0, 0.5, 0.5)
    return GeoSocialEngine(
        graph, locations, num_landmarks=3, s=4, seed=5, social_cache_bytes=cache_bytes
    )


def query_users(engine, count: int = 3):
    located = sorted(engine.locations.located_users())
    return located[:: max(1, len(located) // count)][:count]


# -- the one shared column step, per searcher ---------------------------

#: (method, alpha) for the four forward-deterministic searcher classes
STEP_CASES = [("sfa", 0.6), ("spa", 0.3), ("tsa", 0.5), ("bruteforce", 0.4)]


@pytest.mark.parametrize("method,alpha", STEP_CASES)
def test_column_step_miss_then_fresh_restart_then_full_hit(method, alpha):
    """The miss / fresh-restart / full-hit outcomes of the pipeline's
    column step, driven through ``engine.query`` for each searcher —
    with the cache counters and the bit-identity both pinned."""
    warm = build_engine(None)
    cold = build_engine(0)
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


@pytest.mark.parametrize("method,alpha", STEP_CASES)
def test_a_miss_stores_only_a_kernel_column(method, alpha):
    """A miss on an incremental searcher stores nothing, even when its
    expansion ran dry (``k = n``); a bruteforce miss stores the column
    its ``sssp_column`` call built, and the repeat scans it."""
    engine = build_engine(None)
    cold = build_engine(0)
    cache = engine.social_cache
    user = query_users(engine)[0]
    request = QueryRequest(user, k=engine.graph.n, alpha=alpha, method=method)
    first = engine.query(request)
    assert fingerprint(first) == fingerprint(cold.query(request))
    assert "social_column_hits" not in first.stats.extra
    if method == "bruteforce":
        # the kernel's column, stored at the layout: the located users
        column = engine.kernels.sssp_column(engine.graph, user)
        assert cache.layout.tolist() == engine.located_users().tolist()
        assert cache.peek_full(user).tolist() == column[cache.layout].tolist()
        again = engine.query(request)
        assert again.stats.extra["social_column_hits"] == 1
        assert fingerprint(again) == fingerprint(first)
    else:
        assert len(cache) == 0 and cache.stats.promotions == 0
        assert cache.acquire(user) is None


def test_column_step_leaves_the_cache_alone_when_it_cannot_apply():
    """No social term, no spatial term, a non-forward-deterministic
    method, or an unlocated query user below ``alpha == 1`` (the engine
    raises before the step): the searcher opens its own stream (or
    nothing runs) and no counter moves.  At ``alpha == 1`` an unlocated
    user can be an answer, so not even a cached column answers there."""
    engine = build_engine(None)
    cache = engine.social_cache
    user = query_users(engine)[0]
    unlocated = next(u for u in range(engine.graph.n) if engine.locations.get(u) is None)
    engine.query(user, k=4, alpha=0.4, method="bruteforce")  # caches user's column
    before = cache.info()
    assert before["entries"] == 1
    engine.query(user, k=4, alpha=0.0, method="spa")
    engine.query(user, k=4, alpha=0.0, method="bruteforce")
    engine.query(user, k=4, alpha=0.4, method="ais")
    for method in METHODS:
        with pytest.raises(ValueError, match="no known location"):
            engine.query(unlocated, k=4, alpha=0.4, method=method)
    pure = [
        engine.query(unlocated, k=4, alpha=1.0, method="sfa"),
        engine.query(user, k=4, alpha=1.0, method="sfa"),
        engine.query(user, k=4, alpha=1.0, method="bruteforce"),
    ]
    assert cache.info() == before
    assert not any("social_column_hits" in result.stats.extra for result in pure)


# -- the poisoned-column canary ----------------------------------------


def test_poisoned_column_canary():
    """Deliberately corrupt a cached column in place and observe the
    corruption in served results — proving columns are genuinely
    consulted — then pin the invalidation semantics: neither a
    location move inside the layout nor a recorded edge update touches
    the column, and the rebuild that folds the edge in serves from a
    fresh cache."""
    engine = build_engine(None)
    service = QueryService(engine, cache_size=0)
    cold = build_engine(0)
    cold_service = QueryService(cold, cache_size=0)
    try:
        user = query_users(engine)[0]
        # bruteforce at an interior alpha caches the column at the layout
        engine.query(user, k=5, alpha=0.5, method="bruteforce")
        layout = engine.social_cache.layout
        column = engine.social_cache.peek_full(user)
        assert column is not None
        at = max(
            i for i, v in enumerate(layout.tolist())
            if v != user and 0.0 < column[i] < INF
        )
        victim = int(layout[at])
        assert victim != at  # the entry sits at the victim's position, not its id
        column[at] = 0.0  # the poison: an impossible exact distance

        def both(move, *args):
            getattr(service, move)(*args)
            getattr(cold_service, move)(*args)

        # Location moves inside the layout must NOT invalidate: the poison
        # stays visible, and with the victim on the query point it
        # scores 0, which no exact column gives it.
        for mover, x, y in ((victim, *engine.locations.get(user)),
                            (user, 0.13, 0.87), (victim, 0.13, 0.87)):
            both("move_user", mover, x, y)
            poisoned = engine.query(user, k=5, alpha=0.5, method="sfa")
            if mover == victim:
                assert poisoned.stats.extra["social_column_hits"] == 1
                assert poisoned.users[0] == victim, "the cached column was not consulted"
                assert (poisoned.neighbors[0].social, poisoned.neighbors[0].score) == (0.0, 0.0)
        truth = cold.query(user, k=5, alpha=0.5, method="sfa")
        assert fingerprint(poisoned) != fingerprint(truth)
        assert engine.social_cache.stats.invalidations == 0

        # Nor does an edge update: the served graph is unchanged until
        # the rebuild, so the column (here: the poison) stays.
        both("update_edge", user, victim, 0.5)
        still = engine.query(user, k=5, alpha=0.5, method="sfa")
        assert still.users[0] == victim, "an edge update flushed the column cache"

        # The rebuild's engine starts from an empty cache: the poison
        # is gone and the answer matches a cold engine over the same
        # folded graph.
        healed = service.rebuild_engine().query(user, k=5, alpha=0.5, method="sfa")
        ref = cold_service.rebuild_engine().query(user, k=5, alpha=0.5, method="sfa")
        assert fingerprint(healed) == fingerprint(ref)
        assert healed.neighbors[0].social > 0.0
    finally:
        cold_service.close()
        service.close()


# -- stream repair reuse -----------------------------------------------


def test_a_subscription_repair_reads_the_cached_full_column():
    """An entrant that a subscription repair scores takes its social
    distance from the query user's cached full column, not from a new
    expansion.  (That the repaired answer is exact is the model's:
    ``tests/test_service_model.py`` repairs subscriptions over every
    column-cache stratum.)"""
    engine = build_engine(None, n=90, seed=29, coverage=0.9)
    service = QueryService(engine, cache_size=0)
    registry = SubscriptionRegistry(service)
    try:
        user = query_users(engine)[0]
        engine.query(user, k=5, alpha=0.5, method="bruteforce")  # caches the column
        sub = registry.subscribe(user, k=5, alpha=0.5, method="spa")
        hits = engine.social_cache.info()["hits"]
        mover = next(v for v in query_users(engine, count=6) if v != user)
        qx, qy = engine.locations.get(user)
        service.move_user(mover, qx + 1e-4, qy)
        registry.flush()
        assert sub.repairs == 1 and registry.stats.entrant_evaluations == 1
        assert engine.social_cache.info()["hits"] == hits + 1
    finally:
        registry.close()
        service.close()


def test_a_repair_reads_an_entrant_at_its_layout_position():
    """A subscription repair scores an entrant from the cached column at
    the entrant's position in the layout (the located users), not at its
    id: the repaired answer equals a fresh ``bruteforce`` answer."""
    engine = build_engine(None, n=90, seed=29, coverage=0.9)
    cold = build_engine(0, n=90, seed=29, coverage=0.9)
    service = QueryService(engine, cache_size=0)
    registry = SubscriptionRegistry(service)
    try:
        user = query_users(engine)[0]
        engine.query(user, k=5, alpha=0.5, method="bruteforce")  # caches the column
        layout = engine.social_cache.layout.tolist()
        sub = registry.subscribe(user, k=5, alpha=0.5, method="spa")
        column = engine.social_cache.peek_full(user)
        mover = max(v for i, v in enumerate(layout) if v != user and column[i] < INF)
        assert layout.index(mover) != mover
        qx, qy = engine.locations.get(user)
        service.move_user(mover, qx + 1e-4, qy)
        cold.move_user(mover, qx + 1e-4, qy)
        registry.flush()
        assert sub.repairs == 1 and registry.stats.entrant_evaluations == 1
        want = cold.query(user, k=5, alpha=0.5, method="bruteforce")
        assert mover in want.users
        assert fingerprint(registry.result(sub)) == fingerprint(want)
    finally:
        registry.close()
        service.close()


# -- the layout: the located users -------------------------------------


def test_a_first_location_lays_the_cache_out_afresh():
    """A user located for the first time after columns are cached is in
    no column: the move empties the cache and lays it out over the
    located users, and the next interior answer, a cached column's
    included, equals ``bruteforce`` and holds the newcomer."""
    engine = build_engine(None)
    cold = build_engine(0)
    service = QueryService(engine, cache_size=0)
    try:
        cache = engine.social_cache
        user = query_users(engine)[0]
        for other in query_users(engine, count=4):
            engine.query(other, k=4, alpha=0.5, method="bruteforce")
        assert len(cache) > 1
        column = engine.kernels.sssp_column(engine.graph, user)
        newcomer = next(
            v for v in range(engine.graph.n)
            if engine.locations.get(v) is None and column[v] < INF
        )
        assert not cache.laid_out(newcomer)
        for moved in (service, cold):
            moved.move_user(newcomer, *engine.locations.get(user))
        assert len(cache) == 0 and cache.stats.invalidations == 1
        assert cache.laid_out(newcomer)
        assert cache.layout.tolist() == engine.located_users().tolist()
        k = engine.graph.n
        want = fingerprint(cold.query(user, k=k, alpha=0.5, method="bruteforce"))
        assert newcomer in [row[0] for row in want]
        assert fingerprint(engine.query(user, k=k, alpha=0.5, method="bruteforce")) == want
        hit = engine.query(user, k=k, alpha=0.5, method="sfa")
        assert hit.stats.extra["social_column_hits"] == 1
        assert fingerprint(hit) == want
    finally:
        service.close()


def test_a_forget_and_a_return_keep_the_layout_and_the_columns():
    """A forget keeps the user's position in the layout (its NaN
    coordinates score ``inf``), so neither it nor the user's return
    drops a column, and every answer stays exact."""
    engine = build_engine(None)
    cold = build_engine(0)
    service = QueryService(engine, cache_size=0)
    try:
        cache = engine.social_cache
        user = query_users(engine)[0]
        k = engine.graph.n  # every finite score is an answer
        engine.query(user, k=k, alpha=0.5, method="bruteforce")
        layout, column = cache.layout, cache.peek_full(user)
        other = max(v for i, v in enumerate(layout.tolist()) if v != user and column[i] < INF)
        where = engine.locations.get(other)
        for change, args in (("forget_location", (other,)), ("move_user", (other, *where))):
            getattr(service, change)(*args)
            getattr(cold, change)(*args)
            assert cache.layout is layout and cache.peek_full(user) is column
            assert cache.stats.invalidations == 0
            hit = engine.query(user, k=k, alpha=0.5, method="sfa")
            assert hit.stats.extra["social_column_hits"] == 1
            want = cold.query(user, k=k, alpha=0.5, method="bruteforce")
            assert fingerprint(hit) == fingerprint(want)
            assert (other in hit.users) == (change == "move_user")
    finally:
        service.close()


# -- cache unit behaviour ----------------------------------------------


class TestSocialColumnCache:
    def _graph(self, n=6):
        return SocialGraph.from_edges(
            n, [(i, i + 1, 1.0) for i in range(n - 1)]
        )

    def _kernels(self):
        return NumpyKernels()

    def test_early_terminated_checkin_is_dropped(self):
        g = self._graph()
        cache = SocialColumnCache(g.n, self._kernels())
        it = DijkstraIterator(g, 0)
        it.next()
        cache.checkin(0, it)
        assert len(cache) == 0 and cache.stats.promotions == 0
        assert cache.acquire(0) is None
        assert cache.stats.misses == 1

    def test_exhausted_checkin_promotes_to_full_column(self):
        g = self._graph()
        cache = SocialColumnCache(g.n, self._kernels())
        it = DijkstraIterator(g, 0)
        it.run_to_completion()
        cache.checkin(0, it)
        column = cache.acquire(0)
        assert list(column) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert cache.stats.promotions == 1
        info = cache.info()
        assert info["entries"] == len(cache) == 1
        assert "partials" not in info and "resumes" not in info

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
    engine = build_engine(None)
    assert engine.social_cache.max_bytes == DEFAULT_SOCIAL_CACHE_BYTES
    assert build_engine(0).social_cache is None
    # "no column cache" has one form, None: the cache refuses a 0 budget
    with pytest.raises(ValueError, match="max_bytes must be >= 1"):
        SocialColumnCache(engine.graph.n, engine.kernels, max_bytes=0)
    sized = build_engine(4096)
    assert sized.social_cache.max_bytes == 4096
    rebuilt = sized.with_graph(sized.graph)
    assert rebuilt.social_cache is not sized.social_cache
    assert rebuilt.social_cache.max_bytes == 4096


@pytest.mark.parametrize("budget", [8192, 0])
def test_every_engine_swap_keeps_the_engine_column_budget(budget):
    """The budget is set on the engine alone: a rebuild carries it
    through ``with_graph`` and a restore through ``replace_engine`` —
    the entries do not cross either swap, and no cache stays no cache."""
    engine = build_engine(budget)
    service = QueryService(engine, cache_size=0)
    try:
        user = query_users(engine)[0]
        service.query(QueryRequest(user=user, k=4, alpha=1.0, method="bruteforce"))
        assert ("social" in service.cache_info()) == (budget > 0)
        service.update_edge(user, (user + 1) % engine.graph.n, 0.3)
        rebuilt = service.rebuild_engine()
        restored = service.replace_engine(build_engine(None))
        for swapped in (rebuilt, restored):
            if budget:
                assert swapped.social_cache.max_bytes == budget
                assert len(swapped.social_cache) == 0
            else:
                assert swapped.social_cache is None
    finally:
        service.close()
