"""Tests for social-neighbour pre-computation (AIS-Cache)."""

import math

import pytest

from repro.bench.variants import neighbor_cache
from repro.core.precompute import SocialNeighborCache
from repro.graph.traversal import dijkstra_distances
from tests.conftest import assert_same_scores, query_with, random_instance

INF = math.inf


@pytest.fixture(scope="module")
def engine():
    from repro.core.engine import GeoSocialEngine

    graph, locations = random_instance(250, seed=341, coverage=0.85)
    return GeoSocialEngine(graph, locations, num_landmarks=4, s=4, seed=1)


class TestSocialNeighborCache:
    def test_list_is_ascending_and_correct(self, engine):
        cache = SocialNeighborCache(engine.graph, t=20)
        truth = dijkstra_distances(engine.graph, 0)
        entries = cache.list_for(0)
        assert len(entries) == 20
        distances = [p for p, _ in entries]
        assert distances == sorted(distances)
        for p, v in entries:
            assert math.isclose(p, truth[v], abs_tol=1e-12)

    def test_excludes_source(self, engine):
        cache = SocialNeighborCache(engine.graph, t=20)
        assert all(v != 0 for _, v in cache.list_for(0))

    def test_completeness_flag(self, engine):
        big = SocialNeighborCache(engine.graph, t=10_000)
        big.list_for(0)
        assert big.is_complete(0)
        small = SocialNeighborCache(engine.graph, t=5)
        small.list_for(0)
        assert not small.is_complete(0)

    def test_lists_cached(self, engine):
        cache = SocialNeighborCache(engine.graph, t=10)
        first = cache.list_for(3)
        assert cache.list_for(3) is first

    def test_prebuild(self, engine):
        cache = SocialNeighborCache(engine.graph, t=10)
        cache.prebuild([0, 1, 2])
        assert all(u in cache._lists for u in (0, 1, 2))

    def test_invalid_t(self, engine):
        with pytest.raises(ValueError):
            SocialNeighborCache(engine.graph, t=0)


class TestCachedSocialFirst:
    def test_small_t_falls_back_and_is_correct(self, engine):
        users = [u for u in engine.located_users()][:5]
        for user in users:
            expected = engine.query(user, k=10, alpha=0.3, method="bruteforce")
            got = query_with(engine, user, k=10, alpha=0.3, method="ais-cache", t=5)
            assert_same_scores(expected, got)
            assert got.stats.extra.get("fallback") == 1

    def test_large_t_answers_from_cache(self, engine):
        users = [u for u in engine.located_users()][:5]
        for user in users:
            expected = engine.query(user, k=10, alpha=0.3, method="bruteforce")
            got = query_with(engine, user, k=10, alpha=0.3, method="ais-cache", t=10_000)
            assert_same_scores(expected, got)
            assert "fallback" not in got.stats.extra

    def test_alpha_zero_routed_to_spa(self, engine):
        user = next(iter(engine.located_users()))
        expected = engine.query(user, k=10, alpha=0.0, method="bruteforce")
        got = query_with(engine, user, k=10, alpha=0.0, method="ais-cache", t=10)
        assert_same_scores(expected, got)

    def test_cache_reused_across_queries(self, engine):
        user = next(iter(engine.located_users()))
        query_with(engine, user, k=5, alpha=0.5, method="ais-cache", t=37)
        cache = neighbor_cache(engine, 37)
        assert user in cache._lists
