"""Tests for the engine facade: dispatch, validation, dynamic updates."""

import math

import pytest

from repro.bench.variants import variant_searcher
from repro.core.engine import GeoSocialEngine
from repro.service import QueryService
from tests.conftest import ALL_METHODS, assert_same_scores, query_with, random_instance

INF = math.inf


@pytest.fixture()
def engine():
    graph, locations = random_instance(150, seed=351, coverage=0.8)
    return GeoSocialEngine(graph, locations, num_landmarks=3, s=4, seed=2)


class TestDispatch:
    def test_unknown_method(self, engine):
        user = next(iter(engine.located_users()))
        with pytest.raises(ValueError, match="unknown method"):
            engine.query(user, method="magic")

    def test_invalid_alpha(self, engine):
        user = next(iter(engine.located_users()))
        with pytest.raises(ValueError, match="alpha"):
            engine.query(user, alpha=1.5)

    def test_invalid_user(self, engine):
        with pytest.raises(ValueError):
            engine.query(10_000)

    def test_searchers_cached(self, engine):
        assert engine.searcher("ais") is engine.searcher("ais")
        lists = variant_searcher(engine, "ais-cache", t=10).cache
        assert lists is variant_searcher(engine, "ais-cache", t=10).cache
        assert lists is not variant_searcher(engine, "ais-cache", t=20).cache
        assert variant_searcher(engine, "sfa-ch").point_to_point is (
            variant_searcher(engine, "tsa-ch").point_to_point
        ), "one CH per engine"

    def test_methods_constant_covers_all_searchers(self, engine):
        user = next(iter(engine.located_users()))
        for method in ALL_METHODS:
            result = query_with(engine, user, k=3, alpha=0.3, method=method, t=10)
            assert len(result) <= 3

    def test_query_many_matches_a_sequential_query_loop(self, engine):
        """The service's query_many is the one batch entry point; the
        engine has none."""
        users = list(engine.located_users())[:4]
        assert not hasattr(engine, "batch_query") and not hasattr(engine, "query_many")
        with QueryService(engine, cache_size=0) as service:
            responses = service.query_many(users, k=5, alpha=0.3, method="ais")
        via_service = [response.result for response in responses]
        assert [r.query_user for r in via_service] == users
        sequential = [engine.query(u, k=5, alpha=0.3, method="ais") for u in users]
        for modern, loop in zip(via_service, sequential):
            assert modern.users == loop.users
            assert modern.scores == loop.scores

    def test_mismatched_location_table_rejected(self):
        graph, locations = random_instance(50, seed=352)
        from repro.spatial.point import LocationTable

        with pytest.raises(ValueError, match="covers"):
            GeoSocialEngine(graph, LocationTable.empty(10))

    def test_from_dataset(self):
        from repro.datasets.synthetic import build_dataset

        ds = build_dataset("x", n=100, avg_degree=6.0, seed=3)
        engine = GeoSocialEngine.from_dataset(ds, num_landmarks=2, s=3)
        assert engine.graph.n == 100

    def test_repr(self, engine):
        assert "GeoSocialEngine" in repr(engine)


class TestDynamicLocations:
    def test_move_then_query_matches_bruteforce(self, engine):
        users = list(engine.located_users())[:6]
        mover = users[0]
        engine.move_user(mover, 0.123, 0.456)
        assert engine.locations.get(mover) == (0.123, 0.456)
        for q in users[1:4]:
            expected = engine.query(q, k=10, alpha=0.3, method="bruteforce")
            for method in ("spa", "tsa", "ais"):
                assert_same_scores(expected, engine.query(q, k=10, alpha=0.3, method=method))

    def test_move_out_of_bbox_still_correct(self, engine):
        users = list(engine.located_users())[:6]
        engine.move_user(users[0], 7.5, -3.5)  # far outside the build box
        for q in users[1:4]:
            expected = engine.query(q, k=10, alpha=0.3, method="bruteforce")
            for method in ("spa", "tsa", "ais"):
                assert_same_scores(expected, engine.query(q, k=10, alpha=0.3, method=method))

    def test_locate_previously_unknown_user(self, engine):
        newcomer = next(
            u for u in range(engine.graph.n) if not engine.locations.has_location(u)
        )
        engine.move_user(newcomer, 0.5, 0.5)
        q = next(iter(engine.located_users()))
        expected = engine.query(q, k=10, alpha=0.3, method="bruteforce")
        for method in ("spa", "ais"):
            assert_same_scores(expected, engine.query(q, k=10, alpha=0.3, method=method))

    def test_forget_location(self, engine):
        users = list(engine.located_users())[:5]
        gone = users[0]
        engine.forget_location(gone)
        assert not engine.locations.has_location(gone)
        assert all(gone not in users for users in engine.grid.cells.values())
        aggregate = engine.aggregate
        assert all(gone not in aggregate.grid.ids_in(*leaf) for leaf in aggregate.leaf_summaries)
        q = users[1]
        expected = engine.query(q, k=10, alpha=0.3, method="bruteforce")
        assert gone not in expected.users or engine.query(q, k=10, alpha=0.3).users
        for method in ("spa", "ais"):
            assert_same_scores(expected, engine.query(q, k=10, alpha=0.3, method=method))

    def test_forget_unlocated_is_noop(self, engine):
        unlocated = next(
            u for u in range(engine.graph.n) if not engine.locations.has_location(u)
        )
        engine.forget_location(unlocated)  # must not raise

    def test_many_moves_storm(self, engine):
        import random

        rng = random.Random(5)
        for _ in range(60):
            user = rng.randrange(engine.graph.n)
            engine.move_user(user, rng.random(), rng.random())
        q = next(iter(engine.located_users()))
        expected = engine.query(q, k=10, alpha=0.3, method="bruteforce")
        for method in ("spa", "tsa", "ais"):
            assert_same_scores(expected, engine.query(q, k=10, alpha=0.3, method=method))
