"""Integration: dynamic workloads interleaving updates and queries.

The paper's setting is dynamic — users move constantly.  These tests
drive long interleaved sequences of location updates, coverage changes,
and queries across all methods, checking exactness against brute force
and structural invariants of the indexes throughout.
"""

import random

import pytest

from repro.core.engine import GeoSocialEngine
from tests.conftest import ALL_METHODS, assert_same_scores, query_with, random_instance

#: every method that must equal brute force — served and variant alike
EXACT_METHODS = [m for m in ALL_METHODS if m != "bruteforce"]


@pytest.fixture()
def engine():
    graph, locations = random_instance(120, seed=401, coverage=0.75)
    return GeoSocialEngine(graph, locations, num_landmarks=3, s=3, seed=3)


def check_structural_invariants(engine: GeoSocialEngine) -> None:
    """The spatial indexes and location table must stay consistent."""
    located = set(engine.locations.located_users())
    # SPA grid contents == located users, each in exactly one cell.
    assert len(engine.grid) == len(located)
    seen = set()
    for cell, members in engine.grid.cells.items():
        for user in members:
            assert user not in seen
            seen.add(user)
    assert seen == located
    # Aggregate index: same population, summaries bracket their members.
    agg = engine.aggregate
    indexed = set()
    lm = engine.landmarks
    for leaf, summary in agg.leaf_summaries.items():
        members = agg.grid.ids_in(*leaf)
        assert len(members), "empty leaf summaries must be dropped"
        for user in members:
            indexed.add(user)
            vec = lm.vector(user)
            for j in range(lm.m):
                assert summary.m_check[j] <= vec[j] <= summary.m_hat[j]
    assert indexed == located


def test_interleaved_updates_and_queries(engine):
    rng = random.Random(11)
    for round_no in range(8):
        for _ in range(25):
            user = rng.randrange(engine.graph.n)
            action = rng.random()
            if action < 0.75:
                engine.move_user(user, rng.uniform(-0.2, 1.2), rng.uniform(-0.2, 1.2))
            elif engine.locations.has_location(user):
                engine.forget_location(user)
        check_structural_invariants(engine)
        located = list(engine.locations.located_users())
        if not located:
            continue
        query_user = rng.choice(located)
        k = rng.choice([3, 8])
        alpha = rng.choice([0.2, 0.5, 0.8])
        expected = engine.query(query_user, k=k, alpha=alpha, method="bruteforce")
        for method in EXACT_METHODS:
            got = query_with(engine, query_user, k=k, alpha=alpha, method=method)
            assert_same_scores(expected, got)


def test_everyone_goes_dark_then_returns(engine):
    rng = random.Random(13)
    original = {
        user: engine.locations.get(user) for user in engine.locations.located_users()
    }
    for user in list(engine.locations.located_users()):
        engine.forget_location(user)
    check_structural_invariants(engine)
    assert engine.locations.n_located == 0
    # Pure social queries still work while nobody shares a location.
    result = engine.query(0, k=5, alpha=1.0, method="sfa")
    assert len(result) == 5
    # Everyone returns (possibly elsewhere).
    for user, (x, y) in original.items():
        engine.move_user(user, x + rng.uniform(-0.05, 0.05), y)
    check_structural_invariants(engine)
    located = list(engine.locations.located_users())
    expected = engine.query(located[0], k=8, alpha=0.4, method="bruteforce")
    assert_same_scores(expected, engine.query(located[0], k=8, alpha=0.4, method="ais"))


def test_query_user_moves_between_queries(engine):
    rng = random.Random(17)
    located = list(engine.locations.located_users())
    mover = located[0]
    previous_users = None
    for _ in range(5):
        engine.move_user(mover, rng.random(), rng.random())
        expected = engine.query(mover, k=6, alpha=0.3, method="bruteforce")
        got = engine.query(mover, k=6, alpha=0.3, method="ais")
        assert_same_scores(expected, got)
        previous_users = got.users


def test_cached_searchers_see_updates(engine):
    """Engine caches per-method searcher objects; they must observe
    index/location mutations made after their construction."""
    located = list(engine.locations.located_users())
    q = located[0]
    engine.query(q, k=5, alpha=0.3, method="ais")  # instantiate searcher
    engine.query(q, k=5, alpha=0.3, method="spa")
    victim = located[1]
    engine.move_user(victim, 5.0, 5.0)  # far away
    expected = engine.query(q, k=5, alpha=0.3, method="bruteforce")
    assert_same_scores(expected, engine.query(q, k=5, alpha=0.3, method="ais"))
    assert_same_scores(expected, engine.query(q, k=5, alpha=0.3, method="spa"))
