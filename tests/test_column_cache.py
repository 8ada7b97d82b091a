"""The social column cache holds one kind of entry: a dense full column.

A scripted mix of every served method plus ``auto`` — endpoint and
mixed alphas, repeats, and an unlocated query user — runs against each
reference (the scalar Definition 1 model of ``tests/model.py``, the
cache-free bruteforce searcher).  After every query the cache must hold
only dense columns (``bytes_used == len(cache) * 8 * n``), and every
answer equals the reference.
Everything asserted is a count, never a wall time.
"""

from __future__ import annotations

import pytest

from repro.core.engine import METHODS, GeoSocialEngine
from repro.plan.rules import METHOD_TABLE
from tests.conftest import random_instance
from tests.model import Model

ALPHAS = (0.0, 0.3, 1.0)
N = 120


@pytest.fixture
def engine():
    graph, locations = random_instance(N, seed=41, coverage=0.8, avg_degree=4.0)
    return GeoSocialEngine(graph, locations, num_landmarks=3, s=4, seed=3)


@pytest.fixture(params=["python", "numpy"])
def reference(request, engine):
    """``(user, k, alpha)`` -> the rows every answer must equal: the
    model's ("python") or the cache-free bruteforce searcher's
    ("numpy")."""
    if request.param == "python":
        return Model.of_engine(engine).rows
    return lambda user, k, alpha: fingerprint(engine.searcher("bruteforce").search(user, k, alpha))


def fingerprint(result):
    return [(nb.user, nb.score, nb.social, nb.spatial) for nb in result.neighbors]


def assert_dense_columns_only(engine):
    cache = engine.social_cache
    assert cache.bytes_used == len(cache) * 8 * engine.graph.n
    info = cache.info()
    assert "partials" not in info and "resumes" not in info
    assert info["entries"] == len(cache)


def assert_matches(want, method, result, user, alpha):
    got = fingerprint(result)
    if METHOD_TABLE[result.method].forward:
        assert got == want, (method, user, alpha)
    else:  # AIS: bidirectional evaluation may differ in the last ulp
        assert [r[0] for r in got] == [r[0] for r in want], (method, user, alpha)
        assert all(abs(a[1] - b[1]) <= 1e-9 for a, b in zip(got, want)), (method, user, alpha)


def test_scripted_mix_keeps_only_dense_columns_and_exact_answers(engine, reference):
    located = sorted(engine.locations.located_users())
    unlocated = next(u for u in range(N) if engine.locations.get(u) is None)
    users = located[:3] + [unlocated]
    for k in (3, 12, 3):  # repeats; a narrow expansion never covers a wider k
        for user in users:
            for method in METHODS + ("auto",):
                for alpha in ALPHAS:
                    try:
                        result = engine.query(user, k=k, alpha=alpha, method=method)
                    except ValueError as error:
                        assert user == unlocated and alpha < 1.0, error
                        assert "no known location" in str(error)
                        continue
                    assert_matches(reference(user, k, alpha), method, result, user, alpha)
                    assert_dense_columns_only(engine)
    stats = engine.social_cache.stats
    assert stats.hits > 0 and stats.misses > 0 and len(engine.social_cache) > 0
