"""The social column cache holds one kind of entry: a dense full column.

A scripted mix of every served method plus ``auto`` — endpoint and
mixed alphas, repeats, and an unlocated query user — runs on each
kernel leg (scalar python, numpy over scipy, numpy with scipy blocked).
After every query the cache must hold only dense columns
(``bytes_used == len(cache) * 8 * n``); an incremental search whose
fresh expansion exhausts is promoted, and its repeat is a column hit;
every answer equals the cache-free bruteforce reference.  Everything
asserted is a count, never a wall time.
"""

from __future__ import annotations

import sys

import pytest

from repro.core.engine import METHODS, GeoSocialEngine
from repro.plan.rules import METHOD_TABLE
from tests.conftest import assert_same_scores, random_instance

ALPHAS = (0.0, 0.3, 1.0)
N = 120

LEGS = ["python", "numpy"]
try:
    import scipy.sparse.csgraph  # noqa: F401

    LEGS.append("numpy-scipy-blocked")
except ImportError:  # pragma: no cover - a scipy-less install is the blocked leg
    pass


@pytest.fixture(params=LEGS)
def leg(request, monkeypatch):
    if request.param == "numpy-scipy-blocked":
        for name in [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]:
            monkeypatch.setitem(sys.modules, name, None)
    return request.param


@pytest.fixture
def engine(leg):
    graph, locations = random_instance(N, seed=41, coverage=0.8, avg_degree=4.0)
    backend = "python" if leg == "python" else "numpy"
    return GeoSocialEngine(graph, locations, num_landmarks=3, s=4, seed=3, backend=backend)


def fingerprint(result):
    return [(nb.user, nb.score, nb.social, nb.spatial) for nb in result.neighbors]


def assert_dense_columns_only(engine):
    cache = engine.social_cache
    assert cache.bytes_used == len(cache) * 8 * engine.graph.n
    info = cache.info()
    assert "partials" not in info and "resumes" not in info
    assert info["entries"] == len(cache)


def assert_matches_bruteforce(engine, method, result, user, k, alpha):
    reference = engine.searcher("bruteforce").search(user, k, alpha)
    if METHOD_TABLE[result.method].forward:
        assert fingerprint(result) == fingerprint(reference), (method, user, alpha)
    elif result.method == "approx":
        truth = {nb.user: nb.score for nb in
                 engine.searcher("bruteforce").search(user, engine.graph.n, alpha)}
        for nb in result.neighbors:
            assert abs(nb.score - truth[nb.user]) <= result.error_bound + 1e-9
    else:  # AIS: bidirectional evaluation may differ in the last ulp
        assert_same_scores(reference, result)


def test_scripted_mix_keeps_only_dense_columns_and_exact_answers(leg, engine):
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
                    assert_matches_bruteforce(engine, method, result, user, k, alpha)
                    assert_dense_columns_only(engine)
    stats = engine.social_cache.stats
    assert stats.hits > 0 and stats.misses > 0 and len(engine.social_cache) > 0
    if leg == "numpy-scipy-blocked":  # scipy would park a handle on the graph
        assert engine.graph._csr is None


def test_an_exhausted_incremental_expansion_is_promoted(engine):
    user = sorted(engine.locations.located_users())[-1]
    cache = engine.social_cache
    # an early-terminated expansion is dropped
    engine.query(user, k=2, alpha=1.0, method="sfa")
    assert len(cache) == 0 and cache.stats.promotions == 0
    # k at least the component size: SFA runs its expansion dry
    first = engine.query(user, k=N, alpha=1.0, method="sfa")
    assert "social_column_hits" not in first.stats.extra
    assert cache.stats.promotions == 1 and cache.contains_full(user)
    assert_dense_columns_only(engine)
    again = engine.query(user, k=5, alpha=1.0, method="sfa")
    assert again.stats.extra["social_column_hits"] == 1
    for result, k in ((first, N), (again, 5)):
        assert_matches_bruteforce(engine, "sfa", result, user, k, 1.0)
