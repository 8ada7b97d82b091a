"""Endpoint-routing dispatch pin: every path routes identically.

The historical bug class this pins shut: ``route_method`` used to be
consulted in some dispatch paths but not others (e.g. the service's
cache keys stored the *requested* method while the engine executed the
*routed* one).  After folding the routing tables into the planner's
rule layer (:mod:`repro.plan.rules`), every path — ``engine.query``,
the service's ``query_many`` and the cached service — must resolve an
``alpha ∈ {0, 1}`` endpoint query to the same concrete method,
observable on ``result.method`` and in the service's cache keys /
per-method stats.
"""

from __future__ import annotations

import pytest

from repro.core.engine import AUTO, METHODS, GeoSocialEngine
from repro.plan.rules import route_method
from repro.service import QueryRequest, QueryService
from tests.conftest import random_instance

#: requested methods covering every routing family plus auto
REQUESTED = METHODS + (AUTO,)
ENDPOINTS = (0.0, 1.0)


@pytest.fixture(scope="module")
def instance():
    graph, locations = random_instance(150, seed=13, coverage=1.0)
    return graph, locations


@pytest.fixture(scope="module")
def single(instance):
    graph, locations = instance
    return GeoSocialEngine(graph, locations, num_landmarks=3, s=4, seed=5)


def expected_endpoint(method: str, alpha: float) -> str:
    if method == AUTO:
        return "bounded" if alpha == 0.0 else "sfa"
    return route_method(method, alpha)


@pytest.mark.parametrize("alpha", ENDPOINTS)
@pytest.mark.parametrize("method", REQUESTED)
def test_endpoint_dispatch_identical_across_all_paths(single, method, alpha):
    user, k = 3, 5
    expected = expected_endpoint(method, alpha)

    # 1. engine.query
    direct = single.query(user, k, alpha, method)
    assert direct.method == expected, f"engine.query dispatched {direct.method}"

    # 2. the service's batch, uncached
    with QueryService(single, cache_size=0) as batcher:
        batch = batcher.query_many([user, user + 1], k=k, alpha=alpha, method=method)
    assert [r.result.method for r in batch] == [expected, expected]

    # 3. cached service: the executed method and the per-method stats
    #    carry the resolved name; so does the cache key of a named
    #    method, while an exact auto request is keyed on the question
    #    alone (its line is looked up before anything is planned)
    service = QueryService(single, cache_size=8, max_workers=1)
    try:
        response = service.query(QueryRequest(user=user, k=k, alpha=alpha, method=method))
        assert response.result.method == expected
        assert service.stats.per_method == {expected: 1}
        (key,) = list(service.cache._entries)
        line = AUTO if method == AUTO else expected
        assert key[3] == line, f"cache key stores {key[3]!r}, not {line!r}"
        # the stored result names the executed method either way
        assert service.cache._entries[key].method == expected
        # the replay hits the same line
        replay = service.query(QueryRequest(user=user, k=k, alpha=alpha, method=method))
        assert replay.cached and replay.result.method == expected
    finally:
        service.close()

    # 4. results agree with the explicitly-routed method bit-for-bit
    explicit = single.query(user, k, alpha, expected)
    assert direct.users == explicit.users
    assert direct.scores == explicit.scores


def test_endpoint_aliases_share_one_cache_line(single):
    """tsa@alpha=0, spa@alpha=0, … are one query: the resolved-method
    key collapses the named aliases to a single cached entry.  ``auto``
    has its own line — the question line — whatever it resolves to."""
    service = QueryService(single, cache_size=8, max_workers=1)
    try:
        first = service.query(QueryRequest(user=2, k=4, alpha=0.0, method="tsa"))
        assert not first.cached
        for alias in ("spa", "tsa-qc", "sfa"):
            again = service.query(QueryRequest(user=2, k=4, alpha=0.0, method=alias))
            assert again.cached, f"{alias} missed the shared endpoint line"
        assert len(service.cache) == 1
        auto = QueryRequest(user=2, k=4, alpha=0.0, method=AUTO)
        planned = service.query(auto)
        assert not planned.cached and planned.result.method == "bounded"
        assert planned.users == first.users
        assert service.query(auto).cached
        assert len(service.cache) == 2
    finally:
        service.close()


def test_interior_alpha_does_not_route(single):
    for method in METHODS:
        result = single.query(1, 4, 0.5, method)
        assert result.method == method
