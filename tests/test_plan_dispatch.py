"""Endpoint-routing dispatch pin: every path routes identically.

The historical bug class this pins shut: the endpoint routing used to
be consulted in some dispatch paths but not others (e.g. the service's
cache keys stored the *requested* method while the engine executed the
*routed* one), and later the router tested ``alpha`` while the
searchers tested the score's weights, so a request whose ``α/P_max``
underflows reached a searcher that refuses it.  Now one rule
(:func:`repro.plan.rules.route_method`) reads the weights, and every
path — ``engine.query``, the service's ``query_many``, the cached
service, a subscription and ``POST /query``
(``tests/test_server_conformance.py``) — runs an endpoint query with
the same concrete method, observable on ``result.method``.
"""

from __future__ import annotations

import math

import pytest

from repro import Normalization, gowalla_like
from repro.core.engine import AUTO, METHODS, GeoSocialEngine
from repro.server import ServerClient, ServerThread
from repro.service import QueryRequest, QueryService
from repro.stream import SubscriptionRegistry
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
    """The rule, spelt out: ``bruteforce`` is never routed; otherwise a
    zero social weight runs ``bounded`` and a zero spatial weight SFA."""
    if method == "bruteforce":
        return method
    return "bounded" if alpha == 0.0 else "sfa"


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
    #    carry the resolved name, while the cache key is the request as
    #    asked (looked up before anything is resolved)
    service = QueryService(single, cache_size=8, max_workers=1)
    try:
        response = service.query(QueryRequest(user=user, k=k, alpha=alpha, method=method))
        assert response.result.method == expected
        assert service.stats.per_method == {expected: 1}
        (key,) = list(service.cache._entries)
        assert key[3] == method, f"cache key stores {key[3]!r}, not {method!r}"
        # the stored result names the executed method
        assert service.cache._entries[key].method == expected
        # the replay hits the same line
        replay = service.query(QueryRequest(user=user, k=k, alpha=alpha, method=method))
        assert replay.cached and replay.result.method == expected

        # 4. a subscription: its request stays as asked, its method
        #    follows what ran
        registry = SubscriptionRegistry(service)
        try:
            sub = registry.subscribe(user, k, alpha, method)
            assert registry.result(sub).method == sub.method == expected
            assert sub.request.method == method
        finally:
            registry.close()
    finally:
        service.close()

    # 5. results agree with the explicitly-routed method bit-for-bit
    explicit = single.query(user, k, alpha, expected)
    assert direct.users == explicit.users
    assert direct.scores == explicit.scores


def test_interior_alpha_does_not_route(single):
    for method in METHODS:
        result = single.query(1, 4, 0.5, method)
        assert result.method == method


# -- an alpha whose social weight underflows --------------------------------

#: ``α > 0`` yet ``α / P_max`` rounds to 0 when ``P_max = 4``
UNDERFLOWING = (5e-324, 1e-323)


@pytest.fixture(scope="module")
def underflow_engine():
    dataset = gowalla_like(n=300, seed=7)
    estimated = GeoSocialEngine.from_dataset(dataset).normalization
    return GeoSocialEngine.from_dataset(
        dataset, normalization=Normalization(p_max=4.0, d_max=estimated.d_max)
    )


def same_answer(got, want) -> None:
    """Exact ids and scores (``ais``: the model's 1e-9 tolerance)."""
    assert got["users"] == want.users, got["method"]
    if got["method"] == "ais":
        assert all(
            abs(a - b) <= 1e-9 * max(1.0, abs(b)) for a, b in zip(got["scores"], want.scores)
        )
    else:
        assert got["scores"] == want.scores, got["method"]


def as_answer(result) -> dict:
    return {"method": result.method, "users": result.users, "scores": result.scores}


@pytest.mark.parametrize("alpha", UNDERFLOWING)
def test_an_underflowing_social_weight_answers_like_bruteforce_everywhere(
    underflow_engine, alpha
):
    """A zero social weight routes on the weight, not on ``alpha``:
    every method and ``auto`` answers like ``bruteforce`` through the
    engine, the cached service, a subscription and ``POST /query``
    (status 200), instead of reaching a searcher that refuses a zero
    weight."""
    engine = underflow_engine
    assert alpha > 0.0 and alpha / engine.normalization.p_max == 0.0
    users = [int(u) for u in engine.located_users()[:3]]
    with QueryService(engine) as service, ServerThread(service, workers=1) as handle:
        registry = SubscriptionRegistry(service)
        try:
            with ServerClient(handle.host, handle.port) as client:
                for user in users:
                    want = engine.query(user, 10, alpha, "bruteforce")
                    assert all(math.isfinite(s) for s in want.scores)
                    for method in REQUESTED:
                        request = QueryRequest(user, 10, alpha, method)
                        same_answer(as_answer(engine.query(request)), want)
                        same_answer(as_answer(service.query(request).result), want)
                        sub = registry.subscribe(request)
                        same_answer(as_answer(registry.result(sub)), want)
                        status, _, payload = client.request(
                            "POST", "/query", request.payload()
                        )
                        assert status == 200, payload
                        result = payload["result"]
                        same_answer(
                            {
                                "method": result["method"],
                                "users": result["users"],
                                "scores": [nb["score"] for nb in result["neighbors"]],
                            },
                            want,
                        )
        finally:
            registry.close()
