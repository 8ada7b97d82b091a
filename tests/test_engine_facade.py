"""One query value.

A :class:`~repro.core.request.QueryRequest` is the same value at every
boundary it crosses: the JSON wire shape, positional coercion at the
public edges, and the service's result-cache key.
"""

from __future__ import annotations

import json

import pytest

from repro import GeoSocialEngine, QueryRequest, QueryService
from tests.conftest import random_instance


REQUESTS = [
    QueryRequest(3),
    QueryRequest(3, k=7, alpha=0.0, method="spa"),
    QueryRequest(3, k=7, alpha=1.0, method="ais"),
    QueryRequest(3, k=7, alpha=0.5, method="auto", budget=0.05),
    QueryRequest(3, k=7, alpha=0.5, method="auto", budget=0),
]


@pytest.mark.parametrize("request_", REQUESTS, ids=repr)
def test_request_round_trips_every_boundary_unchanged(request_):
    # the JSON wire shape
    wire = json.loads(json.dumps(request_.payload()))
    assert QueryRequest.from_payload(wire) == request_
    # positional coercion at the public edges
    fields = request_.payload()
    assert QueryRequest.coerce(fields.pop("user"), **fields) == request_


def test_cache_key_is_built_from_the_request_and_exactness_collapses():
    graph, locations = random_instance(60, seed=11, coverage=0.9)
    engine = GeoSocialEngine(graph, locations, num_landmarks=2, s=3, seed=1)
    with QueryService(engine, cache_size=8) as service:
        unset = QueryRequest(3, k=7, alpha=0.5, method="spa")
        zero = QueryRequest(3, k=7, alpha=0.5, method="spa", budget=0)
        budgeted = QueryRequest(3, k=7, alpha=0.5, method="spa", budget=0.05)
        key = service._cache_key(unset, engine, "spa")
        assert key[:4] == (3, 7, 0.5, "spa")
        assert service._cache_key(zero, engine, "spa") == key  # budget=0 ≡ None
        assert service._cache_key(budgeted, engine, "spa") != key
        via_wire = QueryRequest.from_payload(json.loads(json.dumps(unset.payload())))
        assert service._cache_key(via_wire, engine, "spa") == key
