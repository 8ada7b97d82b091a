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
    QueryRequest(3, k=7, alpha=0.5, method="auto"),
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
    """Every answer is exact, so the key is the question and the line
    alone: ``(user, k, α, line, normalization)``, with no accuracy
    component to tell two exact requests apart."""
    graph, locations = random_instance(60, seed=11, coverage=0.9)
    engine = GeoSocialEngine(graph, locations, num_landmarks=2, s=3, seed=1)
    with QueryService(engine, cache_size=8) as service:
        request = QueryRequest(3, k=7, alpha=0.5, method="spa")
        key = service._cache_key(request, engine, "spa")
        norm = engine.normalization
        assert key == (3, 7, 0.5, "spa", (norm.p_max, norm.d_max))
        via_wire = QueryRequest.from_payload(json.loads(json.dumps(request.payload())))
        assert service._cache_key(via_wire, engine, "spa") == key
        assert QueryRequest.coerce(3, 7, 0.5, "spa") == request
