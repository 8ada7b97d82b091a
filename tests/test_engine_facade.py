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


def test_an_engine_over_a_table_with_no_located_user_builds_and_answers(tmp_path):
    """No located user: the grid starts empty, ``alpha == 1`` answers
    like ``bruteforce``, ``alpha < 1`` is the documented "no known
    location" error, the first move indexes the mover, and a snapshot
    round-trips the empty grid."""
    from repro import build_dataset, load_engine, save_engine

    dataset = build_dataset("x", n=200, avg_degree=6.0, coverage=0.0, seed=1)
    engine = GeoSocialEngine.from_dataset(dataset)
    assert len(engine.grid) == 0 and engine.normalization.d_max == 0.0
    restored = load_engine(save_engine(engine, tmp_path / "snap"))
    assert len(restored.grid) == 0 and restored.grid.bbox == engine.grid.bbox
    for served in (engine, restored):
        for user in (0, 57, 199):
            got = served.query(user, k=10, alpha=1.0)
            want = served.query(user, k=10, alpha=1.0, method="bruteforce")
            assert (got.users, got.scores) == (want.users, want.scores)
        with pytest.raises(ValueError, match="no known location"):
            served.query(3, k=10, alpha=0.5)
        served.move_user(3, 0.25, 0.75)
        assert 3 in served.grid
        for method in ("auto", "spa", "sfa"):
            got = served.query(3, k=10, alpha=0.5, method=method)
            want = served.query(3, k=10, alpha=0.5, method="bruteforce")
            assert (got.users, got.scores) == (want.users, want.scores), method
        served.close()
