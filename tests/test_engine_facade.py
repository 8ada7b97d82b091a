"""One query value.

A :class:`~repro.core.request.QueryRequest` is the same value at every
boundary it crosses: the JSON wire shape, positional coercion at the
public edges, and the service's result-cache key.
"""

from __future__ import annotations

import json
import re

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
    """No located user: ``alpha == 1`` answers like ``bruteforce``,
    ``alpha < 1`` is the documented "no known location" error, and the
    first move indexes the mover.  The grid is built on first use, on a
    live engine and on a restored one alike (a snapshot holds no grid):
    built before the move it starts empty, over the point box at the
    origin, and takes the mover as an insert; built after, it holds the
    mover from the start."""
    from repro import build_dataset, load_engine, save_engine
    from repro.spatial.point import BBox

    dataset = build_dataset("x", n=200, avg_degree=6.0, coverage=0.0, seed=1)
    engine = GeoSocialEngine.from_dataset(dataset)
    assert engine._grid is None and engine.normalization.d_max == 0.0
    restored = load_engine(save_engine(engine, tmp_path / "snap"))
    assert restored._grid is None
    assert len(engine.grid) == 0 and engine.grid.bbox == BBox(0.0, 0.0, 0.0, 0.0)
    for served in (engine, restored):
        for user in (0, 57, 199):
            got = served.query(user, k=10, alpha=1.0)
            want = served.query(user, k=10, alpha=1.0, method="bruteforce")
            assert (got.users, got.scores) == (want.users, want.scores)
        with pytest.raises(ValueError, match="no known location"):
            served.query(3, k=10, alpha=0.5)
        served.move_user(3, 0.25, 0.75)
        assert 3 in served.grid and len(served.grid) == 1
        for method in ("auto", "spa", "sfa"):
            got = served.query(3, k=10, alpha=0.5, method=method)
            want = served.query(3, k=10, alpha=0.5, method="bruteforce")
            assert (got.users, got.scores) == (want.users, want.scores), method
        served.close()
    assert restored.grid.bbox == BBox(0.25, 0.75, 0.25, 0.75)


BAD_BUILD_PARAMETERS = [
    # (keyword, value, the message)
    ("s", -2, "s must be >= 1, got -2"),
    ("s", 0, "s must be >= 1, got 0"),
    ("s", 2.5, "s must be an integer, got 2.5"),
    ("s", True, "s must be an integer, got True"),
    ("num_landmarks", -1, "num_landmarks must be >= 1, got -1"),
    ("num_landmarks", 0, "num_landmarks must be >= 1, got 0"),
    ("num_landmarks", False, "num_landmarks must be an integer, got False"),
    ("landmark_strategy", "bogus",
     "landmark_strategy must be one of ('farthest', 'random', 'degree'), got 'bogus'"),
]


@pytest.mark.parametrize(
    ("keyword", "value", "message"), BAD_BUILD_PARAMETERS,
    ids=[f"{k}={v!r}" for k, v, _ in BAD_BUILD_PARAMETERS],
)
def test_build_parameters_are_checked_at_construction(keyword, value, message):
    """A bad build parameter is a ``ValueError`` naming the field when
    the engine is made, not an unrelated error on the first query that
    builds a lazy index.  More landmarks than users depends on the data
    and stays an error of that build."""
    graph, locations = random_instance(30, seed=5, coverage=0.8)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GeoSocialEngine(graph, locations, **{keyword: value})
    engine = GeoSocialEngine(graph, locations, num_landmarks=31)
    user = engine.located_users()[0]
    assert engine.query(user, k=3, alpha=0.5, method="spa").users
    with pytest.raises(ValueError, match="cannot select 31 landmarks from 30 vertices"):
        engine.query(user, k=3, alpha=0.5, method="ais")


@pytest.mark.parametrize(
    ("value", "message"),
    [
        (-1, "social_cache_bytes must be >= 0, got -1"),
        (True, "social_cache_bytes must be an integer, got True"),
        (2.5, "social_cache_bytes must be an integer, got 2.5"),
    ],
    ids=["negative", "bool", "float"],
)
def test_the_column_budget_is_checked_like_the_service_checks_it(value, message):
    """The engine refuses what :class:`QueryService` refuses, with the
    same words; ``0`` still builds no column cache and ``None`` the
    default one."""
    graph, locations = random_instance(30, seed=5, coverage=0.8)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GeoSocialEngine(graph, locations, num_landmarks=2, social_cache_bytes=value)
    assert GeoSocialEngine(
        graph, locations, num_landmarks=2, social_cache_bytes=0
    ).social_cache is None
    assert GeoSocialEngine(graph, locations, num_landmarks=2).social_cache is not None
