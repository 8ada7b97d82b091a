"""Shared fixtures and helpers for the SSRQ test suite."""

from __future__ import annotations

import math
import random

import pytest

from repro.bench.variants import VARIANTS, run_query
from repro.core.engine import METHODS, GeoSocialEngine
from repro.core.ranking import Normalization, RankingFunction
from repro.core.request import QueryRequest
from repro.core.result import SSRQResult
from repro.datasets.generators import erdos_renyi_edges
from repro.datasets.synthetic import GeoSocialDataset, build_dataset
from repro.graph.socialgraph import SocialGraph
from repro.spatial.point import LocationTable

INF = math.inf

#: every method a single engine answers Definition 1 with: the served
#: table plus the reproduction tier's figure-only variants
ALL_METHODS = METHODS + tuple(VARIANTS)


def query_with(engine, user, k, alpha, method, t=None) -> SSRQResult:
    """``engine.query`` spelled so that ``method`` may also name a
    :mod:`repro.bench.variants` variant (``t``: ``ais-cache``'s list
    length) — how the single-engine suites keep every variant pinned
    to bruteforce."""
    return run_query(engine, method, user, k, alpha, t)


def requests(users, **params) -> "list[QueryRequest]":
    """One ``QueryRequest`` per user — what request-only batch APIs
    (``ProcessScatterPool.query_many``) take."""
    return [QueryRequest(user, **params) for user in users]


def random_graph(n: int, avg_degree: float, seed: int) -> SocialGraph:
    """Small random weighted graph (uniform weights in (0, 1]).

    ``avg_degree`` is clamped to what ``n`` vertices can support, so
    property tests may pass arbitrary sizes.
    """
    avg_degree = min(avg_degree, max(n - 1, 0))
    if n < 2 or avg_degree <= 0:
        return SocialGraph.from_edges(n, [])
    rng = random.Random(seed)
    edges = [
        (u, v, rng.uniform(0.05, 1.0)) for u, v in erdos_renyi_edges(n, avg_degree, seed)
    ]
    return SocialGraph.from_edges(n, edges)


def random_locations(n: int, seed: int, coverage: float = 1.0) -> LocationTable:
    rng = random.Random(seed)
    table = LocationTable.empty(n)
    for u in range(n):
        if rng.random() < coverage:
            table.set(u, rng.random(), rng.random())
    return table


def random_instance(n: int, seed: int, coverage: float = 1.0, avg_degree: float = 6.0):
    """A (graph, locations) pair for randomized correctness tests."""
    return random_graph(n, avg_degree, seed), random_locations(n, seed + 1, coverage)


def assert_same_scores(result_a, result_b, tol: float = 1e-9) -> None:
    """Two SSRQ results are equivalent iff their score sequences match
    (ties at the boundary may legitimately pick different users)."""
    scores_a = [nb.score for nb in result_a]
    scores_b = [nb.score for nb in result_b]
    assert len(scores_a) == len(scores_b), (
        f"result sizes differ: {len(scores_a)} vs {len(scores_b)}\n{scores_a}\n{scores_b}"
    )
    for i, (a, b) in enumerate(zip(scores_a, scores_b)):
        assert abs(a - b) <= tol, f"score {i} differs: {a} vs {b}"


def cache_put(cache, user, k, alpha, method, neighbors, norm=(1.0, 1.0)):
    """Store a hand-built result in a :class:`ResultCache` the way the
    service does (service-shaped key, resolved request, the ranking
    function of ``norm = (P_max, D_max)``); returns the key."""
    key = (user, k, alpha, method, norm, None)
    cache.put(
        key,
        QueryRequest(user, k=k, alpha=alpha, method=method),
        RankingFunction(alpha, Normalization(*norm)),
        SSRQResult(user, k, alpha, list(neighbors), method=method),
    )
    return key


@pytest.fixture(scope="session")
def small_dataset() -> GeoSocialDataset:
    """A ~600-user calibrated dataset with partial location coverage."""
    return build_dataset("test-small", n=600, avg_degree=8.0, coverage=0.7, seed=42)


@pytest.fixture(scope="session")
def small_engine(small_dataset) -> GeoSocialEngine:
    return GeoSocialEngine.from_dataset(small_dataset, num_landmarks=4, s=5, seed=1)


@pytest.fixture(scope="session")
def query_users(small_engine) -> list[int]:
    """A deterministic sample of located query users."""
    located = list(small_engine.locations.located_users())
    rng = random.Random(9)
    return rng.sample(located, 8)
