"""Integration: every SSRQ algorithm must return the same answer.

This is the central correctness property of the reproduction — all of
SFA / SPA / TSA / TSA-QC / AIS (all variants) / the CH-backed variants /
AIS-Cache implement Definition 1, so on any input their score sequences
must coincide with brute force (users may differ only on exact score
ties at the boundary).
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import GeoSocialEngine
from tests.conftest import ALL_METHODS, assert_same_scores, query_with, random_instance

# "approx" is excluded by construction: it answers from sketches with a
# bounded rank error, so its property is |score - exact| <= error_bound
# (pinned in tests/test_sketch.py), not score equality.
ALL_BUT_BRUTE = [m for m in ALL_METHODS if m not in ("bruteforce", "approx")]


class TestOnSharedEngine:
    @pytest.mark.parametrize("method", ALL_BUT_BRUTE)
    def test_matches_bruteforce_default_alpha(self, small_engine, query_users, method):
        for user in query_users:
            expected = small_engine.query(user, k=10, alpha=0.3, method="bruteforce")
            got = query_with(small_engine, user, k=10, alpha=0.3, method=method, t=50)
            assert_same_scores(expected, got)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("method", ["sfa", "spa", "tsa", "tsa-qc", "ais"])
    def test_alpha_sweep(self, small_engine, query_users, alpha, method):
        for user in query_users[:4]:
            expected = small_engine.query(user, k=8, alpha=alpha, method="bruteforce")
            got = small_engine.query(user, k=8, alpha=alpha, method=method)
            assert_same_scores(expected, got)

    @pytest.mark.parametrize("k", [1, 5, 40])
    def test_k_sweep(self, small_engine, query_users, k):
        for user in query_users[:3]:
            expected = small_engine.query(user, k=k, alpha=0.3, method="bruteforce")
            for method in ("sfa", "spa", "tsa", "ais", "ais-bid"):
                got = query_with(small_engine, user, k=k, alpha=0.3, method=method)
                assert_same_scores(expected, got)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_endpoint_alphas_route_and_agree(self, small_engine, query_users, alpha):
        for user in query_users[:3]:
            expected = small_engine.query(user, k=10, alpha=alpha, method="bruteforce")
            for method in ("sfa", "spa", "tsa", "tsa-qc", "ais"):
                got = small_engine.query(user, k=10, alpha=alpha, method=method)
                assert_same_scores(expected, got)

    def test_k_larger_than_finite_population(self, small_engine, query_users):
        user = query_users[0]
        expected = small_engine.query(user, k=5000, alpha=0.3, method="bruteforce")
        for method in ("sfa", "spa", "tsa", "ais"):
            got = small_engine.query(user, k=5000, alpha=0.3, method=method)
            assert_same_scores(expected, got)

    def test_results_exclude_query_user(self, small_engine, query_users):
        for method in ALL_BUT_BRUTE:
            result = query_with(small_engine, query_users[0], k=20, alpha=0.3, method=method, t=50)
            assert query_users[0] not in result.users

    def test_results_sorted_by_score(self, small_engine, query_users):
        for method in ALL_BUT_BRUTE:
            result = query_with(small_engine, query_users[1], k=20, alpha=0.3, method=method, t=50)
            scores = result.scores
            assert scores == sorted(scores)


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_random_instances_agree(seed):
    """Random graphs, partial coverage, random query users, random
    parameters: all methods equal brute force."""
    rng = random.Random(seed)
    n = rng.randint(20, 90)
    coverage = rng.choice([0.5, 0.8, 1.0])
    graph, locations = random_instance(n, seed % 5000, coverage=coverage)
    engine = GeoSocialEngine(
        graph, locations, num_landmarks=min(3, n), s=3, seed=seed % 11
    )
    located = list(locations.located_users())
    if not located:
        return
    user = rng.choice(located)
    k = rng.choice([1, 3, 10])
    alpha = rng.choice([0.1, 0.3, 0.7])
    expected = engine.query(user, k=k, alpha=alpha, method="bruteforce")
    for method in ("sfa", "spa", "tsa", "tsa-plain", "tsa-qc", "ais", "ais-minus", "ais-bid", "ais-nosummary"):
        got = query_with(engine, user, k=k, alpha=alpha, method=method)
        assert_same_scores(expected, got)


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_ch_variants_agree(seed):
    """CH-backed variants (heavier preprocessing) on smaller instances."""
    rng = random.Random(seed)
    n = rng.randint(15, 40)
    graph, locations = random_instance(n, seed % 5000, coverage=0.9)
    engine = GeoSocialEngine(graph, locations, num_landmarks=min(3, n), s=3, seed=1)
    located = list(locations.located_users())
    if not located:
        return
    user = rng.choice(located)
    expected = engine.query(user, k=5, alpha=0.3, method="bruteforce")
    for method in ("sfa-ch", "spa-ch", "tsa-ch", "ais-cache"):
        got = query_with(engine, user, k=5, alpha=0.3, method=method, t=8)
        assert_same_scores(expected, got)
