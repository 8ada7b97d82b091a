"""Tests for landmark selection and ALT bound validity."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.landmarks import LandmarkIndex
from repro.graph.socialgraph import SocialGraph
from repro.graph.traversal import dijkstra_distances
from tests.conftest import random_graph

INF = math.inf


def chosen(g, m, strategy="farthest", seed=0):
    return LandmarkIndex.build(g, m, strategy, seed).landmarks


class TestSelection:
    def test_requested_count(self):
        g = random_graph(50, 4.0, seed=1)
        for strategy in ("random", "farthest", "degree"):
            assert len(chosen(g, 5, strategy, seed=3)) == 5

    def test_landmarks_are_distinct(self):
        g = random_graph(50, 4.0, seed=1)
        marks = chosen(g, 8, "farthest")
        assert len(set(marks)) == 8

    def test_degree_strategy_picks_hubs(self):
        g = random_graph(60, 5.0, seed=2)
        marks = chosen(g, 3, "degree")
        degrees = sorted((g.degree(v) for v in range(g.n)), reverse=True)
        assert sorted((g.degree(v) for v in marks), reverse=True) == degrees[:3]

    def test_unknown_strategy(self):
        g = random_graph(10, 3.0, seed=1)
        with pytest.raises(ValueError):
            chosen(g, 2, "mystery")

    def test_too_many_landmarks(self):
        g = random_graph(10, 3.0, seed=1)
        with pytest.raises(ValueError):
            chosen(g, 11)

    def test_deterministic(self):
        g = random_graph(40, 4.0, seed=5)
        assert chosen(g, 4, "farthest", 1) == chosen(g, 4, "farthest", 1)
        assert chosen(g, 4, "random", 1) == chosen(g, 4, "random", 1)


class TestBounds:
    @pytest.fixture(scope="class")
    def setup(self):
        g = random_graph(70, 5.0, seed=7)
        lm = LandmarkIndex.build(g, m=4, seed=7)
        truth = {v: dijkstra_distances(g, v) for v in range(0, 70, 7)}
        return g, lm, truth

    def test_lower_bound_is_valid(self, setup):
        g, lm, truth = setup
        for u, dist in truth.items():
            for v in range(g.n):
                true_d = dist.get(v, INF)
                assert lm.lower_bound(u, v) <= true_d + 1e-9

    def test_bound_of_self_is_zero(self, setup):
        _, lm, _ = setup
        assert lm.lower_bound(3, 3) == 0.0

    def test_heuristic_matches_lower_bound(self, setup):
        g, lm, _ = setup
        h = lm.heuristic_to(11)
        for v in range(g.n):
            assert h(v) == lm.lower_bound(v, 11)

    def test_disconnected_pair_bound_is_inf(self):
        g = SocialGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        lm = LandmarkIndex(g, [0])
        assert lm.lower_bound(0, 2) == INF
        assert lm.lower_bound(2, 3) == 0.0  # same component as each other,
        # but landmark 0 unreachable from both: uninformative, bound 0

    def test_vector_matches_tables(self):
        g = random_graph(30, 4.0, seed=9)
        lm = LandmarkIndex.build(g, m=3, seed=9)
        vec = lm.vector(5)
        for j in range(3):
            assert vec[j] == lm.dist[j][5]


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_triangle_bounds(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 30)
    g = random_graph(n, 3.0, seed=seed % 999)
    lm = LandmarkIndex.build(g, m=min(3, n), seed=seed % 7)
    u, v = rng.randrange(n), rng.randrange(n)
    true_d = dijkstra_distances(g, u).get(v, INF)
    assert lm.lower_bound(u, v) <= true_d + 1e-9
