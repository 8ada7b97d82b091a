"""Tests for location assignment strategies."""

import math

import pytest

from repro.datasets.locations import (
    apply_coverage,
    clustered_locations,
    correlated_locations,
    permuted_locations,
)
from repro.graph.traversal import dijkstra_distances
from repro.spatial.point import LocationTable, euclidean
from repro.utils.rng import make_rng
from tests.conftest import random_graph

INF = math.inf


def uniform_table(n, seed):
    """``n`` locations uniform over the unit square."""
    rng = make_rng(seed)
    xs = [rng.random() for _ in range(n)]
    return LocationTable.from_columns(xs, [rng.random() for _ in range(n)])


def pearson(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    vx = math.sqrt(sum((a - mx) ** 2 for a in xs))
    vy = math.sqrt(sum((b - my) ** 2 for b in ys))
    return cov / (vx * vy) if vx and vy else 0.0


class TestBasicGenerators:
    def test_clustered_is_clustered(self):
        """Clustered layout must concentrate mass locally: the mean
        nearest-neighbour distance is far below the uniform layout's."""

        def mean_nn_distance(table, sample=120):
            total = 0.0
            users = list(table.located_users())[:sample]
            for u in users:
                total += min(table.distance(u, v) for v in table.located_users() if v != u)
            return total / len(users)

        clustered = clustered_locations(400, clusters=5, spread=0.02, seed=2)
        uniform = uniform_table(400, seed=2)
        assert mean_nn_distance(clustered) < mean_nn_distance(uniform) * 0.6

    def test_clustered_validation(self):
        with pytest.raises(ValueError):
            clustered_locations(10, clusters=0)
        with pytest.raises(ValueError):
            clustered_locations(10, spread=0.0)

    def test_coverage_fraction(self):
        table = apply_coverage(uniform_table(1000, seed=4), 0.6, seed=5)
        assert table.n_located == 600

    def test_coverage_validation(self):
        with pytest.raises(ValueError):
            apply_coverage(uniform_table(10, seed=1), 1.5)

    def test_permutation_preserves_multiset(self):
        table = uniform_table(50, seed=6)
        shuffled = permuted_locations(table, seed=7)
        original = sorted((table.xs[u], table.ys[u]) for u in table.located_users())
        permuted = sorted((shuffled.xs[u], shuffled.ys[u]) for u in shuffled.located_users())
        assert original == permuted
        assert shuffled.n_located == table.n_located


class TestCorrelatedLocations:
    @pytest.fixture(scope="class")
    def graph(self):
        return random_graph(300, 6.0, seed=8)

    def _correlation(self, graph, table, anchor):
        social = dijkstra_distances(graph, anchor)
        xs, ys = [], []
        ax, ay = table.get(anchor)
        for v, p in social.items():
            if v == anchor or not table.has_location(v):
                continue
            xs.append(p)
            ys.append(euclidean(*table.get(v), ax, ay))
        return pearson(xs, ys)

    def test_positive_correlation(self, graph):
        table = correlated_locations(graph, anchor=0, rho=1.0, seed=9)
        assert self._correlation(graph, table, 0) > 0.5

    def test_negative_correlation(self, graph):
        table = correlated_locations(graph, anchor=0, rho=-1.0, seed=9)
        assert self._correlation(graph, table, 0) < -0.5

    def test_independent_after_permutation(self, graph):
        table = permuted_locations(
            correlated_locations(graph, anchor=0, rho=1.0, seed=9), seed=10
        )
        assert abs(self._correlation(graph, table, 0)) < 0.3

    def test_anchor_at_center(self, graph):
        table = correlated_locations(graph, anchor=0, rho=1.0, seed=9)
        assert table.get(0) == (0.5, 0.5)

    def test_rho_zero_rejected(self, graph):
        with pytest.raises(ValueError):
            correlated_locations(graph, anchor=0, rho=0.0)

    def test_unreachable_vertices_unlocated(self):
        from repro.graph.socialgraph import SocialGraph

        g = SocialGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        table = correlated_locations(g, anchor=0, rho=1.0, seed=11)
        assert table.has_location(1)
        assert not table.has_location(2)
        assert not table.has_location(3)
