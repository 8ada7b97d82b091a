"""Tests for the social-graph generators and edge weighting."""

import pytest

from repro.datasets.generators import (
    barabasi_albert_edges,
    erdos_renyi_edges,
    watts_strogatz_edges,
)
from repro.datasets.weights import degree_product_weights
from repro.graph.socialgraph import SocialGraph
from repro.graph.traversal import hop_counts


def degrees(n, edges):
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


class TestBarabasiAlbert:
    def test_average_degree_close_to_2m(self):
        edges = barabasi_albert_edges(2000, 5, seed=1)
        avg = 2 * len(edges) / 2000
        assert 8.0 <= avg <= 11.0

    def test_heavy_tail(self):
        """Preferential attachment must create hubs: the max degree far
        exceeds the average."""
        edges = barabasi_albert_edges(3000, 4, seed=2)
        deg = degrees(3000, edges)
        avg = sum(deg) / len(deg)
        assert max(deg) > 5 * avg

    def test_connected(self):
        edges = barabasi_albert_edges(500, 3, seed=3)
        g = SocialGraph.from_edges(500, [(u, v, 1.0) for u, v in edges])
        assert len(hop_counts(g, 0)) == 500

    def test_deterministic(self):
        assert barabasi_albert_edges(100, 3, seed=7) == barabasi_albert_edges(100, 3, seed=7)

    def test_no_duplicates_or_loops(self):
        edges = barabasi_albert_edges(300, 4, seed=4)
        assert len(edges) == len(set(edges))
        assert all(u < v for u, v in edges)

    def test_validation(self):
        with pytest.raises(ValueError):
            barabasi_albert_edges(5, 0)
        with pytest.raises(ValueError):
            barabasi_albert_edges(3, 5)


class TestWattsStrogatz:
    def test_degree_preserved_in_lattice(self):
        edges = watts_strogatz_edges(100, 6, beta=0.0, seed=1)
        deg = degrees(100, edges)
        assert all(d == 6 for d in deg)

    def test_rewiring_changes_edges(self):
        lattice = watts_strogatz_edges(200, 4, beta=0.0, seed=2)
        rewired = watts_strogatz_edges(200, 4, beta=0.5, seed=2)
        assert set(lattice) != set(rewired)

    def test_validation(self):
        with pytest.raises(ValueError):
            watts_strogatz_edges(10, 3, 0.1)  # odd k
        with pytest.raises(ValueError):
            watts_strogatz_edges(4, 6, 0.1)  # k >= n
        with pytest.raises(ValueError):
            watts_strogatz_edges(10, 2, 1.5)  # bad beta


class TestErdosRenyi:
    def test_edge_count(self):
        edges = erdos_renyi_edges(100, 6.0, seed=1)
        assert len(edges) == 300

    def test_validation(self):
        with pytest.raises(ValueError):
            erdos_renyi_edges(10, 0.0)
        with pytest.raises(ValueError):
            erdos_renyi_edges(4, 10.0)


class TestWeights:
    def test_degree_product_formula(self):
        # star: center 0 with 3 leaves; max degree 3.
        edges = [(0, 1), (0, 2), (0, 3)]
        weighted = degree_product_weights(4, edges)
        for u, v, w in weighted:
            assert w == pytest.approx((3 * 1) / 9)

    def test_weights_in_unit_interval(self):
        edges = barabasi_albert_edges(300, 4, seed=5)
        weighted = degree_product_weights(300, edges)
        assert all(0 < w <= 1 for _, _, w in weighted)

    def test_hub_edges_weaker(self):
        """Edges between hubs must have larger weight (looser ties) than
        edges between low-degree vertices."""
        edges = barabasi_albert_edges(500, 3, seed=6)
        deg = degrees(500, edges)
        weighted = degree_product_weights(500, edges)
        by_product = sorted(weighted, key=lambda e: deg[e[0]] * deg[e[1]])
        assert by_product[0][2] < by_product[-1][2]

    def test_empty_graph(self):
        assert degree_product_weights(5, []) == []
