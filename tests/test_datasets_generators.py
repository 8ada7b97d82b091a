"""Tests for the social-graph generators and edge weighting."""

import pytest

from repro.datasets.generators import barabasi_albert_array, erdos_renyi_edges
from repro.datasets.weights import degree_product_column
from repro.graph.socialgraph import SocialGraph
from repro.graph.traversal import hop_counts


def barabasi_albert(n, m_attach, seed=0):
    return [tuple(edge) for edge in barabasi_albert_array(n, m_attach, seed).tolist()]


def weighted(n, edges):
    us, vs = zip(*edges)
    return list(zip(us, vs, degree_product_column(n, us, vs).tolist()))


def degrees(n, edges):
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


class TestBarabasiAlbert:
    def test_average_degree_close_to_2m(self):
        edges = barabasi_albert(2000, 5, seed=1)
        avg = 2 * len(edges) / 2000
        assert 8.0 <= avg <= 11.0

    def test_heavy_tail(self):
        """Preferential attachment must create hubs: the max degree far
        exceeds the average."""
        edges = barabasi_albert(3000, 4, seed=2)
        deg = degrees(3000, edges)
        avg = sum(deg) / len(deg)
        assert max(deg) > 5 * avg

    def test_connected(self):
        edges = barabasi_albert(500, 3, seed=3)
        g = SocialGraph.from_edges(500, [(u, v, 1.0) for u, v in edges])
        assert len(hop_counts(g, 0)) == 500

    def test_deterministic(self):
        assert barabasi_albert(100, 3, seed=7) == barabasi_albert(100, 3, seed=7)

    def test_no_duplicates_or_loops(self):
        edges = barabasi_albert(300, 4, seed=4)
        assert len(edges) == len(set(edges))
        assert all(u < v for u, v in edges)

    def test_validation(self):
        with pytest.raises(ValueError):
            barabasi_albert(5, 0)
        with pytest.raises(ValueError):
            barabasi_albert(3, 5)


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
        for u, v, w in weighted(4, edges):
            assert w == pytest.approx((3 * 1) / 9)

    def test_weights_in_unit_interval(self):
        edges = barabasi_albert(300, 4, seed=5)
        assert all(0 < w <= 1 for _, _, w in weighted(300, edges))

    def test_hub_edges_weaker(self):
        """Edges between hubs must have larger weight (looser ties) than
        edges between low-degree vertices."""
        edges = barabasi_albert(500, 3, seed=6)
        deg = degrees(500, edges)
        by_product = sorted(weighted(500, edges), key=lambda e: deg[e[0]] * deg[e[1]])
        assert by_product[0][2] < by_product[-1][2]

    def test_empty_graph(self):
        assert degree_product_column(5, [], []).tolist() == []
