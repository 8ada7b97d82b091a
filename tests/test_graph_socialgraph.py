"""Unit tests for the CSR social graph."""

import math

import pytest

from repro.graph.socialgraph import SocialGraph

TRIANGLE = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 4.0)]


class TestConstruction:
    def test_from_edges_undirected_stores_both_directions(self):
        g = SocialGraph.from_edges(3, TRIANGLE)
        assert sorted(dict(g.neighbors(0)).items()) == [(1, 1.0), (2, 4.0)]
        assert sorted(dict(g.neighbors(1)).items()) == [(0, 1.0), (2, 2.0)]
        assert g.num_edges == 3

    def test_directed_keeps_one_direction(self):
        g = SocialGraph.from_edges(2, [(0, 1, 1.0)], directed=True)
        assert dict(g.neighbors(0)) == {1: 1.0}
        assert dict(g.neighbors(1)) == {}

    def test_duplicate_edges_keep_min_weight(self):
        g = SocialGraph.from_edges(2, [(0, 1, 5.0), (1, 0, 2.0)])
        assert g.edge_weight(0, 1) == 2.0
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            SocialGraph.from_edges(2, [(1, 1, 1.0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SocialGraph.from_edges(2, [(0, 5, 1.0)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            SocialGraph.from_edges(2, [(0, 1, 0.0)])
        with pytest.raises(ValueError):
            SocialGraph.from_edges(2, [(0, 1, -3.0)])

    def test_isolated_vertices_allowed(self):
        g = SocialGraph.from_edges(5, [(0, 1, 1.0)])
        assert g.degree(4) == 0
        assert g.n == 5


class TestAccessors:
    def test_degree_and_average(self):
        g = SocialGraph.from_edges(3, TRIANGLE)
        assert g.degree(0) == 2
        assert g.average_degree == pytest.approx(2.0)
        assert g.max_degree == 2

    def test_has_edge_and_weight(self):
        g = SocialGraph.from_edges(3, TRIANGLE)
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 1) if g.n else True
        assert g.edge_weight(1, 2) == 2.0
        assert g.edge_weight(0, 0) is None

    def test_edges_iterates_each_once(self):
        g = SocialGraph.from_edges(3, TRIANGLE)
        assert sorted(g.edges()) == sorted(TRIANGLE)

    def test_reverse_directed(self):
        g = SocialGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)], directed=True)
        rev = g.reverse()
        assert dict(rev.neighbors(1)) == {0: 1.0}
        assert dict(rev.neighbors(2)) == {1: 2.0}

    def test_reverse_undirected_is_self(self):
        g = SocialGraph.from_edges(3, TRIANGLE)
        assert g.reverse() is g


class TestDerived:
    def test_to_adjacency_roundtrip(self):
        g = SocialGraph.from_edges(3, TRIANGLE)
        adj = g.to_adjacency()
        g2 = SocialGraph.from_adjacency(adj)
        assert sorted(g2.edges()) == sorted(g.edges())

    def test_subgraph_relabels_and_keeps_internal_edges(self):
        g = SocialGraph.from_edges(4, TRIANGLE + [(2, 3, 1.0)])
        sub, mapping = g.subgraph([0, 1, 3])
        assert sub.n == 3
        # Only the (0,1) edge survives; 3 connects to 2 which is absent.
        assert sorted(sub.edges()) == [(mapping[0], mapping[1], 1.0)]

    def test_with_edge_update_change_weight(self):
        g = SocialGraph.from_edges(3, TRIANGLE)
        # either orientation names the one undirected edge
        g2 = g.with_edge_updates({(1, 0): 9.0})
        assert g2.edge_weight(0, 1) == g2.edge_weight(1, 0) == 9.0
        assert g2.num_edges == 3
        assert g.edge_weight(0, 1) == 1.0  # original untouched

    def test_with_edge_update_insert_and_delete(self):
        g = SocialGraph.from_edges(3, [(0, 1, 1.0)])
        # one batch: insert, delete, and a delete of an absent edge
        g2 = g.with_edge_updates({(1, 2): 0.5, (0, 1): None, (0, 2): None})
        assert sorted(g2.edges()) == [(1, 2, 0.5)]
        assert sorted(g.with_edge_updates({}).edges()) == [(0, 1, 1.0)]

    def test_with_edge_updates_directed_keeps_orientations_apart(self):
        g = SocialGraph.from_edges(3, [(0, 1, 1.0), (1, 0, 2.0)], directed=True)
        g2 = g.with_edge_updates({(1, 0): None, (2, 1): 0.5})
        assert sorted(g2.edges()) == [(0, 1, 1.0), (2, 1, 0.5)]
        assert g2.directed

    @pytest.mark.parametrize(
        "update", [{(0, 0): 1.0}, {(0, 3): 1.0}, {(0, 1): 0.0}, {(0, 1): math.inf}]
    )
    def test_with_edge_updates_checks_like_from_edges(self, update):
        g = SocialGraph.from_edges(3, TRIANGLE)
        with pytest.raises(ValueError):
            g.with_edge_updates(update)

    def test_repr_mentions_size(self):
        g = SocialGraph.from_edges(3, TRIANGLE)
        assert "n=3" in repr(g)
