"""Tests for Forest-Fire sampling."""

import pytest

from repro.datasets.forest_fire import forest_fire_sample
from repro.graph.traversal import hop_counts
from tests.conftest import random_graph


def test_sample_size_exact():
    g = random_graph(300, 6.0, seed=21)
    sub, mapping = forest_fire_sample(g, 80, seed=1)
    assert sub.n == 80
    assert len(mapping) == 80


def test_mapping_is_bijection_into_subgraph():
    g = random_graph(200, 5.0, seed=22)
    sub, mapping = forest_fire_sample(g, 50, seed=2)
    assert sorted(mapping.values()) == list(range(50))


def test_edges_preserved_between_sampled_vertices():
    g = random_graph(150, 5.0, seed=23)
    sub, mapping = forest_fire_sample(g, 60, seed=3)
    inverse = {new: old for old, new in mapping.items()}
    for u, v, w in sub.edges():
        assert g.edge_weight(inverse[u], inverse[v]) == w


def test_sample_connectedness_dominates():
    """Forest fire burns contiguously: the sample's giant component
    should cover the bulk of the sampled vertices."""
    g = random_graph(400, 6.0, seed=24)
    sub, _ = forest_fire_sample(g, 120, seed=4)
    best = max(len(hop_counts(sub, v)) for v in range(0, 120, 17))
    assert best >= 0.5 * sub.n


def test_full_sample_is_whole_graph():
    g = random_graph(50, 4.0, seed=25)
    sub, _ = forest_fire_sample(g, 50, seed=5)
    assert sub.n == 50
    assert sub.num_edges == g.num_edges


def test_deterministic():
    g = random_graph(100, 5.0, seed=26)
    a = forest_fire_sample(g, 30, seed=6)
    b = forest_fire_sample(g, 30, seed=6)
    assert a[1] == b[1]


def test_validation():
    g = random_graph(20, 3.0, seed=27)
    with pytest.raises(ValueError):
        forest_fire_sample(g, 0)
    with pytest.raises(ValueError):
        forest_fire_sample(g, 21)
