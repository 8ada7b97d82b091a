"""Tests for Contraction Hierarchies, Figure 8's distance module.

Every exactness test reads the path the ``*-ch`` variants call: the
hierarchy's memoised one-source query, checked against Dijkstra."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.ch import ContractionHierarchy, _adjacency
from repro.graph.socialgraph import SocialGraph
from repro.graph.traversal import dijkstra_distances
from tests.conftest import random_graph

INF = math.inf


def check_all_pairs(g, ch, samples=None):
    sources = samples if samples is not None else range(g.n)
    for s in sources:
        truth = dijkstra_distances(g, s)
        for t in range(g.n):
            assert math.isclose(
                ch.distance(s, t), truth.get(t, INF), abs_tol=1e-9
            ), f"pair ({s}, {t})"


def test_path_graph():
    g = SocialGraph.from_edges(5, [(i, i + 1, float(i + 1)) for i in range(4)])
    ch = ContractionHierarchy.build(g)
    check_all_pairs(g, ch)


def test_ranks_are_a_permutation():
    g = random_graph(40, 4.0, seed=61)
    ch = ContractionHierarchy.build(g)
    assert sorted(ch.rank) == list(range(40))


def test_random_graph_all_pairs():
    g = random_graph(45, 4.0, seed=62)
    ch = ContractionHierarchy.build(g)
    check_all_pairs(g, ch)


def test_disconnected_components():
    g = SocialGraph.from_edges(6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)])
    ch = ContractionHierarchy.build(g)
    assert ch.distance(0, 5) == INF
    assert ch.distance(0, 2) == 2.0
    assert ch.distance(3, 5) == 2.0


def test_same_vertex():
    g = random_graph(10, 3.0, seed=63)
    ch = ContractionHierarchy.build(g)
    assert ch.distance(4, 4) == 0.0


def test_tiny_witness_limit_still_correct():
    """Starved witness searches may add extra shortcuts but never lose
    correctness."""
    g = random_graph(35, 4.0, seed=64)
    strict = ContractionHierarchy.build(g, witness_settle_limit=1)
    generous = ContractionHierarchy.build(g, witness_settle_limit=500)
    assert strict.num_shortcuts >= generous.num_shortcuts
    check_all_pairs(g, strict, samples=range(0, 35, 5))


def test_small_core_limit_still_correct():
    """An aggressive core threshold leaves most of the graph
    uncontracted; queries degrade toward Dijkstra but stay exact."""
    g = random_graph(60, 6.0, seed=65)
    ch = ContractionHierarchy.build(g, core_degree_limit=2)
    assert ch.core_size > 0
    check_all_pairs(g, ch, samples=range(0, 60, 10))


def test_zero_core_when_unconstrained():
    g = random_graph(30, 3.0, seed=68)
    ch = ContractionHierarchy.build(g, core_degree_limit=30)
    assert ch.core_size == 0
    assert sorted(ch.rank) == list(range(30))


def test_ch_oracle_caches_forward_state():
    """The hierarchy memoises one source's upward search space, and a
    change of source replaces it."""
    g = random_graph(40, 4.0, seed=70)
    ch = ContractionHierarchy.build(g)
    truth3, truth5 = dijkstra_distances(g, 3), dijkstra_distances(g, 5)
    for t in range(0, 40, 7):
        assert math.isclose(ch.distance(3, t), truth3.get(t, INF), abs_tol=1e-9)
        assert math.isclose(ch.distance(5, t), truth5.get(t, INF), abs_tol=1e-9)
    forward = ch._forward
    ch.distance(5, 1)
    assert ch._forward is forward, "same source: no second upward search"


def test_the_hierarchy_counts_its_pops():
    """Both searches count: the upward one of a new source, and the
    backward one of every target after it."""
    g = random_graph(30, 4.0, seed=66)
    ch = ContractionHierarchy.build(g)
    assert ch.pops == 0
    ch.distance(0, 0)
    upward = ch.pops
    assert upward > 0
    ch.distance(0, 15)
    assert ch.pops > upward


def test_to_adjacency_roundtrip():
    g = SocialGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 4.0)])
    adj = _adjacency(g)
    g2 = SocialGraph.from_edges(
        len(adj), [(u, v, w) for u, row in enumerate(adj) for v, w in row.items() if u < v]
    )
    assert sorted(g2.edges()) == sorted(g.edges())


def test_directed_rejected():
    g = SocialGraph.from_edges(3, [(0, 1, 1.0)], directed=True)
    with pytest.raises(NotImplementedError):
        ContractionHierarchy.build(g)


def test_dense_weighted_graph():
    rng = random.Random(67)
    n = 15
    edges = [
        (u, v, rng.uniform(0.1, 2.0)) for u in range(n) for v in range(u + 1, n)
    ]
    g = SocialGraph.from_edges(n, edges)
    ch = ContractionHierarchy.build(g)
    check_all_pairs(g, ch)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_ch_equals_dijkstra(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 25)
    g = random_graph(n, 3.0, seed=seed % 333)
    ch = ContractionHierarchy.build(g)
    s, t = rng.randrange(n), rng.randrange(n)
    expected = dijkstra_distances(g, s).get(t, INF)
    assert math.isclose(ch.distance(s, t), expected, abs_tol=1e-9)
