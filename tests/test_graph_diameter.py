"""Tests for diameter estimation."""

import math
import random

import networkx as nx
import numpy as np

from repro.backend import NumpyKernels
from repro.graph.diameter import double_sweep_diameter
from repro.graph.socialgraph import SocialGraph
from tests.conftest import random_graph


def exact_weighted_diameter(g: SocialGraph) -> float:
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    for u, v, w in g.edges():
        nxg.add_edge(u, v, weight=w)
    best = 0.0
    for source in range(g.n):
        lengths = nx.single_source_dijkstra_path_length(nxg, source)
        best = max(best, max(lengths.values()))
    return best


def test_path_graph_exact():
    g = SocialGraph.from_edges(5, [(i, i + 1, 1.0) for i in range(4)])
    assert double_sweep_diameter(g) == 4.0


def test_lower_bounds_true_diameter():
    g = random_graph(60, 4.0, seed=71)
    estimate = double_sweep_diameter(g, seed=1)
    exact = exact_weighted_diameter(g)
    assert estimate <= exact + 1e-9
    # Double sweep is empirically tight; require at least half.
    assert estimate >= exact / 2


def test_positive_on_connected_graph():
    g = random_graph(30, 4.0, seed=72)
    assert double_sweep_diameter(g) > 0


def test_deterministic_for_seed():
    g = random_graph(40, 4.0, seed=73)
    assert double_sweep_diameter(g, seed=5) == double_sweep_diameter(g, seed=5)


def test_disconnected_graph_uses_finite_distances():
    g = SocialGraph.from_edges(5, [(0, 1, 2.0), (2, 3, 1.0), (3, 4, 1.0)])
    est = double_sweep_diameter(g, seed=0)
    assert est in (2.0, 1.0, 2.0) or 0 < est <= 2.0
    assert math.isfinite(est)


def test_empty_graph():
    g = SocialGraph.from_edges(0, [])
    assert double_sweep_diameter(g) == 0.0


def test_edgeless_graph():
    g = SocialGraph.from_edges(3, [])
    assert double_sweep_diameter(g) == 0.0


def random_digraph(seed: int, n: int = 40) -> SocialGraph:
    """``n`` users and ``2n`` random arcs: sinks and out-edgeless
    starts are common."""
    rng = random.Random(seed)
    arcs = [(*rng.sample(range(n), 2), rng.uniform(0.05, 1.0)) for _ in range(2 * n)]
    return SocialGraph.from_edges(n, arcs, directed=True)


def test_digraphs_with_arcs_get_a_positive_estimate_below_the_diameter():
    """A sweep from a sink (or a start with no out-edge) reaches
    nobody; the estimate counts both halves of every sweep and moves
    an out-edgeless start on, so no digraph with an arc reads 0."""
    kernels = NumpyKernels()
    zeros = []
    for seed in range(60):
        g = random_digraph(seed)
        estimate = double_sweep_diameter(g)
        exact = max(
            float(np.max(column[np.isfinite(column)]))
            for column in (kernels.sssp_column(g, v) for v in range(g.n))
        )
        assert estimate <= exact, seed
        if estimate == 0:
            zeros.append(seed)
    assert zeros == []
