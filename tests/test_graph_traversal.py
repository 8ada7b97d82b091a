"""Tests for Dijkstra iteration and path utilities, cross-checked
against networkx."""

import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.socialgraph import SocialGraph
from repro.graph.traversal import DijkstraIterator, dijkstra_distances, hop_counts
from tests.conftest import random_graph

INF = math.inf


def to_networkx(graph: SocialGraph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    for u, v, w in graph.edges():
        g.add_edge(u, v, weight=w)
    return g


PATH = SocialGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])


class TestDijkstraIterator:
    def test_settles_in_distance_order(self):
        g = random_graph(60, 4.0, seed=1)
        it = DijkstraIterator(g, 0)
        prev = -1.0
        while True:
            item = it.next()
            if item is None:
                break
            assert item[1] >= prev
            prev = item[1]

    def test_source_settles_first_at_zero(self):
        it = DijkstraIterator(PATH, 2)
        assert it.next() == (2, 0.0)

    def test_matches_networkx(self):
        g = random_graph(80, 5.0, seed=2)
        expected = nx.single_source_dijkstra_path_length(to_networkx(g), 7)
        got = dijkstra_distances(g, 7)
        assert set(got) == set(expected)
        for v, d in expected.items():
            assert math.isclose(got[v], d, abs_tol=1e-9)

    def test_run_until_returns_exact_distance(self):
        g = random_graph(50, 4.0, seed=3)
        it = DijkstraIterator(g, 0)
        expected = nx.single_source_dijkstra_path_length(to_networkx(g), 0)
        for target in sorted(expected):
            assert math.isclose(it.run_until(target), expected[target], abs_tol=1e-9)

    def test_run_until_unreachable_is_inf(self):
        g = SocialGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        assert DijkstraIterator(g, 0).run_until(3) == INF

    def test_resumable_interleaving(self):
        g = random_graph(40, 4.0, seed=4)
        it = DijkstraIterator(g, 0)
        a = it.next()
        b = it.next()
        full = dijkstra_distances(g, 0)
        assert a[1] <= b[1]
        it.run_to_completion()
        assert it.settled == full

    def test_last_distance_tracks_frontier(self):
        it = DijkstraIterator(PATH, 0)
        assert it.last_distance == 0.0
        it.next()  # source
        it.next()
        assert it.last_distance == 1.0

    def test_path_to(self):
        it = DijkstraIterator(PATH, 0)
        assert it.run_until(3) == 3.0
        assert it.path_to(3) == [0, 1, 2, 3]

    def test_path_to_unsettled_raises(self):
        it = DijkstraIterator(PATH, 0)
        with pytest.raises(KeyError):
            it.path_to(3)

    def test_invalid_source(self):
        with pytest.raises(ValueError):
            DijkstraIterator(PATH, 9)


class TestPauseResumeContracts:
    """The pause/resume contracts the paper's incremental searchers
    lean on: SPA and TSA advance one expansion across many
    ``run_until``/``next`` calls, and the social column cache
    (:mod:`repro.social`) promotes it to a column once exhausted, so a
    paused expansion must behave exactly like one that never paused."""

    def test_run_until_settled_target_is_idempotent_after_pause(self):
        # Re-querying an already-settled target after a pause reads the
        # settled map — no heap work, no state change.
        g = random_graph(40, 5.0, seed=9)
        it = DijkstraIterator(g, 0)
        for _ in range(10):
            if it.next() is None:
                break
        snapshot = dict(it.settled)
        pops = it.heap.pops
        for v, d in snapshot.items():
            assert it.run_until(v) == d
        assert it.heap.pops == pops
        assert it.settled == snapshot

    def test_resumed_completion_matches_fresh_including_settle_order(self):
        # A paused-and-resumed expansion lands on the same distances in
        # the same settle order as an uninterrupted one (settle order =
        # dict insertion order).
        g = random_graph(50, 4.0, seed=17)
        fresh = DijkstraIterator(g, 3)
        fresh.run_to_completion()
        paused = DijkstraIterator(g, 3)
        for _ in range(7):
            paused.next()
        paused.run_to_completion()
        assert paused.settled == fresh.settled
        assert list(paused.settled) == list(fresh.settled)

    def test_exhaustion_is_stable(self):
        # Once exhausted, an iterator stays exhausted: next() keeps
        # returning None and run_until keeps answering from settled /
        # inf — the promotion-to-full-column precondition.
        g = SocialGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0)])
        it = DijkstraIterator(g, 0)
        it.run_to_completion()
        assert it.exhausted
        assert it.next() is None
        assert it.run_until(3) == INF
        assert it.run_until(2) == 2.0
        assert it.exhausted and it.next() is None

    def test_target_requery_across_interleaved_advancement(self):
        # Settle a target, pause, advance past it for unrelated work,
        # re-query: the distance is final and unchanged.
        g = random_graph(60, 5.0, seed=23)
        it = DijkstraIterator(g, 1)
        targets = [v for v in (5, 9, 14) if v != 1]
        first = {v: it.run_until(v) for v in targets}
        beyond = max(d for d in first.values() if d != INF) + 0.5
        while it.last_distance <= beyond and it.next() is not None:
            pass
        for v in targets:
            assert it.run_until(v) == first[v]

    def test_last_distance_survives_pause(self):
        g = random_graph(40, 4.0, seed=31)
        it = DijkstraIterator(g, 0)
        it.next()
        it.next()
        frontier = it.last_distance
        # a pause (no calls) obviously keeps it; a settled re-query must too
        it.run_until(next(iter(it.settled)))
        assert it.last_distance == frontier


class TestHelpers:
    def test_dijkstra_cutoff(self):
        got = dijkstra_distances(PATH, 0, cutoff=1.5)
        assert set(got) == {0, 1}

    def test_shortest_path_unreachable(self):
        g = SocialGraph.from_edges(3, [(0, 1, 1.0)])
        assert DijkstraIterator(g, 0).run_until(2) == INF

    def test_hop_counts_bfs(self):
        hops = hop_counts(PATH, 0)
        assert hops == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_hop_counts_ignore_weights(self):
        g = SocialGraph.from_edges(3, [(0, 1, 100.0), (0, 2, 0.1), (1, 2, 0.1)])
        assert hop_counts(g, 0)[1] == 1  # one hop despite heavy weight


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_property_dijkstra_vs_networkx(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 40)
    g = random_graph(n, min(4.0, n / 2), seed=seed % 10_000)
    source = rng.randrange(n)
    expected = nx.single_source_dijkstra_path_length(to_networkx(g), source)
    got = dijkstra_distances(g, source)
    assert set(got) == set(expected)
    for v in expected:
        assert math.isclose(got[v], expected[v], abs_tol=1e-9)
