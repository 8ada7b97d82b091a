"""Behavioural tests for the Social First Approach."""

import math

import pytest

from repro.core.ranking import Normalization
from repro.core.sfa import SocialFirstSearch
from repro.graph.socialgraph import SocialGraph
from repro.spatial.point import LocationTable
from tests.conftest import random_instance

INF = math.inf


@pytest.fixture(scope="module")
def searcher():
    graph, locations = random_instance(200, seed=301, coverage=0.8)
    norm = Normalization.estimate(graph, locations)
    return SocialFirstSearch(graph, locations, norm), graph


def test_alpha_zero_rejected(searcher):
    sfa, _ = searcher
    with pytest.raises(ValueError, match="^sfa does not answer a zero social weight"):
        sfa.search(0, 5, 0.0)


def test_invalid_user(searcher):
    sfa, graph = searcher
    with pytest.raises(ValueError):
        sfa.search(graph.n + 5, 5, 0.5)


def test_large_alpha_terminates_early(searcher):
    """The more social the preference, the tighter SFA's bound: at
    alpha=0.9 it must pop (weakly) fewer vertices than at alpha=0.1."""
    sfa, _ = searcher
    low = sfa.search(0, 10, 0.1)
    high = sfa.search(0, 10, 0.9)
    assert high.stats.pops_social <= low.stats.pops_social


def test_stats_populated(searcher):
    sfa, _ = searcher
    result = sfa.search(0, 10, 0.5)
    assert result.stats.pops_social > 0
    assert result.stats.pops_spatial == 0
    assert result.stats.elapsed >= 0


def test_pure_social_includes_unlocated_users():
    graph = SocialGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
    locations = LocationTable.empty(3)
    locations.set(0, 0.0, 0.0)
    sfa = SocialFirstSearch(graph, locations, Normalization(p_max=2.0, d_max=1.0))
    result = sfa.search(0, 2, 1.0)
    assert result.users == [1, 2]  # both unlocated, still ranked socially


def test_mixed_alpha_excludes_unlocated_users():
    graph = SocialGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
    locations = LocationTable.empty(3)
    locations.set(0, 0.0, 0.0)
    locations.set(1, 1.0, 1.0)
    sfa = SocialFirstSearch(graph, locations, Normalization(p_max=2.0, d_max=2.0))
    result = sfa.search(0, 2, 0.5)
    assert result.users == [1]  # user 2 has f = inf


def test_unreachable_component_excluded():
    graph = SocialGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    locations = LocationTable.empty(4)
    for u in range(4):
        locations.set(u, u * 0.1, 0.0)
    sfa = SocialFirstSearch(graph, locations, Normalization(p_max=1.0, d_max=1.0))
    result = sfa.search(0, 3, 0.5)
    assert result.users == [1]


def test_result_metadata(searcher):
    sfa, _ = searcher
    result = sfa.search(5, 7, 0.4)
    assert result.query_user == 5
    assert result.k == 7
    assert result.alpha == 0.4
