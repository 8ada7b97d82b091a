"""Behavioural tests for the Spatial First Approach."""

import math

import pytest

from repro.core.ranking import Normalization
from repro.core.spa import SpatialFirstSearch
from repro.graph.socialgraph import SocialGraph
from repro.spatial.grid import UniformGrid
from repro.spatial.point import LocationTable
from tests.conftest import random_instance

INF = math.inf


@pytest.fixture(scope="module")
def searcher():
    graph, locations = random_instance(200, seed=311, coverage=0.8)
    norm = Normalization.estimate(graph, locations)
    grid = UniformGrid.build(locations, 12)
    return SpatialFirstSearch(graph, locations, grid, norm), locations


def test_alpha_one_rejected(searcher):
    spa, locations = searcher
    user = next(locations.located_users())
    with pytest.raises(ValueError, match="^spa does not answer a zero spatial weight"):
        spa.search(user, 5, 1.0)


def test_unlocated_query_user_rejected(searcher):
    spa, locations = searcher
    user = next(u for u in range(200) if not locations.has_location(u))
    with pytest.raises(ValueError, match="location"):
        spa.search(user, 5, 0.5)


def test_small_alpha_terminates_early(searcher):
    """The more spatial the preference, the tighter SPA's bound."""
    spa, locations = searcher
    user = next(locations.located_users())
    low = spa.search(user, 10, 0.1)
    high = spa.search(user, 10, 0.7)
    assert low.stats.pops_spatial <= high.stats.pops_spatial


def test_stats_populated(searcher):
    spa, locations = searcher
    user = next(locations.located_users())
    result = spa.search(user, 10, 0.3)
    assert result.stats.pops_spatial > 0
    assert result.stats.evaluations > 0


def test_social_evaluations_shared_incrementally(searcher):
    """Vanilla SPA's social module is one shared Dijkstra: its total
    social pops per query cannot exceed one full expansion (plus the
    stale-entry overhead), regardless of how many candidates it scores."""
    spa, locations = searcher
    graph_n = 200
    user = next(locations.located_users())
    result = spa.search(user, 30, 0.5)
    # Each vertex settles once; stale pops are bounded by edge count.
    assert result.stats.pops_social <= graph_n * 10


def test_isolated_spatial_cluster():
    """Users spatially close but socially unreachable must still be
    scored correctly (f = inf at mixed alpha -> excluded)."""
    graph = SocialGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    locations = LocationTable.empty(4)
    locations.set(0, 0.0, 0.0)
    locations.set(1, 0.9, 0.9)
    locations.set(2, 0.01, 0.01)  # nearest spatially, unreachable socially
    locations.set(3, 0.02, 0.02)
    grid = UniformGrid.build(locations, 4)
    spa = SpatialFirstSearch(graph, locations, grid, Normalization(1.0, 2.0))
    result = spa.search(0, 3, 0.5)
    assert result.users == [1]
