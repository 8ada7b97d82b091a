"""Behavioural tests for the Twofold Search Approach."""

import math

import pytest

from repro.core.ranking import Normalization
from repro.core.tsa import TwofoldSearch
from repro.graph.landmarks import LandmarkIndex
from repro.spatial.grid import UniformGrid
from tests.conftest import assert_same_scores, random_instance

INF = math.inf


@pytest.fixture(scope="module")
def parts():
    graph, locations = random_instance(250, seed=321, coverage=0.85)
    norm = Normalization.estimate(graph, locations)
    grid = UniformGrid.build(locations, 12)
    landmarks = LandmarkIndex.build(graph, m=4, seed=2)
    return graph, locations, grid, norm, landmarks


def test_invalid_policy(parts):
    graph, locations, grid, norm, landmarks = parts
    with pytest.raises(ValueError, match="policy"):
        TwofoldSearch(graph, locations, grid, norm, landmarks, probe_policy="zigzag")


def test_endpoint_alphas_rejected(parts):
    graph, locations, grid, norm, landmarks = parts
    tsa = TwofoldSearch(graph, locations, grid, norm, landmarks)
    user = next(locations.located_users())
    with pytest.raises(ValueError, match="^tsa does not answer a zero social weight"):
        tsa.search(user, 5, 0.0)
    with pytest.raises(ValueError, match="^tsa does not answer a zero spatial weight"):
        tsa.search(user, 5, 1.0)


def test_unlocated_query_rejected(parts):
    graph, locations, grid, norm, landmarks = parts
    tsa = TwofoldSearch(graph, locations, grid, norm, landmarks)
    user = next(u for u in range(graph.n) if not locations.has_location(u))
    with pytest.raises(ValueError, match="location"):
        tsa.search(user, 5, 0.5)


def test_quick_combine_preserves_result(parts):
    graph, locations, grid, norm, landmarks = parts
    rr = TwofoldSearch(graph, locations, grid, norm, landmarks=landmarks)
    qc = TwofoldSearch(
        graph, locations, grid, norm, landmarks=landmarks, probe_policy="quick-combine"
    )
    for user in list(locations.located_users())[:6]:
        assert_same_scores(rr.search(user, 10, 0.3), qc.search(user, 10, 0.3))


def test_uses_both_domains(parts):
    graph, locations, grid, norm, landmarks = parts
    tsa = TwofoldSearch(graph, locations, grid, norm, landmarks=landmarks)
    user = next(locations.located_users())
    result = tsa.search(user, 10, 0.5)
    assert result.stats.pops_social > 0
    assert result.stats.pops_spatial > 0


def test_tighter_than_single_domain_bounds(parts):
    """TSA's combined bound must not be worse than BOTH one-domain
    methods at once (Section 4.2's motivation): its total pops are at
    most max(SFA pops, SPA pops) on typical instances.  We check the
    weaker, always-true property that it terminates."""
    graph, locations, grid, norm, landmarks = parts
    from repro.core.sfa import SocialFirstSearch
    from repro.core.spa import SpatialFirstSearch

    sfa = SocialFirstSearch(graph, locations, norm)
    spa = SpatialFirstSearch(graph, locations, grid, norm)
    tsa = TwofoldSearch(graph, locations, grid, norm, landmarks=landmarks)
    users = list(locations.located_users())[:8]
    tsa_total = sum(tsa.search(u, 10, 0.5).stats.pops for u in users)
    single_best = min(
        sum(sfa.search(u, 10, 0.5).stats.pops for u in users),
        sum(spa.search(u, 10, 0.5).stats.pops for u in users),
    )
    # TSA should not be dramatically worse than the better single-domain
    # method (paper Fig. 8: it is strictly better on pop ratio).
    assert tsa_total <= 2 * single_best
