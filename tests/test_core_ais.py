"""Behavioural tests for Aggregate Index Search and its variants."""

import math

import pytest

from repro.bench.variants import variant_searcher
from repro.core.ais import AggregateIndexSearch, AISVariant
from repro.core.engine import GeoSocialEngine
from repro.core.ranking import Normalization
from repro.graph.landmarks import LandmarkIndex
from repro.index.aggregate import AggregateIndex
from tests.conftest import assert_same_scores, random_instance

INF = math.inf

#: AIS− and AIS-BID of Figure 10, and the summary ablation
MINUS = AISVariant(delayed_evaluation=False)
BID = AISVariant(share_forward=False, cache_paths=False, delayed_evaluation=False)
NOSUM = AISVariant(use_social_summaries=False)


@pytest.fixture(scope="module")
def parts():
    graph, locations = random_instance(250, seed=331, coverage=0.85)
    norm = Normalization.estimate(graph, locations)
    landmarks = LandmarkIndex.build(graph, m=4, seed=3)
    index = AggregateIndex.build(locations, landmarks, s=4)
    return graph, locations, landmarks, index, norm


def make(parts, variant):
    graph, locations, landmarks, index, norm = parts
    return AggregateIndexSearch(graph, locations, landmarks, index, norm, variant)


def test_variants_agree(parts):
    _, locations, _, _, _ = parts
    full = make(parts, AISVariant())
    minus = make(parts, MINUS)
    bid = make(parts, BID)
    nosum = make(parts, NOSUM)
    for user in list(locations.located_users())[:6]:
        expected = full.search(user, 10, 0.3)
        for other in (minus, bid, nosum):
            assert_same_scores(expected, other.search(user, 10, 0.3))


def test_unlocated_query_rejected_at_mixed_alpha(parts):
    graph, locations, *_ = parts
    ais = make(parts, AISVariant())
    user = next(u for u in range(graph.n) if not locations.has_location(u))
    with pytest.raises(ValueError, match="location"):
        ais.search(user, 5, 0.5)


def test_delayed_evaluation_reduces_evaluations(parts):
    """Section 5.3: delayed evaluation postpones exact computations; it
    must never *increase* the number of evaluations."""
    _, locations, *_ = parts
    full = make(parts, AISVariant())
    minus = make(parts, MINUS)
    users = list(locations.located_users())[:10]
    ev_full = sum(full.search(u, 10, 0.3).stats.evaluations for u in users)
    ev_minus = sum(minus.search(u, 10, 0.3).stats.evaluations for u in users)
    assert ev_full <= ev_minus


def test_delayed_evaluation_reinsertions_counted(parts):
    """Only delayed evaluation re-inserts: the full variant does over
    these users, AIS− never does."""
    _, locations, *_ = parts
    full = make(parts, AISVariant())
    minus = make(parts, MINUS)
    users = list(locations.located_users())[:10]
    assert sum(full.search(u, 10, 0.3).stats.reinsertions for u in users) > 0
    assert [minus.search(u, 10, 0.3).stats.reinsertions for u in users] == [0] * len(users)


def test_shared_forward_pops_fewer_than_bid(parts):
    """Figure 10's headline: computation sharing slashes graph work."""
    _, locations, *_ = parts
    minus = make(parts, MINUS)
    bid = make(parts, BID)
    users = list(locations.located_users())[:8]
    pops_minus = sum(minus.search(u, 10, 0.3).stats.pops_social for u in users)
    pops_bid = sum(bid.search(u, 10, 0.3).stats.pops_social for u in users)
    assert pops_minus < pops_bid


def test_social_summaries_prune(parts):
    """Dropping summaries must cost (weakly) more index pops."""
    _, locations, *_ = parts
    full = make(parts, AISVariant())
    nosum = make(parts, NOSUM)
    users = list(locations.located_users())[:8]
    pops_full = sum(full.search(u, 10, 0.5).stats.pops_index for u in users)
    pops_nosum = sum(nosum.search(u, 10, 0.5).stats.pops_index for u in users)
    assert pops_full <= pops_nosum


def test_cache_hits_recorded(parts):
    """A hit is an exact distance found without a search: the full
    variant records some; with the forward search unshared only the
    path table ``T`` answers, so switching ``cache_paths`` off as well
    records none."""
    _, locations, *_ = parts
    users = list(locations.located_users())[:10]

    def hits(variant):
        return [make(parts, variant).search(u, 30, 0.3).stats.cache_hits for u in users]

    assert sum(hits(AISVariant())) > 0
    assert make(parts, AISVariant()).search(users[0], 30, 0.3).stats.pops_index > 0
    assert sum(hits(AISVariant(share_forward=False))) > 0
    assert hits(BID) == [0] * len(users)  # share_forward and cache_paths off


def test_variant_flags(parts):
    """:mod:`repro.bench.variants` builds AIS−, AIS-BID and the summary
    ablation with the switches these tests exercise, and the engine's
    ``ais`` runs every optimisation."""
    graph, locations, *_ = parts
    engine = GeoSocialEngine(graph, locations, num_landmarks=4, s=4, seed=3)
    assert engine.searcher("ais").variant == AISVariant()
    for name, variant in (("ais-minus", MINUS), ("ais-bid", BID), ("ais-nosummary", NOSUM)):
        assert variant_searcher(engine, name).variant == variant
