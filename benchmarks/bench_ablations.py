"""Ablation benchmarks beyond the paper's figures.

Each ablation removes one load-bearing design choice and measures the
damage:

- social summaries in the aggregate index (vs spatial-only bounds);
- the 1:1 forward/reverse interleave of Algorithm 3 (vs throttled
  forward search — shows why the shared forward search matters);
- landmark count M (the paper fine-tuned M = 8);
- landmark selection strategy (farthest vs random vs degree).
"""

import pytest

from benchmarks.conftest import PROFILE, run_point
from repro.bench.workloads import get_bundle
from repro.core.ais import AggregateIndexSearch, AISVariant
from repro.core.engine import GeoSocialEngine


def _ais_with(engine, variant):
    return AggregateIndexSearch(
        engine.graph, engine.locations, engine.landmarks,
        engine.aggregate, engine.normalization, variant,
    )


@pytest.mark.parametrize("method", ["ais", "ais-nosummary"])
def test_ablation_social_summaries(benchmark, method):
    """Dropping the social summaries leaves only spatial cell bounds."""
    bundle = get_bundle("gowalla", PROFILE)
    agg = run_point(
        benchmark, bundle.engine, bundle.query_users, method,
        PROFILE.default_k, PROFILE.default_alpha,
    )
    assert agg.avg_pops > 0


@pytest.mark.parametrize("interleave", [1, 4])
def test_ablation_forward_interleave(benchmark, interleave):
    """Algorithm 3 advances forward and reverse 1:1; throttling the
    forward search starves the meeting test and the β bound."""
    bundle = get_bundle("gowalla", PROFILE)
    searcher = _ais_with(bundle.engine, AISVariant(forward_interleave=interleave))

    def run():
        total = 0
        for user in bundle.query_users:
            total += searcher.search(user, PROFILE.default_k, PROFILE.default_alpha).stats.pops
        return total / len(bundle.query_users)

    pops = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["avg_pops"] = pops


@pytest.mark.parametrize("m", [2, 8, 16])
def test_ablation_landmark_count(benchmark, m):
    """The paper tuned M to 8: too few landmarks -> loose bounds; too
    many -> per-bound evaluation cost grows."""
    bundle = get_bundle("gowalla", PROFILE)
    ds = bundle.dataset

    def build_and_query():
        engine = GeoSocialEngine(
            ds.graph, ds.locations, num_landmarks=m, s=PROFILE.default_s, seed=1
        )
        total = 0.0
        for user in bundle.query_users:
            result = engine.query(user, k=PROFILE.default_k, alpha=PROFILE.default_alpha)
            total += result.stats.pops
        return total / len(bundle.query_users)

    pops = benchmark.pedantic(build_and_query, rounds=1, iterations=1)
    benchmark.extra_info["avg_pops"] = pops


@pytest.mark.parametrize("strategy", ["farthest", "random", "degree"])
def test_ablation_landmark_strategy(benchmark, strategy):
    bundle = get_bundle("gowalla", PROFILE)
    ds = bundle.dataset

    def build_and_query():
        engine = GeoSocialEngine(
            ds.graph, ds.locations,
            num_landmarks=PROFILE.num_landmarks,
            landmark_strategy=strategy, s=PROFILE.default_s, seed=1,
        )
        total = 0.0
        for user in bundle.query_users:
            result = engine.query(user, k=PROFILE.default_k, alpha=PROFILE.default_alpha)
            total += result.stats.pops
        return total / len(bundle.query_users)

    pops = benchmark.pedantic(build_and_query, rounds=1, iterations=1)
    benchmark.extra_info["avg_pops"] = pops
