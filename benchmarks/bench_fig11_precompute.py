"""Figure 11: graph-distance pre-computation (AIS-Cache) vs t."""

import pytest

from benchmarks.conftest import PROFILE, run_point
from repro.bench.variants import neighbor_cache
from repro.bench.workloads import get_bundle


@pytest.mark.parametrize("kind", ["gowalla", "foursquare"])
@pytest.mark.parametrize("t", PROFILE.t_values)
def test_fig11_ais_cache(benchmark, kind, t):
    bundle = get_bundle(kind, PROFILE)
    # Pre-computation is offline: build the lists before timing.
    neighbor_cache(bundle.engine, t).prebuild(bundle.query_users)
    run_point(
        benchmark, bundle.engine, bundle.query_users, "ais-cache",
        PROFILE.default_k, PROFILE.default_alpha, t=t,
    )


@pytest.mark.parametrize("kind", ["gowalla", "foursquare"])
def test_fig11_baseline_ais(benchmark, kind):
    """The flat AIS baseline the cache curve is compared against."""
    bundle = get_bundle(kind, PROFILE)
    run_point(
        benchmark, bundle.engine, bundle.query_users, "ais",
        PROFILE.default_k, PROFILE.default_alpha,
    )


@pytest.mark.parametrize("kind", ["gowalla", "foursquare"])
def test_fig11_fallback_rate_decreases_with_t(benchmark, kind):
    """Larger caches answer more queries without the AIS fallback."""
    from repro.bench.runner import run_method

    bundle = get_bundle(kind, PROFILE)
    t_small, t_large = min(PROFILE.t_values), max(PROFILE.t_values)

    def run():
        rates = []
        for t in (t_small, t_large):
            neighbor_cache(bundle.engine, t).prebuild(bundle.query_users)
            agg = run_method(
                bundle.engine, bundle.query_users, "ais-cache",
                k=PROFILE.default_k, alpha=PROFILE.default_alpha, t=t,
                keep_results=True,
            )
            rates.append(
                sum(r.stats.extra.get("fallback", 0) for r in agg.results) / agg.queries
            )
        return rates

    small_rate, large_rate = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["fallback_small_t"] = small_rate
    benchmark.extra_info["fallback_large_t"] = large_rate
    assert large_rate <= small_rate
