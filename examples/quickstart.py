#!/usr/bin/env python3
"""Quickstart: build a geo-social dataset, index it, run SSRQ queries.

Run:  python examples/quickstart.py
"""

from repro import GeoSocialEngine, gowalla_like

# 1. A calibrated synthetic stand-in for the paper's Gowalla dataset
#    (power-law friendships, degree-product tie strengths, clustered
#    check-in locations, 54.4% of users with a known location).
dataset = gowalla_like(n=2_000, seed=7)
print(f"dataset: {dataset.stats()}")

# 2. The engine builds everything Section 5 of the paper needs: ALT
#    landmark tables (M=8), the SPA grid, and the aggregate index with
#    social summaries.
engine = GeoSocialEngine.from_dataset(dataset)
print(f"engine:  {engine}")

# 3. Ask a social-and-spatial ranking query (SSRQ): the top-10 users
#    around user 42 weighting social proximity 30% / spatial 70%.
query_user = int(engine.located_users()[0])
result = engine.query(query_user, k=10, alpha=0.3, method="ais")

print(f"\ntop-{result.k} companions for user {query_user} (alpha={result.alpha}):")
print(f"{'user':>6} {'f-score':>10} {'social dist':>12} {'euclid dist':>12}")
for nb in result:
    print(f"{nb.user:>6} {nb.score:>10.4f} {nb.social:>12.4f} {nb.spatial:>12.4f}")

# 4. Each query reports the paper's cost metrics.
stats = result.stats
print(
    f"\ncost: {stats.pops} heap pops "
    f"(pop ratio {stats.pop_ratio(engine.graph.n):.3f}), "
    f"{stats.evaluations} exact graph-distance evaluations, "
    f"{stats.elapsed * 1000:.1f} ms"
)

# 5. Preference is a dial: alpha=0.9 asks for socially close users,
#    alpha=0.1 for spatially close ones.
social_first = engine.query(query_user, k=5, alpha=0.9).users
spatial_first = engine.query(query_user, k=5, alpha=0.1).users
print(f"\nalpha=0.9 (social) top-5:  {social_first}")
print(f"alpha=0.1 (spatial) top-5: {spatial_first}")
