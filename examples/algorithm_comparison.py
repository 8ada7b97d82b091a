#!/usr/bin/env python3
"""Side-by-side run of every SSRQ algorithm in the paper.

All methods return the same answer (Definition 1 has a unique score
multiset); they differ — hugely — in how much of the graph and the grid
they touch.  This example prints the paper's two cost metrics for each
method on the same query workload, a miniature of Figure 8.

Run:  python examples/algorithm_comparison.py
"""

import time

from repro import GeoSocialEngine, gowalla_like
from repro.bench.variants import VARIANTS, run_query
from repro.core.engine import METHODS

dataset = gowalla_like(n=4_000, seed=7)
engine = GeoSocialEngine.from_dataset(dataset)

users = list(engine.located_users())[:10]
k, alpha = 20, 0.3

print(f"dataset: {dataset.stats()}")
print(f"workload: {len(users)} queries, k={k}, alpha={alpha}\n")

reference = None
print(f"{'method':>12} {'avg time':>10} {'pop ratio':>10} {'evals':>7}  result")
# The served methods, then the paper's figure-only variants (built by
# the reproduction tier, repro.bench.variants).  "auto" rides along:
# the adaptive planner resolves it per query (the resolved pick lands
# on result.method) and must match everyone else.
for method in METHODS + tuple(VARIANTS) + ("auto",):
    if method in ("sfa-ch", "spa-ch", "tsa-ch"):
        continue  # CH preprocessing is worthwhile only for repeated use
    start = time.perf_counter()
    total_pops = 0
    total_evals = 0
    scores = None
    for user in users:
        result = run_query(engine, method, user, k, alpha, t=150)
        total_pops += result.stats.pops
        total_evals += result.stats.evaluations
        scores = [round(s, 9) for s in result.scores]
    elapsed = (time.perf_counter() - start) / len(users)
    if reference is None:
        reference = scores
        status = "(reference)"
    else:
        status = "identical" if scores == reference else "MISMATCH!"
    print(
        f"{method:>12} {elapsed * 1000:>8.1f}ms "
        f"{total_pops / len(users) / engine.graph.n:>10.3f} "
        f"{total_evals / len(users):>7.0f}  {status}"
    )

print(
    "\nReading guide: SFA/SPA explore one domain blindly; TSA bounds both"
    "\ndomains at once; AIS prunes whole index cells via social summaries"
    "\nand shares one forward Dijkstra across all exact evaluations"
    "\n(Sections 4-5 of the paper)."
)
