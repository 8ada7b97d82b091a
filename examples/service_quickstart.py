#!/usr/bin/env python3
"""Serving SSRQ traffic: batching, in-batch deduplication, and the
result cache.

The engine answers one query at a time; `repro.service.QueryService`
turns it into a traffic-serving component.  This example drives a
Zipf-skewed arrival stream (hot users dominate, as in real check-in
workloads) through the service, shows the cache paying for repeats,
then moves a user and shows the move evicting every cached answer that
reads locations (alpha < 1) while the pure-social ones (alpha = 1) stay
and every served answer stays correct, and records an edge update that
only the next engine rebuild makes visible.

Run:  python examples/service_quickstart.py
"""

import time

from repro import GeoSocialEngine, gowalla_like
from repro.bench.workloads import zipf_arrivals
from repro.service import QueryRequest, QueryService

dataset = gowalla_like(n=2_000, seed=7)
engine = GeoSocialEngine.from_dataset(dataset)
located = engine.located_users().tolist()

# --- Skewed traffic through the service -------------------------------------
arrivals = zipf_arrivals(located, count=400, skew=1.1, seed=3)
requests = [QueryRequest(user=u, k=10, alpha=0.3, method="ais") for u in arrivals]

with QueryService(engine, cache_size=2048) as service:
    start = time.perf_counter()
    for lo in range(0, len(requests), 64):
        batch = requests[lo : lo + 64]
        responses = service.query_many(batch)
        assert [r.request.user for r in responses] == [q.user for q in batch]
    elapsed = time.perf_counter() - start

    stats = service.stats
    print(
        f"served {stats.requests} queries in {elapsed:.2f}s "
        f"({stats.requests / elapsed:.0f} qps)"
    )
    print(
        f"cache hit rate: {stats.hit_rate:.1%}  "
        f"(hits={stats.cache_hits}, deduped in-batch={stats.deduplicated}, "
        f"executed={stats.executed})"
    )

    # --- Batched answers are exactly the sequential answers ------------------
    probe = [QueryRequest(user=u, k=5, alpha=0.5) for u in located[:8]]
    batched = service.query_many(probe)
    for response in batched:
        sequential = engine.query(response.request.user, k=5, alpha=0.5)
        assert response.result.users == sequential.users
    print("batched rankings identical to sequential engine.query: True")

    # --- A location update evicts every answer that reads locations ---------
    hot_user = arrivals[0]
    assert service.query(QueryRequest(user=hot_user, k=10, alpha=0.3, method="ais")).cached
    social = QueryRequest(user=hot_user, k=10, alpha=1.0)
    service.query(social)
    cached_before = len(service.cache)
    service.move_user(hot_user, 0.05, 0.95)
    evicted = stats.invalidated_entries
    print(
        f"moved user {hot_user}: evicted {evicted} of {cached_before} cached "
        f"results (every answer below alpha = 1), kept {len(service.cache)}"
    )
    assert evicted == cached_before - 1 and service.query(social).cached
    refreshed = service.query(QueryRequest(user=hot_user, k=10, alpha=0.3, method="ais"))
    assert not refreshed.cached, "the mover's cache line must be gone"
    truth = engine.query(hot_user, k=10, alpha=0.3, method="bruteforce")
    assert refreshed.result.users == truth.users
    print(f"fresh answer after the move verified against brute force: True")

    # --- A social-edge change is recorded; the rebuild flushes the cache -----
    held = len(service.cache)
    service.update_edge(located[0], located[1], 0.01)
    assert len(service.cache) == held and service.pending_edge_updates == 1
    print(f"edge update recorded: served graph unchanged, cache still {held} entries")
    service.rebuild_engine()
    print(
        f"rebuild_engine folded it in -> full cache flush "
        f"(cache now {len(service.cache)} entries, "
        f"full_invalidations {stats.full_invalidations})"
    )
