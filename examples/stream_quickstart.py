#!/usr/bin/env python3
"""Continuous top-k subscriptions: standing queries maintained across
the update stream.

One-shot queries recompute from scratch; production traffic asks the
*same* questions continuously while everybody moves.  This example
registers a handful of standing queries with
`repro.stream.SubscriptionRegistry`, replays location updates, and
shows (a) a drifting companion repairing the subscriptions it belongs
to in one batched pass, while the result cache simply evicts every
entry below alpha = 1, (b) the NO-OP / REPAIR / RECOMPUTE
classification doing almost all updates for free, and (c) every
maintained result staying exactly equal to a fresh recompute.

Run:  python examples/stream_quickstart.py
"""

import random
import time

from repro import GeoSocialEngine, gowalla_like
from repro.service import QueryService
from repro.stream import SubscriptionRegistry

dataset = gowalla_like(n=2_000, seed=7)
engine = GeoSocialEngine.from_dataset(dataset)
located = engine.located_users().tolist()

service = QueryService(engine, cache_size=1024)
registry = SubscriptionRegistry(service)

# --- Standing queries: "keep my top-10 companions current" ------------------
query_users = located[:8]
subs = [registry.subscribe(u, k=10, alpha=0.3, method="tsa") for u in query_users]
print(f"registered {len(subs)} standing queries (k=10, alpha=0.3, method=tsa)")

# Prime the result cache with one-shot traffic too (a move evicts all of it).
for u in located[:40]:
    service.query(u, k=10, alpha=0.3, method="tsa")

# --- Phase 1: companions drift — subscriptions repair, cache entries go ------
rng = random.Random(42)
watched = sorted({m for sub in subs for m in registry.result(sub).users})
for mover in watched[:30]:
    x, y = engine.locations.get(mover) or (rng.random(), rng.random())
    service.move_user(
        mover,
        min(1.0, max(0.0, x + rng.uniform(-0.002, 0.002))),
        min(1.0, max(0.0, y + rng.uniform(-0.002, 0.002))),
    )
applied = registry.flush()
print(
    f"30 companions drifted: {applied['repaired']} subscriptions repaired in "
    f"one batched pass, {applied['recomputed']} recomputed; the result "
    f"cache evicted {service.stats.invalidated_entries} entries below alpha = 1"
)

# --- Phase 2: full-population churn -----------------------------------------
start = time.perf_counter()
for _ in range(500):
    mover = rng.randrange(engine.graph.n)
    x, y = engine.locations.get(mover) or (rng.random(), rng.random())
    if rng.random() < 0.9:  # mostly small jitter, occasionally a hop
        x = min(1.0, max(0.0, x + rng.uniform(-0.02, 0.02)))
        y = min(1.0, max(0.0, y + rng.uniform(-0.02, 0.02)))
    else:
        x, y = rng.random(), rng.random()
    service.move_user(mover, x, y)
applied = registry.flush()
elapsed = time.perf_counter() - start

stats = registry.stats
print(
    f"absorbed {stats.location_updates} updates in {elapsed:.2f}s: "
    f"{stats.noops} NO-OP, {stats.repair_marks} repair-marked, "
    f"{stats.recompute_marks} recompute-marked"
)
print(
    f"applied in batched passes: {stats.repairs_applied} repairs, "
    f"{stats.recomputes_applied} recomputes "
    f"({stats.maintained_fraction:.1%} of classifications avoided a recompute)"
)

# --- Maintained results are exactly fresh results ---------------------------
all_equal = all(
    [(nb.user, nb.score) for nb in registry.result(sub)]
    == [(nb.user, nb.score) for nb in engine.query(sub.user, 10, 0.3, "tsa")]
    for sub in subs
)
print(f"maintained results identical to fresh recompute: {all_equal}")

registry.close()
service.close()
