#!/usr/bin/env python3
"""Dynamic locations: users move, the indexes follow, answers change.

The paper maintains its indexes on every move (Section 5.1): deletions
and insertions in the grid, with incremental social-summary upkeep.
Here a move only writes the location table and marks the k-d tree that
answers ``alpha = 0``; it drops the grid and the aggregate index, and
the next ``ais`` query builds them again from the table in one pass
(the upkeep cost every later move 20x more than the move itself; see
docs/BENCHMARKS.md).  This example simulates an evening where users
wander around town, interleaving moves with ``ais`` and ``alpha = 0``
queries, and verifies the answers against brute force.

Run:  python examples/location_updates.py
"""

import random
import time

from repro import GeoSocialEngine, foursquare_like

dataset = foursquare_like(n=3_000, seed=11)
engine = GeoSocialEngine.from_dataset(dataset)
rng = random.Random(5)

located = engine.located_users().tolist()
query_user = located[0]

print("initial top-5:", engine.query(query_user, k=5, alpha=0.3).users)

# --- An evening of movement -------------------------------------------------
moves = 0
start = time.perf_counter()
for step in range(5):
    # A few hundred users report new positions...
    for _ in range(300):
        user = rng.choice(located)
        x, y = rng.random(), rng.random()
        engine.move_user(user, x, y)
        moves += 1
    # ...and someone new turns on location sharing.
    newcomer = next(
        u for u in range(engine.graph.n) if not engine.locations.has_location(u)
    )
    engine.move_user(newcomer, rng.random(), rng.random())
    moves += 1

    answer = engine.query(query_user, k=5, alpha=0.3, method="ais")
    truth = engine.query(query_user, k=5, alpha=0.3, method="bruteforce")
    agree = [round(a, 9) for a in answer.scores] == [round(t, 9) for t in truth.scores]
    print(
        f"after {moves:>5} moves: top-5 = {answer.users}  "
        f"(matches brute force: {agree})"
    )
    assert agree, "a rebuilt aggregate index must answer exactly"
    nearest = engine.query(query_user, k=5, alpha=0.0)
    assert nearest.users == engine.query(query_user, k=5, alpha=0.0, method="bruteforce").users

elapsed = time.perf_counter() - start
print(f"\n{moves} location updates + 5 verified queries in {elapsed:.2f}s")

# --- A user going dark -------------------------------------------------------
leaver = engine.query(query_user, k=1, alpha=0.3).users[0]
engine.forget_location(leaver)
after = engine.query(query_user, k=5, alpha=0.3)
print(f"user {leaver} disabled location sharing -> new top-5: {after.users}")
assert leaver not in after.users
