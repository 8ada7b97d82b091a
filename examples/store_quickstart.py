#!/usr/bin/env python3
"""Durable snapshots and mmap warm-start: restart by reading the data
back, not by deriving it again.

A cold start generates (or parses) the dataset and estimates the
normalization constants with double-sweep Dijkstra passes;
`save_engine(engine, path)` persists the data once — the coordinate and
CSR columns as checksummed `.npy` files behind an atomically-renamed
manifest that also holds the config and those constants; a service's
`SnapshotManager` writes it under the service's read lock so the image
is one instant — and
`load_engine(path)` memory-maps it back in a fraction of the time,
answering every query bit-identically.  Neither path builds an index:
the grid, the landmark index and the aggregate index are built by
their first reader (`spa`, `tsa`, `ais`), in a loaded engine as in a
fresh one, and interior `auto` reads none.  This example times both paths,
shows the snapshot history a `QueryService` keeps through
`SnapshotManager` (update folding, crash-safe `CURRENT` pointer,
restore through the engine-swap path), and demonstrates the typed
corruption error a damaged snapshot raises.

Run:  python examples/store_quickstart.py
"""

import tempfile
import time
from pathlib import Path

from repro import (
    GeoSocialEngine,
    StoreCorruptionError,
    gowalla_like,
    load_engine,
    save_engine,
)
from repro.service import QueryService

workdir = Path(tempfile.mkdtemp(prefix="repro-store-"))

# --- Cold build, then snapshot ----------------------------------------------
start = time.perf_counter()
dataset = gowalla_like(n=20_000, seed=7)
engine = GeoSocialEngine.from_dataset(dataset, num_landmarks=4, seed=2)
cold_s = time.perf_counter() - start

snap = save_engine(engine, workdir / "snap")
print(f"cold build: {cold_s:.2f}s -> snapshot at {snap.name}/")

# --- Warm start: mmap'd columns, no normalization sweep ---------------------
start = time.perf_counter()
warm = load_engine(snap)  # verify=True: sha256 per column
warm_s = time.perf_counter() - start
print(f"warm start: {warm_s:.3f}s ({cold_s / warm_s:.1f}x faster)")

user = next(iter(engine.locations.located_users()))
fresh = [(nb.user, round(nb.score, 6)) for nb in engine.query(user=user, k=5, alpha=0.3)]
restored = [(nb.user, round(nb.score, 6)) for nb in warm.query(user=user, k=5, alpha=0.3)]
print(f"bit-identical answers after restart: {fresh == restored}")

# --- Snapshot history on a service ------------------------------------------
with QueryService(engine) as service:
    manager = service.snapshots(workdir / "history")
    manager.snapshot()

    # batched edge updates fold into the next snapshot automatically
    other = (user + 1) % engine.graph.n
    service.update_edge(user, other, 0.123)
    print(f"pending edge updates: {service.pending_edge_updates}")
    manager.snapshot()  # rebuild_engine folds, then the image commits
    print(f"snapshots committed: {len(manager.snapshots())}, latest={manager.latest().name}")

    # restore swaps the loaded engine back into the service
    manager.restore()
    print(f"restored engine serves the folded edge: "
          f"{service.engine.graph.edge_weight(user, other) == 0.123}")

# --- Corruption is typed, never garbage -------------------------------------
column = next(p for p in snap.iterdir() if p.suffix == ".npy")
damaged = bytearray(column.read_bytes())
damaged[-1] ^= 0xFF
column.write_bytes(bytes(damaged))
try:
    load_engine(snap)
except StoreCorruptionError as err:
    print(f"damaged snapshot refused: {str(err)[:60]}...")
