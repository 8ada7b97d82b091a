"""Durable columnar store: crash-consistent engine snapshots with mmap
warm-start.

The persistence layer of the columnar data plane.  A snapshot holds
the data, not the indexes: an engine's coordinate arrays and CSR social
adjacency persist as checksummed ``.npy`` files next to a versioned
JSON manifest carrying the engine config, written crash-consistently
(temp dir + fsync + atomic rename; the manifest is the commit point)
and loaded back zero-copy via copy-on-write mmap.  A load skips the
normalization sweep, and every index (grid, landmarks, aggregate) is
built by its first reader, as in a freshly built engine.

Entry points:

- :meth:`GeoSocialEngine.save` / ``.load`` — one engine, one
  snapshot directory;
- :class:`SnapshotManager` (via
  :meth:`QueryService.snapshots <repro.service.QueryService.snapshots>`)
  — snapshot history with a crash-safe last-committed pointer,
  update-stream folding, and restore through the service's engine-swap
  path;
- :func:`save_engine` / :func:`load_engine` — the functional core
  both ride on.

Corruption (torn or malformed manifests, checksum mismatches, mutually
inconsistent columns) raises the typed :class:`StoreCorruptionError`; the crash-test
fault hooks (:func:`fault_injection`, :class:`InjectedFault`) let tests
kill the writer at every intermediate step.
"""

from repro.store.format import (
    FORMAT_NAME,
    FORMAT_VERSION,
    MANIFEST_NAME,
    InjectedFault,
    StoreCorruptionError,
    StoreError,
    fault_injection,
    fault_point,
    read_column,
    read_manifest,
    set_fault_hook,
    write_column,
    write_manifest,
)
from repro.store.manager import SnapshotManager
from repro.store.snapshot import load_engine, save_engine

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "InjectedFault",
    "SnapshotManager",
    "StoreCorruptionError",
    "StoreError",
    "fault_injection",
    "fault_point",
    "load_engine",
    "read_column",
    "read_manifest",
    "save_engine",
    "set_fault_hook",
    "write_column",
    "write_manifest",
]
