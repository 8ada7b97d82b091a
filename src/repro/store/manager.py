"""Snapshot lifecycle management for a :class:`QueryService`.

:class:`SnapshotManager` keeps a history of engine snapshots under one
root directory::

    root/
      snapshot-000001/      committed snapshot (columns + manifest)
      snapshot-000002/
      snapshot-000003.tmp-<pid>-<k>/   crashed writer debris (ignored)
      CURRENT               pointer file naming the last committed one

The *last committed* pointer makes the history crash-safe end to end:
a new snapshot is written into a fresh ``snapshot-<seq>`` directory
through the temp-dir/fsync/rename protocol of :mod:`repro.store.format`
and only then does ``CURRENT`` move — itself via write-temp, fsync,
atomic rename.  A crash anywhere leaves ``CURRENT`` naming the previous
fully-durable snapshot; a crash after the snapshot rename but before
the pointer move leaves an extra committed directory that the pointer
simply does not reference yet (and :meth:`prune` can reap).

Snapshots are *incremental with respect to the update stream*: when
edge updates have been batched through
:meth:`~repro.service.QueryService.update_edge`, :meth:`snapshot` first
folds them by calling the service's existing
:meth:`~repro.service.QueryService.rebuild_engine` — the same fold the
serving path uses — so the image on disk always reflects the applied
stream.  :meth:`restore` swaps the loaded engine in through
:meth:`~repro.service.QueryService.replace_engine`, the same swap path
every follower of the service hears.
"""

from __future__ import annotations

import os
import re
import shutil
import threading
from pathlib import Path

from repro.store.format import (
    MANIFEST_NAME,
    StoreCorruptionError,
    StoreError,
    fault_point,
    fsync_dir,
)
from repro.store.snapshot import load_engine, save_engine

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d+)$")
_DEBRIS_RE = re.compile(r"^snapshot-(\d+)\.tmp-")

CURRENT_NAME = "CURRENT"

#: one lock per snapshot root (by real path), shared by its managers
_ROOT_LOCKS: "dict[str, threading.Lock]" = {}
_ROOT_LOCKS_GUARD = threading.Lock()


def _root_lock(root: Path) -> threading.Lock:
    with _ROOT_LOCKS_GUARD:
        return _ROOT_LOCKS.setdefault(os.path.realpath(root), threading.Lock())


class SnapshotManager:
    """Takes, lists, restores, and prunes snapshots of one service's
    engine.

    Within one process every manager of one root shares one lock, held
    from claiming a sequence number to moving the pointer, and by
    :meth:`prune`: concurrent snapshots (two ``POST /snapshot`` requests
    on two server workers, say) each commit their own directory, in
    sequence order, so ``CURRENT`` names the highest.  Writers in two
    processes sharing a root are not supported.

        >>> import tempfile
        >>> from repro import GeoSocialEngine, gowalla_like
        >>> from repro.service import QueryService
        >>> engine = GeoSocialEngine.from_dataset(gowalla_like(n=120, seed=7))
        >>> with QueryService(engine) as service:
        ...     manager = service.snapshots(tempfile.mkdtemp())
        ...     path = manager.snapshot()
        ...     manager.latest() == path
        True
    """

    def __init__(self, service, root) -> None:
        self.service = service
        self.root = Path(root)
        self._lock = _root_lock(self.root)

    # -- taking snapshots ----------------------------------------------

    def snapshot(self, *, fold: bool = True) -> Path:
        """Write a new snapshot and commit it as the latest.

        With ``fold=True`` (default), edge updates batched since the
        last rebuild are folded into a fresh engine first via the
        service's :meth:`~repro.service.QueryService.rebuild_engine`,
        so the snapshot captures the applied update stream.
        The served engine is read and saved under the service's read
        lock — concurrent queries proceed, concurrent updates and swaps
        wait until the save returns — and the returned directory is
        fully durable before ``CURRENT`` names it.  A concurrent
        snapshot of the same root waits for this one to commit.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        if fold and self.service.pending_edge_updates > 0:
            self.service.rebuild_engine()
        with self._lock:
            dest = self.root / f"snapshot-{self._next_seq():06d}"
            with self.service._read_locked_engine() as engine:
                save_engine(engine, dest)
            self._commit_current(dest.name)
        return dest

    def _next_seq(self) -> int:
        """One past the highest sequence number any snapshot directory
        (committed or crashed-tmp debris) has claimed."""
        best = 0
        if self.root.exists():
            for entry in self.root.iterdir():
                match = _SNAPSHOT_RE.match(entry.name) or _DEBRIS_RE.match(entry.name)
                if match:
                    best = max(best, int(match.group(1)))
        return best + 1

    def _commit_current(self, name: str) -> None:
        """Move the ``CURRENT`` pointer atomically: write a temp file,
        fsync it, rename over the pointer, fsync the directory."""
        fault_point("manager:pre-commit")
        tmp = self.root / (CURRENT_NAME + ".tmp")
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(name + "\n")
            f.flush()
            os.fsync(f.fileno())
        fault_point("manager:pointer-written")
        os.replace(tmp, self.root / CURRENT_NAME)
        fsync_dir(self.root)
        fault_point("manager:committed")

    # -- reading back ---------------------------------------------------

    def latest(self) -> "Path | None":
        """The last committed snapshot directory (``None`` before the
        first commit).  ``CURRENT`` naming a directory without a
        manifest is impossible under the commit protocol, so it raises
        :class:`StoreCorruptionError` (external interference)."""
        pointer = self.root / CURRENT_NAME
        try:
            name = pointer.read_text(encoding="utf-8").strip()
        except OSError:
            return None
        path = self.root / name
        if not name or not (path / MANIFEST_NAME).exists():
            raise StoreCorruptionError(
                f"CURRENT names {name!r} but {path} holds no manifest — "
                "the snapshot root was tampered with outside the manager"
            )
        return path

    def snapshots(self) -> list[Path]:
        """Committed snapshot directories, oldest first (crashed tmp
        debris and foreign files are excluded)."""
        if not self.root.exists():
            return []
        found = []
        for entry in self.root.iterdir():
            match = _SNAPSHOT_RE.match(entry.name)
            if match and (entry / MANIFEST_NAME).exists():
                found.append((int(match.group(1)), entry))
        return [path for _, path in sorted(found)]

    def load(self, *, mmap: bool = True, verify: bool = True):
        """Load the last committed snapshot into a fresh engine
        (without touching the service — see :meth:`restore`)."""
        path = self.latest()
        if path is None:
            raise StoreError(f"no committed snapshot under {self.root}")
        return load_engine(path, mmap=mmap, verify=verify)

    def restore(self, *, mmap: bool = True, verify: bool = True):
        """Load the last committed snapshot and swap it into the
        service through
        :meth:`~repro.service.QueryService.replace_engine` — the same
        swap path as a rebuild, so standing subscriptions recompute
        against the restored engine.  Returns
        the restored engine."""
        engine = self.load(mmap=mmap, verify=verify)
        self.service.replace_engine(engine)
        return engine

    # -- housekeeping ---------------------------------------------------

    def prune(self, keep: int = 2) -> list[Path]:
        """Remove old committed snapshots beyond the newest ``keep``
        (the ``CURRENT`` target is always kept) and any crashed-writer
        ``*.tmp-*`` debris.  Returns the removed paths."""
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        with self._lock:
            removed = []
            committed = self.snapshots()
            current = self.latest() if committed else None
            survivors = set(committed[-keep:])
            if current is not None:
                survivors.add(current)
            for path in committed:
                if path not in survivors:
                    shutil.rmtree(path)
                    removed.append(path)
            if self.root.exists():
                for entry in list(self.root.iterdir()):
                    if _DEBRIS_RE.match(entry.name) and entry.is_dir():
                        shutil.rmtree(entry)
                        removed.append(entry)
            return removed

    def __repr__(self) -> str:
        return f"SnapshotManager(root={str(self.root)!r}, committed={len(self.snapshots())})"
