"""The readers-writer lock of the serving layer.

SSRQ serving is read-mostly: queries only read the graph, the location
table, and the indexes, so any number may run concurrently — but a
location or edge update mutates the grid and the aggregate index in
place and must run exclusively.  The stdlib has no RW lock, so this
module carries a small writer-preferring implementation: once a writer
is waiting, new readers queue behind it, bounding update latency under
sustained query traffic.

Each :class:`~repro.service.QueryService` owns one instance, made
with the service and kept across every engine swap.  The engine is a
plain value with no lock of its own: the service's queries, its stream
registry's reads and its snapshots hold the read side, and its moves,
forgets, edge updates, swaps and ``close`` the write side, so a served
engine is mutated only through its service.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator


class ReadWriteLock:
    """Writer-preferring readers-writer lock.

        >>> from repro.utils.concurrency import ReadWriteLock
        >>> lock = ReadWriteLock()
        >>> with lock.read_locked():          # many readers may hold this
        ...     pass
        >>> with lock.write_locked():         # exclusive
        ...     pass

    Neither side is re-entrant: a thread already holding the read side
    must not re-acquire it (writer preference would deadlock it behind
    a waiting writer), and a writer must not nest writes.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._active_readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._active_readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._active_readers -= 1
            if self._active_readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._active_readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._cond:
            self._writer_active = False
            self._cond.notify_all()

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        """Context manager holding the shared (reader) side."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        """Context manager holding the exclusive (writer) side."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

